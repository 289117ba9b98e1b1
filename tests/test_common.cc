/**
 * @file
 * Unit tests for the common infrastructure: RNG determinism and
 * statistical sanity, running stats, histograms, the stats registry,
 * the table printer, and the thread pool.
 */

#include <gtest/gtest.h>

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"

namespace rtgs
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next()) ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(11);
    double acc = 0;
    constexpr int n = 100000;
    for (int i = 0; i < n; ++i)
        acc += rng.uniform();
    EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, UniformIntRespectsBound)
{
    Rng rng(3);
    std::set<u64> seen;
    for (int i = 0; i < 1000; ++i) {
        u64 v = rng.uniformInt(7);
        EXPECT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all residues hit
}

TEST(Rng, NormalMomentsMatch)
{
    Rng rng(13);
    RunningStat s;
    for (int i = 0; i < 100000; ++i)
        s.add(rng.normal(2.0, 3.0));
    EXPECT_NEAR(s.mean(), 2.0, 0.05);
    EXPECT_NEAR(s.stddev(), 3.0, 0.05);
}

TEST(Rng, ChanceProbability)
{
    Rng rng(17);
    int hits = 0;
    constexpr int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(RunningStat, BasicMoments)
{
    RunningStat s;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        s.add(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(RunningStat, MergeMatchesSequential)
{
    RunningStat all, a, b;
    Rng rng(5);
    for (int i = 0; i < 100; ++i) {
        double v = rng.normal();
        all.add(v);
        (i < 40 ? a : b).add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Histogram, BinningAndClamping)
{
    Histogram h(0.0, 10.0, 10);
    h.add(0.5);   // bin 0
    h.add(9.5);   // bin 9
    h.add(-3.0);  // clamps to bin 0
    h.add(40.0);  // clamps to bin 9
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(9), 2u);
    EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, PercentileMonotonic)
{
    Histogram h(0.0, 100.0, 100);
    Rng rng(23);
    for (int i = 0; i < 10000; ++i)
        h.add(rng.uniform(0, 100));
    double p25 = h.percentileApprox(0.25);
    double p50 = h.percentileApprox(0.50);
    double p90 = h.percentileApprox(0.90);
    EXPECT_LE(p25, p50);
    EXPECT_LE(p50, p90);
    EXPECT_NEAR(p50, 50.0, 3.0);
}

TEST(StatsRegistry, IncSetGet)
{
    StatsRegistry reg;
    reg.inc("frames");
    reg.inc("frames", 2.0);
    reg.set("fps", 31.5);
    EXPECT_DOUBLE_EQ(reg.get("frames"), 3.0);
    EXPECT_DOUBLE_EQ(reg.get("fps"), 31.5);
    EXPECT_DOUBLE_EQ(reg.get("missing"), 0.0);
    EXPECT_TRUE(reg.has("fps"));
    EXPECT_FALSE(reg.has("missing"));
    reg.clear();
    EXPECT_FALSE(reg.has("fps"));
}

TEST(StatsRegistry, DumpSortedByName)
{
    StatsRegistry reg;
    reg.set("b", 2);
    reg.set("a", 1);
    std::string d = reg.dump();
    EXPECT_LT(d.find("a 1"), d.find("b 2"));
}

TEST(TablePrinter, AlignsColumns)
{
    TablePrinter t({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer-name", "2"});
    std::string s = t.str();
    EXPECT_NE(s.find("longer-name"), std::string::npos);
    EXPECT_NE(s.find("value"), std::string::npos);
    // Header separator line present.
    EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(TablePrinter, NumFormatsPrecision)
{
    EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
    EXPECT_EQ(TablePrinter::num(2.0, 0), "2");
}

TEST(ThreadPool, ParallelForCoversRange)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(0, hits.size(), [&](size_t i) { hits[i]++; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop)
{
    ThreadPool pool(2);
    std::atomic<int> calls{0};
    pool.parallelFor(5, 5, [&](size_t) { calls++; });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, NestedUseFromResults)
{
    // Sum of squares computed in parallel equals the closed form.
    ThreadPool pool(3);
    std::vector<long> sq(2001);
    pool.parallelFor(0, sq.size(), [&](size_t i) {
        sq[i] = static_cast<long>(i) * static_cast<long>(i);
    });
    long total = 0;
    for (long v : sq)
        total += v;
    long n = 2000;
    EXPECT_EQ(total, n * (n + 1) * (2 * n + 1) / 6);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock)
{
    // A worker calling parallelFor used to block on chunks that only
    // workers could drain (it *is* the drain); nested calls must run
    // inline and still cover the full range exactly once.
    ThreadPool pool(2);
    std::vector<std::atomic<int>> hits(64 * 16);
    pool.parallelFor(0, 64, [&](size_t i) {
        pool.parallelFor(0, 16,
                         [&](size_t j) { hits[i * 16 + j]++; });
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForChunksCoversRangeOnce)
{
    ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(777);
    pool.parallelForChunks(0, hits.size(), [&](size_t lo, size_t hi) {
        EXPECT_LT(lo, hi);
        for (size_t i = lo; i < hi; ++i)
            hits[i]++;
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ChunkCountScalesWithGrain)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.chunkCount(0, 100), 1u);
    EXPECT_EQ(pool.chunkCount(100, 100), 1u);
    EXPECT_EQ(pool.chunkCount(101, 100), 2u);
    EXPECT_EQ(pool.chunkCount(5, 1), 5u);
    // Capped at 4 chunks per thread (3 workers + the caller).
    EXPECT_EQ(pool.chunkCount(1000000, 100), 16u);
}

TEST(ThreadPool, RangeWithinOneGrainRunsInline)
{
    ThreadPool pool(3);
    int calls = 0;
    bool on_worker = true;
    pool.parallelForChunks(
        0, 500,
        [&](size_t lo, size_t hi) {
            EXPECT_EQ(lo, 0u);
            EXPECT_EQ(hi, 500u);
            on_worker = pool.onWorkerThread();
            ++calls;
        },
        500);
    EXPECT_EQ(calls, 1);
    EXPECT_FALSE(on_worker);
}

TEST(ThreadPool, DefaultSizeFollowsAffinityMask)
{
    // Pin this thread to one CPU it may already use, as taskset or a
    // cpuset would pin the process: the default pool must not start a
    // worker per host CPU to timeslice that one.
    cpu_set_t saved;
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    int cpu = 0;
    while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &saved))
        ++cpu;
    ASSERT_LT(cpu, CPU_SETSIZE);
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    const size_t pinned_size = ThreadPool().size();
    ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
    EXPECT_EQ(pinned_size, 1u);
}

TEST(ThreadPool, OnWorkerThreadDetection)
{
    // Membership is per pool: the main thread is never a worker, and a
    // worker of one pool must not claim membership of another.
    ThreadPool pool(2), other(1);
    EXPECT_FALSE(pool.onWorkerThread());
    std::atomic<int> cross_claims{0};
    pool.parallelFor(0, 64, [&](size_t) {
        if (other.onWorkerThread())
            cross_claims++;
    });
    EXPECT_EQ(cross_claims.load(), 0);
    EXPECT_FALSE(pool.onWorkerThread());
}

TEST(ThreadPool, RunsEveryTaskAndIdleWorkersSteal)
{
    // All 64 tasks pinned to queue 0 of a 4-worker pool: workers 1-3
    // can only make progress by stealing, and every task must still
    // run exactly once.
    ThreadPool pool(4);
    std::vector<int> ran(64, 0);
    for (size_t i = 0; i < ran.size(); ++i) {
        pool.postTo(0, [&ran, i] {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            ran[i] += 1; // distinct slots: no write conflicts
        });
    }
    pool.drain();
    for (size_t i = 0; i < ran.size(); ++i)
        EXPECT_EQ(1, ran[i]) << "task " << i;
    EXPECT_GT(pool.steals(), 0u);
}

TEST(ThreadPool, PausedPoolStagesWorkUntilStart)
{
    ThreadPool pool(2, /*start_paused=*/true);
    std::vector<int> ran(8, 0);
    for (size_t i = 0; i < ran.size(); ++i)
        pool.post([&ran, i] { ran[i] = 1; });
    // Workers exist but sleep until start(): nothing may have run.
    for (int r : ran)
        EXPECT_EQ(0, r);
    pool.start();
    pool.drain();
    for (int r : ran)
        EXPECT_EQ(1, r);
}

TEST(ThreadPool, DestructorRunsStagedTasks)
{
    // A paused pool destroyed with staged tasks still owes them an
    // execution (the fleet relies on this for teardown safety).
    std::vector<int> ran(4, 0);
    {
        ThreadPool pool(2, /*start_paused=*/true);
        for (size_t i = 0; i < ran.size(); ++i)
            pool.post([&ran, i] { ran[i] = 1; });
    }
    for (int r : ran)
        EXPECT_EQ(1, r);
}

TEST(ThreadPool, ForkJoinOnPausedPoolRunsOnCaller)
{
    // A paused pool cannot serve helper chunks; the caller claims every
    // chunk itself instead of waiting for workers that are asleep.
    ThreadPool pool(2, /*start_paused=*/true);
    std::vector<std::atomic<int>> hits(100);
    pool.parallelFor(0, hits.size(), [&](size_t i) { hits[i]++; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
    pool.start();
}

// ---------------------------------------------------------------------
// Annotated synchronization primitives (common/mutex.hh)
// ---------------------------------------------------------------------

TEST(MutexPrimitives, MutexLockAndCvLockProtectSharedState)
{
    Mutex mutex;
    std::condition_variable cv;
    int value = 0;
    bool ready = false;

    std::thread producer([&] {
        MutexLock lock(mutex);
        value = 42;
        ready = true;
        cv.notify_one();
    });
    {
        CvLock lock(mutex);
        while (!ready)
            lock.wait(cv);
        EXPECT_EQ(value, 42);
    }
    producer.join();
}

TEST(MutexPrimitives, TryLockReportsContention)
{
    Mutex mutex;
    mutex.lock();
    std::thread other([&] { EXPECT_FALSE(mutex.tryLock()); });
    other.join();
    mutex.unlock();
    ASSERT_TRUE(mutex.tryLock());
    mutex.unlock();
}

TEST(ThreadAffinity, SameThreadUseIsQuiet)
{
    ThreadAffinity affinity;
    affinity.assertHeld(); // binds to this thread
    affinity.assertHeld(); // re-checks quietly
}

TEST(ThreadAffinity, RebindHandsOffToAnotherThread)
{
    ThreadAffinity affinity;
    affinity.assertHeld();
    affinity.rebind(); // documented hand-off point
    std::thread other([&] { affinity.assertHeld(); });
    other.join();
}

TEST(ThreadAffinityDeathTest, CrossThreadUsePanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ThreadAffinity affinity;
    affinity.assertHeld();
    EXPECT_DEATH(
        {
            std::thread other([&] { affinity.assertHeld(); });
            other.join();
        },
        "thread-affine state");
}

} // namespace rtgs
