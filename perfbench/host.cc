#include "host.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include <sched.h>

#include "common/cpu_features.hh"

namespace perfbench
{

namespace
{

/** A fixed amount of scalar work the optimiser cannot elide. */
void
spin(volatile double *sink)
{
    double x = 1.0;
    for (int i = 0; i < 20'000'000; ++i)
        x = x * 1.0000001 + 1e-9;
    *sink = x;
}

double
timeSpinners(unsigned threads)
{
    std::vector<double> sinks(threads);
    const double t0 = nowSeconds();
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back(spin, &sinks[t]);
    for (auto &th : pool)
        th.join();
    return nowSeconds() - t0;
}

} // namespace

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

HostFingerprint
fingerprintHost()
{
    HostFingerprint fp;
    fp.nproc = std::max(1u, std::thread::hardware_concurrency());
    const double one = timeSpinners(1);
    const double all = timeSpinners(fp.nproc);
    fp.effectiveCores = all > 0 ? fp.nproc * one / all : 0;
    fp.simdLevel = rtgs::simdLevelName(rtgs::activeSimdLevel());
    fp.buildType = PERFBENCH_BUILD_TYPE;
    fp.compiler = PERFBENCH_COMPILER;
    return fp;
}

std::string
HostFingerprint::json() const
{
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"nproc\": %u, \"effective_cores\": %.2f, "
                  "\"simd\": \"%s\", \"build_type\": \"%s\", "
                  "\"compiler\": \"%s\"}",
                  nproc, effectiveCores, simdLevel.c_str(),
                  buildType.c_str(), compiler.c_str());
    return buf;
}

int
pinToOneCpu()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
        return -1;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
        if (!CPU_ISSET(cpu, &allowed))
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
    }
    return -1;
}

double
peakRssMb()
{
    std::FILE *status = std::fopen("/proc/self/status", "r");
    if (!status)
        return 0;
    char line[256];
    double mb = 0;
    while (std::fgets(line, sizeof(line), status)) {
        long kb = 0;
        if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) {
            mb = static_cast<double>(kb) / 1024.0;
            break;
        }
    }
    std::fclose(status);
    return mb;
}

} // namespace perfbench
