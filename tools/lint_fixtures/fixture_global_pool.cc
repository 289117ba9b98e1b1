// det-lint-path: bench/bench_bad_example.cc
// det-lint-expect: global-pool
//
// A bench reaching for a process-wide thread pool: there is none.
// Benches, examples and tests own a ThreadPool and hand it to the
// pipeline explicitly, so what they time or check is the pool they
// chose, not one shared behind their back.
#include "common/thread_pool.hh"

namespace rtgs
{

void
timeSomething()
{
    globalPool().post([] {});
}

} // namespace rtgs
