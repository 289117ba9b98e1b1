/**
 * @file
 * The benchmark's three workloads (README.md explains each choice) and
 * the metric record they fill.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Chrome trace-event output of the traced run. */
    std::string tracePath;
};

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
};

struct RunResult
{
    /** Correctness-check failures; empty means correct. */
    std::vector<std::string> errors;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;
    /** Extra `"key": value` JSON members for the info line. */
    std::vector<std::string> info;
};

/** Names accepted by runWorkload. */
const std::vector<std::string> &workloadNames();

/** Run one workload; errors are reported in RunResult::errors. */
RunResult runWorkload(const RunOptions &options);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
