/**
 * @file
 * rtgs_perfbench: runs one benchmark workload and prints, on stdout,
 *
 *   host {fingerprint}
 *   info {run details: sample counts, output hash, ...}
 *   e2e {end-to-end figures of a traced run}       (--trace 1 only)
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * The last line carries the end-to-end metrics (--trace 0) or the
 * per-layer metrics (--trace 1). Exit status is nonzero when a
 * correctness check failed. perfbench/run.py builds and drives this.
 *
 *   rtgs_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--trace-out FILE]
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "host.hh"
#include "workloads.hh"

namespace
{

using namespace perfbench;

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "error: %s\nusage: rtgs_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n",
                 msg);
    return 2;
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string s = "{";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", metrics[i].name.c_str(),
                      metrics[i].value, metrics[i].unit.c_str());
        s += buf;
    }
    return s + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const char *val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = val;
            have_workload = true;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(val, &end, 10);
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(val, &end);
            if (!(opt.seconds > 0))
                return usage("--seconds must be positive");
        } else if (arg == "--trace") {
            if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0)
                return usage("--trace takes 0 or 1");
            opt.trace = val[0] == '1';
        } else if (arg == "--trace-out") {
            opt.tracePath = val;
        } else {
            return usage(("unknown option " + arg).c_str());
        }
        if (end && *end)
            return usage(("malformed number for " + arg).c_str());
    }
    if (!have_workload)
        return usage("--workload is required");
    bool known = false;
    for (const std::string &w : workloadNames())
        known = known || w == opt.workload;
    if (!known)
        return usage(("unknown workload " + opt.workload).c_str());

    const HostFingerprint host = fingerprintHost();
    std::printf("host %s\n", host.json().c_str());
    std::fflush(stdout);

    // Every workload runs on one CPU (its thread pools keep one thread
    // per vCPU): on a shared host the cores a process gets change from
    // minute to minute, and unpinned fps swung by 2x between runs.
    const int pinned_cpu = pinToOneCpu();
    if (pinned_cpu < 0) {
        std::fprintf(stderr, "error: cannot pin to one CPU\n");
        return 2;
    }

    RunResult result = runWorkload(opt);
    result.info.push_back("\"pinned_cpu\": " + std::to_string(pinned_cpu));

    const std::vector<Metric> &metrics =
        opt.trace ? result.perLayer : result.endToEnd;
    for (const Metric &m : metrics)
        if (!std::isfinite(m.value))
            result.errors.push_back("metric " + m.name + " is not finite");
    if (result.attempted == 0)
        result.errors.push_back("no frames attempted");

    std::string info = "{\"workload\": \"" + opt.workload + "\"";
    for (const std::string &kv : result.info)
        info += ", " + kv;
    info += "}";
    std::printf("info %s\n", info.c_str());
    if (opt.trace) {
        // The traced run's own end-to-end figures, for the overhead.
        std::string e2e = "{";
        for (size_t i = 0; i < result.endToEnd.size(); ++i) {
            char buf[128];
            std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g", i ? ", " : "",
                          result.endToEnd[i].name.c_str(),
                          result.endToEnd[i].value);
            e2e += buf;
        }
        std::printf("e2e %s}\n", e2e.c_str());
    }
    for (const std::string &e : result.errors)
        std::fprintf(stderr, "correctness check failed: %s\n", e.c_str());

    const bool correct = result.errors.empty();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed),
                metricsJson(metrics).c_str());
    return correct ? 0 : 1;
}
