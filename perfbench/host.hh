/**
 * @file
 * Host fingerprint stamped on every result: results taken on different
 * fingerprints are never compared.
 */

#ifndef PERFBENCH_HOST_HH
#define PERFBENCH_HOST_HH

#include <string>

namespace perfbench
{

struct HostFingerprint
{
    unsigned nproc = 0;
    /** nproc threads spinning a fixed loop vs one thread spinning it:
     *  nproc * t(1) / t(nproc). 1 means the threads timeshare a single
     *  core, nproc means they really ran in parallel. */
    double effectiveCores = 0;
    std::string simdLevel;
    std::string buildType;
    std::string compiler;

    /** One-line JSON object. */
    std::string json() const;
};

/** Measure the fingerprint (the spin probe takes ~0.2 s). */
HostFingerprint fingerprintHost();

/**
 * Restrict this process (and every thread it creates later) to one CPU,
 * the highest-numbered one it may run on. Returns that CPU, or -1 when
 * the affinity cannot be changed.
 */
int pinToOneCpu();

/** Peak resident set size of this process (VmHWM) in MB; 0 if unknown. */
double peakRssMb();

/** Seconds on the steady clock since an arbitrary epoch. */
double nowSeconds();

} // namespace perfbench

#endif // PERFBENCH_HOST_HH
