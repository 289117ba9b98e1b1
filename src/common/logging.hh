/**
 * @file
 * gem5-style status and error reporting.
 *
 * panic() is for internal invariant violations (bugs in RTGS itself) and
 * aborts; fatal() is for unrecoverable user/configuration errors and exits
 * with an error code; warn()/inform() report conditions without stopping.
 */

#ifndef RTGS_COMMON_LOGGING_HH
#define RTGS_COMMON_LOGGING_HH

#include <cstdarg>
#include <string>

namespace rtgs
{

/** Print an informational message (printf-style). */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a warning about questionable but survivable conditions. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user-level error (bad config, bad input) and
 * exit(1).
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an internal invariant violation (an RTGS bug) and abort().
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace rtgs

/**
 * Assert a condition that only fails on an internal bug; panics with the
 * stringified condition and an optional message.
 */
#define rtgs_assert(cond, ...)                                              \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::rtgs::panic("assertion '%s' failed at %s:%d %s", #cond,       \
                          __FILE__, __LINE__, "" __VA_ARGS__);              \
        }                                                                   \
    } while (0)

#endif // RTGS_COMMON_LOGGING_HH
