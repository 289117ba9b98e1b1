/**
 * @file
 * In-memory span recorder for the traced run. Spans are recorded by the
 * benchmark around its own calls into the SLAM stack (not inside the
 * library) and written once, at the end of the run, as Chrome
 * trace-event JSON (viewable in Perfetto or chrome://tracing).
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

struct Span
{
    std::string name;
    double start = 0; //!< seconds, steady clock
    double end = 0;
    int64_t parent = -1; //!< index of the enclosing span, -1 for a root
    std::string request; //!< "session:frame"
    uint32_t lane = 0;   //!< rendered as the trace's thread id
};

/** Thread-safe append-only span log. */
class SpanLog
{
  public:
    /** Record a finished span; returns its index (for children). */
    int64_t add(Span span);

    /** Start a span whose children are recorded before it ends. */
    int64_t open(std::string name, double start, int64_t parent,
                 std::string request, uint32_t lane);

    /** End a span started with open(). */
    void close(int64_t id, double end);

    size_t size() const;

    /** Write every span as Chrome trace-event JSON; false on I/O error. */
    bool writeChromeJson(const std::string &path) const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** "session:frame" request id. */
std::string requestId(uint32_t session, uint32_t frame);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
