#include "trace.hh"

#include <algorithm>
#include <cstdio>

namespace perfbench
{

int64_t
SpanLog::add(Span span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    return static_cast<int64_t>(spans_.size()) - 1;
}

int64_t
SpanLog::open(std::string name, double start, int64_t parent,
              std::string request, uint32_t lane)
{
    return add({std::move(name), start, start, parent, std::move(request),
                lane});
}

void
SpanLog::close(int64_t id, double end)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(id)].end = end;
}

size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

bool
SpanLog::writeChromeJson(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        return false;
    double origin = spans_.empty() ? 0 : spans_.front().start;
    for (const Span &s : spans_)
        origin = std::min(origin, s.start);
    std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(out,
                     "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %zu, \"parent\": %lld, "
                     "\"request\": \"%s\"}}%s\n",
                     s.name.c_str(), s.lane, (s.start - origin) * 1e6,
                     (s.end - s.start) * 1e6, i,
                     static_cast<long long>(s.parent), s.request.c_str(),
                     i + 1 == spans_.size() ? "" : ",");
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
}

std::string
requestId(uint32_t session, uint32_t frame)
{
    return std::to_string(session) + ":" + std::to_string(frame);
}

} // namespace perfbench
