#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace rtgs
{

namespace
{

std::string
vformat(const char *fmt, va_list ap)
{
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    if (n < 0) {
        va_end(ap2);
        return "<format error>";
    }
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
    va_end(ap2);
    return std::string(buf.data(), static_cast<size_t>(n));
}

void
emit(const char *tag, const char *fmt, va_list ap)
{
    std::string msg = vformat(fmt, ap);
    std::fprintf(stderr, "%s%s\n", tag, msg.c_str());
}

} // namespace

void
inform(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    emit("info: ", fmt, ap);
    va_end(ap);
}

void
warn(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    emit("warn: ", fmt, ap);
    va_end(ap);
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    emit("fatal: ", fmt, ap);
    va_end(ap);
    std::exit(1);
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    emit("panic: ", fmt, ap);
    va_end(ap);
    std::abort();
}

} // namespace rtgs
