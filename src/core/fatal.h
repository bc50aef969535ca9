// Release-safe fatal checks.
//
// A caller bug with no sane fallback (an index past a table, a config that
// would divide by zero) must stop the program in every build mode, not
// through an assert that NDEBUG compiles out. fatal() prints one line to
// stderr and aborts; death tests match on that line.
#pragma once

namespace ms {

/// Prints the printf-formatted message and a newline to stderr, then
/// aborts.
[[noreturn]] void fatal(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace ms

/// Calls ms::fatal(...) when `cond` is false, in every build mode. The
/// message arguments are evaluated only on failure.
#define MS_CHECK(cond, ...)                 \
  do {                                      \
    if (!(cond)) ::ms::fatal(__VA_ARGS__);  \
  } while (0)
