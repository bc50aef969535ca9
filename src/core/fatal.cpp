#include "core/fatal.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace ms {

void fatal(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
  std::abort();
}

}  // namespace ms
