// Fixture: core/cli.* is the exempt home of number parsing.
#include <cstdlib>

namespace fixture {

double exempt(const char* v) {
  return std::strtod(v, nullptr);  // exempt file: silent
}

}  // namespace fixture
