// Fixture: unchecked number conversions in a tool (tools/ is scanned too).
#include <cstdlib>

namespace fixture {

int gpus(const char* v) {
  return std::atoi(v);  // fires unchecked-number
}

double budget(const char* v) {
  return atof(v);  // fires unchecked-number
}

unsigned long long seed(const char* v) {
  return std::strtoull(v,  // fires unchecked-number: the call spans lines
                       nullptr, 0);
}

long checked(const char* v) {
  char* end = nullptr;
  const long n = std::strtol(v, &end, 0);  // end pointer checked: silent
  return *end == '\0' ? n : -1;
}

int waived(const char* v) {
  // ms-lint: allow(unchecked-number): fixture — waiver honored, no finding
  return std::atoi(v);
}

}  // namespace fixture
