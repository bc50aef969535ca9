#include "diag/artifact.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>

#include "core/json.h"

namespace ms::diag {

bool write_text_file(const std::string& path, const std::string& content) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

bool read_text_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

namespace {

/// The last number a line gave one key, and the byte offset where it began.
struct NumberField {
  double value = 0;
  std::size_t at = 0;
};

/// Truncates toward zero, as a static_cast does, when the result fits T;
/// NaN, infinities and out-of-range values do not.
template <class T>
bool fits(double v, T& out) {
  constexpr double lo = static_cast<double>(std::numeric_limits<T>::min());
  constexpr double hi = -lo;  // 2^31 or 2^63, exactly
  const double whole = std::trunc(v);
  if (!(whole >= lo && whole < hi)) return false;
  out = static_cast<T>(whole);
  return true;
}

}  // namespace

bool parse_trace_jsonl(const std::string& text, std::vector<TraceSpan>& out,
                       std::string* error) {
  std::vector<TraceSpan> spans;
  spans.reserve(static_cast<std::size_t>(
      std::count(text.begin(), text.end(), '\n') + 1));
  std::string type;
  std::size_t line_no = 0;
  auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no) + ": " + what;
    }
    return false;
  };
  for (std::size_t begin = 0; begin < text.size();) {
    const std::size_t nl = text.find('\n', begin);
    const std::size_t end = nl == std::string::npos ? text.size() : nl;
    const std::string_view line(text.data() + begin, end - begin);
    begin = end + 1;
    ++line_no;
    if (line.empty()) continue;
    json::Scanner sc(line);
    TraceSpan s;
    bool is_span = false;
    NumberField rank, start, finish;
    auto read_text = [&](std::string& dest) {
      dest.clear();
      if (sc.next() != json::Scanner::Kind::kString) return sc.skip_value();
      return sc.string(dest);
    };
    auto read_number = [&](NumberField& f) {
      f.value = 0;
      if (sc.next() != json::Scanner::Kind::kNumber) return sc.skip_value();
      f.at = sc.offset();
      return sc.number(f.value);
    };
    auto member = [&](std::string_view key) {
      switch (key.size()) {  // the fixed keys differ in length or content
        case 3:
          if (key == "tag") return read_text(s.tag);
          break;
        case 4:
          if (key == "type") {
            const bool ok = read_text(type);
            is_span = type == "span";
            return ok;
          }
          if (key == "rank") return read_number(rank);
          if (key == "name") return read_text(s.name);
          break;
        case 6:
          if (key == "end_ns") return read_number(finish);
          if (key == "detail") return read_text(s.detail);
          break;
        case 8:
          if (key == "start_ns") return read_number(start);
          break;
      }
      return sc.skip_value();
    };
    if (sc.next() != json::Scanner::Kind::kObject) {
      sc.fail("expected a JSON object");
      return fail(sc.error());
    }
    if (!sc.object(member)) {
      sc.fail("malformed JSON");
      return fail(sc.error());
    }
    if (!sc.at_end()) {
      sc.fail("trailing characters");
      return fail(sc.error());
    }
    if (!is_span) continue;  // metrics mixed into the export
    auto out_of_range = [&](const char* key, const NumberField& f) {
      return fail(std::string(key) + " out of range at byte " +
                  std::to_string(f.at));
    };
    if (!fits(rank.value, s.rank)) return out_of_range("rank", rank);
    if (!fits(start.value, s.start)) return out_of_range("start_ns", start);
    if (!fits(finish.value, s.end)) return out_of_range("end_ns", finish);
    spans.push_back(std::move(s));
  }
  out = std::move(spans);
  return true;
}

}  // namespace ms::diag
