// Pins of the post-mortem path's semantics, recorded before the span JSONL
// reader became a single pass over json::Scanner, span attributes became a
// typed view and the dependency graph moved to integer keys:
//
//  * TraceReaderDiff — diag::parse_trace_jsonl against a verbatim copy of
//    the route it replaced (the recursive-descent DOM parser json::parse
//    had then, one parse per std::getline line, then the same field reads)
//    over seeded mutations of an engine export and of
//    tests/golden/calib/self_trace.jsonl. The same corpus also holds
//    json::parse itself to that old parser, value for value and error for
//    error, for its DOM users (Chrome ingest, ledger, flight recorder).
//  * SpanAttrsDiff — every typed SpanAttrs lookup against a copy of the
//    std::map<std::string, std::string> version and of calib's size and
//    group-size readers, on seeded detail strings and on every detail the
//    engine and the golden traces carry.
//  * EdgePin — each node's sorted (from, kind) set of incoming edges,
//    digested, on the seven perfbench trace_diagnose fixtures (with their
//    blame and calibration digests) and the two calib golden traces.
//
// The mutated texts and details double as seed corpora for a fuzzer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "calib/calibrate_cli.h"
#include "calib/fit.h"
#include "calib/ingest.h"
#include "check/digest.h"
#include "core/json.h"
#include "core/rng.h"
#include "diag/artifact.h"
#include "diag/blame.h"
#include "diag/depgraph.h"
#include "engine/job.h"
#include "telemetry/exporters.h"
#include "telemetry/trace.h"

namespace ms {
namespace {

// ------------------------------------------------- the old DOM route (copy)

/// json::parse's recursive-descent parser as it stood before the lexer
/// moved into json::Scanner, kept verbatim as the reference.
class LegacyParser {
 public:
  static constexpr int kMaxDepth = 256;
  explicit LegacyParser(const std::string& text) : s_(text) {}

  bool parse(json::Value& out) {
    if (!value(out)) return fail("malformed JSON");
    skip_ws();
    return pos_ == s_.size() || fail("trailing characters");
  }
  const std::string& error() const { return error_; }

 private:
  bool fail(const char* what) {
    if (error_.empty()) {
      error_ = std::string(what) + " at byte " + std::to_string(pos_);
    }
    return false;
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool literal(const char* word, json::Value& out, json::Value::Kind kind,
               bool b) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    }
    out.kind = kind;
    out.boolean = b;
    return true;
  }
  bool string_body(std::string& out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) return false;
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return false;
          const std::string hex = s_.substr(pos_, 4);
          pos_ += 4;
          char* end = nullptr;
          const long code = std::strtol(hex.c_str(), &end, 16);
          if (end != hex.c_str() + 4) return false;
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return false;
      }
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }
  bool word(const char* w) {
    for (const char* p = w; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    }
    return true;
  }
  bool number_body(json::Value& out) {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    if (pos_ < s_.size() && (s_[pos_] == 'N' || s_[pos_] == 'I')) {
      const bool neg = s_[start] == '-';
      const bool is_nan = s_[pos_] == 'N';
      if (!(is_nan ? word("NaN") : word("Infinity"))) return false;
      out.kind = json::Value::Kind::kNumber;
      out.number = is_nan ? std::numeric_limits<double>::quiet_NaN()
                          : (neg ? -std::numeric_limits<double>::infinity()
                                 : std::numeric_limits<double>::infinity());
      return true;
    }
    bool digits = false;
    auto eat_digits = [&] {
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
        digits = true;
      }
    };
    eat_digits();
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      eat_digits();
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
      eat_digits();
    }
    if (!digits) return false;
    const std::string token = s_.substr(start, pos_ - start);
    char* end = nullptr;
    out.kind = json::Value::Kind::kNumber;
    out.number = std::strtod(token.c_str(), &end);
    return end == token.c_str() + token.size();
  }
  bool value(json::Value& out) {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == 'n') return literal("null", out, json::Value::Kind::kNull, false);
    if (c == 't') return literal("true", out, json::Value::Kind::kBool, true);
    if (c == 'f') return literal("false", out, json::Value::Kind::kBool, false);
    if (c == '"') {
      out.kind = json::Value::Kind::kString;
      return string_body(out.str);
    }
    if (c == '[' || c == '{') {
      if (depth_ == kMaxDepth) return fail("nesting deeper than 256 levels");
      ++depth_;
      const bool ok = c == '[' ? array(out) : object(out);
      --depth_;
      return ok;
    }
    return number_body(out);
  }
  bool array(json::Value& out) {
    ++pos_;
    out.kind = json::Value::Kind::kArray;
    out.array = std::make_shared<std::vector<json::Value>>();
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      json::Value element;
      if (!value(element)) return false;
      out.array->push_back(std::move(element));
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool object(json::Value& out) {
    ++pos_;
    out.kind = json::Value::Kind::kObject;
    out.object = std::make_shared<std::map<std::string, json::Value>>();
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!string_body(key)) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      json::Value element;
      if (!value(element)) return false;
      (*out.object)[key] = std::move(element);
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

/// One span line as the old route read it, before the narrowing casts.
struct RawSpan {
  double rank = 0, start = 0, end = 0;
  std::string name, tag, detail;
};

/// The old parse_trace_jsonl: getline, parse, skip non-span lines, read
/// the fixed keys with json::Value's typed lookups.
bool dom_read(const std::string& text, std::vector<RawSpan>& out) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    json::Value v;
    if (!LegacyParser(line).parse(v) || !v.is_object()) return false;
    if (v.text("type") != "span") continue;
    out.push_back({v.num("rank"), v.num("start_ns"), v.num("end_ns"),
                   v.text("name"), v.text("tag"), v.text("detail")});
  }
  return true;
}

bool same_value(const json::Value& a, const json::Value& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case json::Value::Kind::kNull: return true;
    case json::Value::Kind::kBool: return a.boolean == b.boolean;
    case json::Value::Kind::kNumber:
      return a.number == b.number ||
             (std::isnan(a.number) && std::isnan(b.number));
    case json::Value::Kind::kString: return a.str == b.str;
    case json::Value::Kind::kArray:
      if (a.size() != b.size()) return false;
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (!same_value(a[i], b[i])) return false;
      }
      return true;
    case json::Value::Kind::kObject: {
      if (a.size() != b.size()) return false;
      auto ia = a.object->begin();
      for (auto ib = b.object->begin(); ib != b.object->end(); ++ia, ++ib) {
        if (ia->first != ib->first || !same_value(ia->second, ib->second)) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

// ------------------------------------------------------------ the corpus

engine::JobConfig small_job() {
  engine::JobConfig cfg;
  cfg.model = model::config_13b();
  cfg.model.layers = 24;
  cfg.par.tp = 8;
  cfg.par.pp = 4;
  cfg.par.vpp = 2;
  cfg.par.dp = 2;
  cfg.global_batch = 16;
  cfg.ops = model::OperatorProfile::megascale();
  cfg.overlap = engine::OverlapOptions::megascale();
  return cfg;
}

std::vector<diag::TraceSpan> traced(engine::JobConfig cfg) {
  telemetry::Tracer tracer;
  cfg.tracer = &tracer;
  engine::simulate_iteration(cfg);
  return tracer.spans();
}

std::string golden_text() {
  std::string text;
  EXPECT_TRUE(diag::read_text_file(
      std::string(MS_GOLDEN_DIR) + "/calib/self_trace.jsonl", text));
  return text;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

template <class T>
const T& pick(Rng& rng, const std::vector<T>& v) {
  return v[rng.uniform_index(v.size())];
}

std::string number_token(Rng& rng) {
  static const std::vector<std::string> kTokens = {
      "0",     "-0",   "7",          "+3",         "12.75",      "-5.5",
      "1e3",   "2E-2", "NaN",        "-NaN",       "Infinity",   "-Infinity",
      "3e9",   "-3e9", "2147483647", "2147483648", "-2147483648",
      "-2147483649",   "1e19",       "-1e19",      "9007199254740993",
      "1e400", "00012", "1.",        ".5",         "1e",         "--1"};
  if (rng.chance(0.5)) {
    return std::to_string(rng.uniform_int(-1000000000000, 1000000000000));
  }
  return pick(rng, kTokens);
}

std::string json_value(Rng& rng, int depth) {
  switch (rng.uniform_index(depth > 0 ? 6 : 4)) {
    case 0: return number_token(rng);
    case 1: return pick(rng, std::vector<std::string>{"null", "true", "false",
                                                      "nul", "tru"});
    case 2:
      return "\"" + pick(rng, std::vector<std::string>{
                              "span", "fwd", "", "a\\\"b", "\\u0041\\n",
                              "\\ud83d", "\\u00e9", "\\x", "s=1 p=f"}) +
             "\"";
    case 3: return "\"span\"";
    case 4: {
      std::string out = "[";
      const auto n = rng.uniform_index(3);
      for (std::uint64_t i = 0; i < n; ++i) {
        if (i > 0) out += ",";
        out += json_value(rng, depth - 1);
      }
      return out + "]";
    }
    default: {
      std::string out = "{";
      const auto n = rng.uniform_index(3);
      for (std::uint64_t i = 0; i < n; ++i) {
        if (i > 0) out += ",";
        out += "\"k" + std::to_string(i) + "\":" + json_value(rng, depth - 1);
      }
      return out + "}";
    }
  }
}

/// Re-renders one span line with its keys reordered, some duplicated with
/// another value, extra (nested) keys mixed in, and odd values swapped in.
std::string reshape(Rng& rng, const diag::TraceSpan& s) {
  std::vector<std::pair<std::string, std::string>> kv = {
      {"type", "\"span\""},
      {"rank", std::to_string(s.rank)},
      {"name", "\"" + json::escape(s.name) + "\""},
      {"tag", "\"" + json::escape(s.tag) + "\""},
      {"start_ns", std::to_string(s.start)},
      {"end_ns", std::to_string(s.end)},
      {"detail", "\"" + json::escape(s.detail) + "\""}};
  for (auto& [key, value] : kv) {
    if (rng.chance(0.08)) value = json_value(rng, 2);
  }
  const std::vector<std::string> keys = {"type", "rank", "name", "tag",
                                         "start_ns", "end_ns", "detail"};
  const auto extra = rng.uniform_index(3);
  for (std::uint64_t i = 0; i < extra; ++i) {
    if (rng.chance(0.5)) {
      kv.push_back({pick(rng, keys), json_value(rng, 2)});  // a duplicate
    } else {
      kv.push_back({"x" + std::to_string(i), json_value(rng, 3)});
    }
  }
  rng.shuffle(kv);
  std::string line = "{";
  for (std::size_t i = 0; i < kv.size(); ++i) {
    if (i > 0) line += rng.chance(0.1) ? " , " : ",";
    line += "\"" + kv[i].first + "\"" + (rng.chance(0.1) ? " : " : ":") +
            kv[i].second;
  }
  return line + "}";
}

/// Escapes in the detail: a \uXXXX, a control escape or a quoted quote.
void escape_detail(Rng& rng, std::string& line) {
  const std::size_t at = line.find("\"detail\":\"");
  if (at == std::string::npos) return;
  const std::size_t pos = at + 10;
  line.insert(pos, pick(rng, std::vector<std::string>{
                             "\\u0020", "\\t", "\\\"", "\\\\", "\\u003d",
                             "\\u0000", "\\/", "\\u00ff", "\\q", "\\u12"}));
}

void mutate_bytes(Rng& rng, std::string& text) {
  static const std::string kBytes = "{}[]\":,\\ \t\r\n0123456789-+.eENIa";
  if (text.empty()) return;
  switch (rng.uniform_index(4)) {
    case 0:  // flip one byte
      text[rng.uniform_index(text.size())] =
          rng.chance(0.8) ? kBytes[rng.uniform_index(kBytes.size())]
                          : static_cast<char>(rng.uniform_index(256));
      break;
    case 1:  // truncate
      text.resize(rng.uniform_index(text.size()));
      break;
    case 2:  // insert a byte
      text.insert(text.begin() + static_cast<std::ptrdiff_t>(
                                     rng.uniform_index(text.size() + 1)),
                  kBytes[rng.uniform_index(kBytes.size())]);
      break;
    default:  // delete a byte
      text.erase(text.begin() +
                 static_cast<std::ptrdiff_t>(rng.uniform_index(text.size())));
      break;
  }
}

/// A window of `base` lines, reshaped and mutated with seed `seed`.
std::string mutant(const std::vector<std::string>& base,
                   const std::vector<diag::TraceSpan>& spans,
                   std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t len = 1 + rng.uniform_index(10);
  const std::size_t first = rng.uniform_index(base.size() - len);
  std::string text;
  for (std::size_t i = first; i < first + len; ++i) {
    std::string line = base[i];
    if (rng.chance(0.3)) line = reshape(rng, spans[i]);
    if (rng.chance(0.15)) escape_detail(rng, line);
    if (rng.chance(0.05)) line = "{\"type\":\"counter\",\"value\":" +
                                 json_value(rng, 1) + "}";
    text += line;
    if (rng.chance(0.1)) text += '\r';  // CRLF line ends
    text += '\n';
    if (rng.chance(0.05)) text += rng.chance(0.5) ? "\n" : " \t\n";
  }
  if (rng.chance(0.1)) text.pop_back();  // no final newline
  const auto flips = rng.chance(0.5) ? 0 : 1 + rng.uniform_index(3);
  for (std::uint64_t i = 0; i < flips; ++i) mutate_bytes(rng, text);
  return text;
}

bool fits_int(double v) {
  return std::trunc(v) >= -2147483648.0 && std::trunc(v) < 2147483648.0;
}
bool fits_time(double v) {
  return std::trunc(v) >= -9223372036854775808.0 &&
         std::trunc(v) < 9223372036854775808.0;
}

struct Tally {
  int rejected = 0, out_of_range = 0, accepted = 0, spans = 0;
};

void expect_same_as_dom(const std::string& text, Tally& tally) {
  std::vector<RawSpan> want;
  const bool dom_ok = dom_read(text, want);
  std::vector<diag::TraceSpan> got;
  std::string error;
  const bool ok = diag::parse_trace_jsonl(text, got, &error);
  if (!dom_ok) {
    ++tally.rejected;
    EXPECT_FALSE(ok) << "accepted what the DOM route rejects:\n" << text;
    return;
  }
  bool in_range = true;
  for (const auto& w : want) {
    in_range = in_range && fits_int(w.rank) && fits_time(w.start) &&
               fits_time(w.end);
  }
  if (!in_range) {
    ++tally.out_of_range;
    EXPECT_FALSE(ok) << text;
    EXPECT_NE(error.find("out of range at byte"), std::string::npos) << error;
    return;
  }
  ++tally.accepted;
  ASSERT_TRUE(ok) << error << "\n" << text;
  ASSERT_EQ(got.size(), want.size()) << text;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ++tally.spans;
    EXPECT_EQ(got[i].rank, static_cast<int>(want[i].rank)) << text;
    EXPECT_EQ(got[i].start, static_cast<TimeNs>(want[i].start)) << text;
    EXPECT_EQ(got[i].end, static_cast<TimeNs>(want[i].end)) << text;
    EXPECT_EQ(got[i].name, want[i].name) << text;
    EXPECT_EQ(got[i].tag, want[i].tag) << text;
    EXPECT_EQ(got[i].detail, want[i].detail) << text;
  }
}

/// json::parse against the old parser on every line of `text`.
void expect_dom_unchanged(const std::string& text) {
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    json::Value want, got;
    LegacyParser legacy(line);
    const bool legacy_ok = legacy.parse(want);
    std::string error;
    const bool ok = json::parse(line, got, &error);
    ASSERT_EQ(ok, legacy_ok) << line;
    if (ok) {
      EXPECT_TRUE(same_value(got, want)) << line;
    } else {
      EXPECT_EQ(error, legacy.error()) << line;
    }
  }
}

void run_corpus(const std::vector<diag::TraceSpan>& spans,
                const std::string& text, std::uint64_t seed0, int cases) {
  const std::vector<std::string> base = lines_of(text);
  ASSERT_EQ(base.size(), spans.size());
  Tally tally;
  expect_same_as_dom(text, tally);
  for (int k = 0; k < cases; ++k) {
    const std::string m = mutant(base, spans, seed0 + static_cast<std::uint64_t>(k));
    expect_same_as_dom(m, tally);
    expect_dom_unchanged(m);
  }
  // The corpus reaches every outcome, not just the happy path.
  EXPECT_GT(tally.rejected, cases / 10);
  EXPECT_GT(tally.out_of_range, cases / 500);
  EXPECT_GT(tally.accepted, cases / 4);
}

TEST(TraceReaderDiff, AgreesWithTheDomRouteOnMutatedEngineExports) {
  const auto spans = traced(small_job());
  run_corpus(spans, telemetry::jsonl_spans(spans), 0x5eed0000, 8000);
}

TEST(TraceReaderDiff, AgreesWithTheDomRouteOnMutatedGoldenTrace) {
  const std::string text = golden_text();
  std::vector<diag::TraceSpan> spans;
  ASSERT_TRUE(diag::parse_trace_jsonl(text, spans));
  run_corpus(spans, text, 0x60d00000, 8000);
}

TEST(TraceReaderDiff, HandPickedEdgeCases) {
  const std::string span = R"({"type":"span","rank":2,"name":"n","start_ns":1,"end_ns":2})";
  const std::vector<std::string> cases = {
      // duplicate keys: the last one wins, whatever its kind
      R"({"type":"span","rank":1,"rank":"x","name":"a","name":5})",
      R"({"type":"span","type":"metric","rank":1})",
      R"({"type":"metric","type":"span","rank":1.9})",
      // a type that is not the string "span" skips the line
      R"({"type":["span"],"rank":NaN})",
      R"({"rank":1})",
      // NaN/Infinity tokens are tokens; out of range only matters on spans
      R"({"type":"span","rank":-Infinity})",
      R"({"type":"gauge","rank":NaN,"start_ns":Infinity})",
      // \r before the newline, blank lines, whitespace-only lines
      span + "\r\n\n" + span,
      span + "\n \n" + span,
      span + "\n\r\n",
      "\n\n" + span + "\n",
      // nesting: 256 levels including the line's object, then 257
      R"({"type":"span","x":)" + std::string(255, '[') + std::string(255, ']') + "}",
      R"({"type":"span","x":)" + std::string(256, '[') + std::string(256, ']') + "}",
      // escapes in keys and values
      R"({"type":"span","name":"a\"b","detail":"s=1\tp=f"})",
      R"({"type":"span","detail":"\ud83d\u0000"})",
      // not objects, trailing bytes, truncation
      "[1,2]", "\"span\"", span + " x", span.substr(0, 30), "{}", "{,}",
  };
  Tally tally;
  for (const auto& text : cases) {
    expect_same_as_dom(text, tally);
    expect_dom_unchanged(text);
  }
  EXPECT_GT(tally.rejected, 0);
  EXPECT_GT(tally.out_of_range, 0);
  EXPECT_GT(tally.accepted, 0);
}

// --------------------------------------------------- the old SpanAttrs (copy)

class MapAttrs {
 public:
  explicit MapAttrs(const std::string& detail) {
    std::size_t pos = 0;
    while (pos < detail.size()) {
      const std::size_t end = detail.find(' ', pos);
      const std::string token = detail.substr(
          pos, end == std::string::npos ? std::string::npos : end - pos);
      const std::size_t eq = token.find('=');
      if (eq != std::string::npos && eq > 0) {
        kv_[token.substr(0, eq)] = token.substr(eq + 1);
      }
      if (end == std::string::npos) break;
      pos = end + 1;
    }
  }
  bool has(const std::string& key) const { return kv_.count(key) > 0; }
  int num(const std::string& key, int fallback) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) return fallback;
    char* end = nullptr;
    const long v = std::strtol(it->second.c_str(), &end, 10);
    if (end == it->second.c_str()) return fallback;
    return static_cast<int>(v);
  }
  std::string text(const std::string& key) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? "" : it->second;
  }

 private:
  std::map<std::string, std::string> kv_;
};

// calib::classify's readers as they were.
std::int64_t map_i64(const MapAttrs& attrs, const std::string& key,
                     std::int64_t fallback) {
  const std::string text = attrs.text(key);
  if (text.empty()) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  return (end != nullptr && *end == '\0') ? v : fallback;
}
std::int64_t map_bytes(const MapAttrs& attrs) {
  for (const char* key : {"B", "bytes", "In_msg_size", "msg_size", "size"}) {
    const std::int64_t v = map_i64(attrs, key, -1);
    if (v >= 0) return v;
  }
  return -1;
}
int map_ranks(const MapAttrs& attrs) {
  for (const char* key : {"n", "ranks", "Group_size", "group_size", "nranks"}) {
    const std::int64_t v = map_i64(attrs, key, -1);
    if (v >= 1) return static_cast<int>(v);
  }
  return -1;
}

void expect_same_attrs(const std::string& detail) {
  using Key = diag::SpanAttrs::Key;
  const MapAttrs want(detail);
  const diag::SpanAttrs got(detail);
  for (std::size_t k = 0; k < diag::SpanAttrs::kKeys; ++k) {
    const Key key = static_cast<Key>(k);
    const std::string name(diag::SpanAttrs::name(key));
    EXPECT_EQ(got.has(key), want.has(name)) << name << " in " << detail;
    EXPECT_EQ(got.text(key), want.text(name)) << name << " in " << detail;
    for (int fallback : {-1, 0, 7}) {
      EXPECT_EQ(got.num(key, fallback), want.num(name, fallback))
          << name << " in " << detail;
    }
    EXPECT_EQ(got.whole(key, -1), map_i64(want, name, -1))
        << name << " in " << detail;
  }
  EXPECT_EQ(got.bytes(), map_bytes(want)) << detail;
  EXPECT_EQ(got.ranks(), map_ranks(want)) << detail;
  // blame groups on the presence of head=, calib on head=1
  EXPECT_EQ(got.has(Key::kHead), want.has("head")) << detail;
  EXPECT_EQ(got.num(Key::kHead, 0) == 1, want.num("head", 0) == 1) << detail;
}

std::string random_detail(Rng& rng) {
  static const std::vector<std::string> kKeys = {
      "s",     "c",       "mb",    "p",     "head",        "from",
      "to",    "pc",      "B",     "n",     "op",          "calls",
      "stream", "dom",    "bytes", "In_msg_size",          "msg_size",
      "size",  "ranks",   "Group_size",     "group_size",  "nranks",
      "grp",   "S",       "sx",    "mbb",   "",            "x"};
  static const std::vector<std::string> kValues = {
      "0",   "3",   "-4",  "+5",  "12abc", "abc", "",    "007", "\t9", "\v-2",
      " ",   "+",   "-",   "1=2", "f",     "b",   "intra", "nvlink", "0x1f",
      "9223372036854775807", "9223372036854775808", "-9223372036854775808",
      "-9223372036854775809", "99999999999", "2147483648", "-2147483649",
      std::string("5\0x", 3), std::string("\0", 1), "allgather", "1.5"};
  std::string detail = rng.chance(0.1) ? " " : "";
  const auto tokens = rng.uniform_index(9);
  for (std::uint64_t i = 0; i < tokens; ++i) {
    if (i > 0) detail += rng.chance(0.1) ? "  " : " ";
    switch (rng.uniform_index(8)) {
      case 0: detail += pick(rng, kKeys); break;                // no '='
      case 1: detail += "=" + pick(rng, kValues); break;        // leading '='
      default: detail += pick(rng, kKeys) + "=" + pick(rng, kValues); break;
    }
  }
  if (rng.chance(0.1)) detail += " ";
  return detail;
}

TEST(SpanAttrsDiff, TypedLookupsMatchTheMapVersionOnSeededDetails) {
  Rng rng(0xa77a5);
  for (int i = 0; i < 20000; ++i) expect_same_attrs(random_detail(rng));
}

TEST(SpanAttrsDiff, TypedLookupsMatchTheMapVersionOnRealDetails) {
  std::set<std::string> details;
  for (const auto& s : traced(small_job())) details.insert(s.detail);
  std::vector<diag::TraceSpan> golden;
  ASSERT_TRUE(diag::parse_trace_jsonl(golden_text(), golden));
  for (const auto& s : golden) details.insert(s.detail);
  calib::IngestResult kineto;
  std::string error;
  ASSERT_TRUE(calib::ingest_trace_file(
      std::string(MS_GOLDEN_DIR) + "/calib/kineto_trace.json", kineto, error))
      << error;
  for (const auto& s : kineto.spans) details.insert(s.detail);
  EXPECT_GT(details.size(), 100u);
  for (const auto& d : details) expect_same_attrs(d);
}

// ------------------------------------------------------------ edge pins

struct EdgeDigest {
  std::size_t nodes = 0;
  std::size_t edges = 0;
  std::uint64_t digest = 0;
};

/// Folds every node's incoming (from, kind) pairs, sorted, in node order.
EdgeDigest edge_digest(const std::vector<diag::TraceSpan>& spans) {
  const auto g = diag::DepGraph::build(spans);
  EdgeDigest out;
  out.nodes = g.size();
  check::Digest d;
  for (std::size_t i = 0; i < g.size(); ++i) {
    std::vector<std::pair<std::size_t, int>> preds;
    for (const auto& e : g.preds(i)) {
      EXPECT_EQ(e.to, i);
      preds.push_back({e.from, static_cast<int>(e.kind)});
    }
    std::sort(preds.begin(), preds.end());
    d.fold(static_cast<std::uint64_t>(preds.size()));
    for (const auto& [from, kind] : preds) {
      d.fold(static_cast<std::uint64_t>(from));
      d.fold(static_cast<std::uint64_t>(kind));
    }
    out.edges += preds.size();
  }
  EXPECT_EQ(out.edges, g.edges().size());
  out.digest = d.value();
  return out;
}

struct FixturePin {
  bool straggler;  // else slow link
  int injected;    // stage (straggler) or sending stage (slow link)
  double factor;
  std::size_t edges;
  std::uint64_t edge_digest;
  std::uint64_t diag_digest;   // perfbench/expected/trace_diagnose.txt
  std::uint64_t calib_digest;  // perfbench/expected/trace_diagnose.txt
};

TEST(EdgePin, TraceDiagnoseFixtures) {
  const FixturePin pins[] = {
      {true, 1, 1.5, 36568, 0xc8cad3a58434e3e4ull, 0x8d0e36a93a6c4f57ull,
       0xaed8b77bd76d3c6eull},
      {true, 3, 2.0, 36568, 0xad3aad00bf01d784ull, 0x405773224bdaf298ull,
       0xba6044924aa39dcdull},
      {true, 5, 2.0, 36568, 0x378a3f16075c31acull, 0xf34fea2036deb784ull,
       0xba6044924aa39dcdull},
      {true, 6, 3.0, 36568, 0x2195a7cc19bf42e0ull, 0xefda47b50f79145full,
       0xc2533fcba6619072ull},
      {false, 0, 16.0, 36584, 0x4917ad0f88caa655ull, 0xac5fb115c49fa319ull,
       0xaef50e564d49e17bull},
      {false, 2, 16.0, 36584, 0x4917ad0f88caa655ull, 0x62e970bc4c5fb7eaull,
       0xbf4508fda72ee5dfull},
      {false, 4, 16.0, 36584, 0x4917ad0f88caa655ull, 0xc1ed66a76687332eull,
       0xbf4508fda72ee5dfull},
  };
  for (const FixturePin& pin : pins) {
    engine::JobConfig cfg = calib::demo_config();  // the sec43 fixture job
    const auto pp = static_cast<std::size_t>(cfg.par.pp);
    if (pin.straggler) {
      cfg.stage_speed.assign(pp, 1.0);
      cfg.stage_speed[static_cast<std::size_t>(pin.injected)] = pin.factor;
    } else {
      cfg.overlap.pp_decouple = false;
      cfg.link_speed.assign(pp, 1.0);
      cfg.link_speed[static_cast<std::size_t>(pin.injected)] = pin.factor;
    }
    const auto spans = traced(cfg);
    const EdgeDigest e = edge_digest(spans);
    EXPECT_EQ(e.nodes, 18281u) << pin.injected;
    EXPECT_EQ(e.edges, pin.edges) << pin.injected;
    EXPECT_EQ(e.digest, pin.edge_digest) << pin.injected;
    EXPECT_EQ(diag::analyze_spans(spans).digest, pin.diag_digest)
        << pin.injected;
    EXPECT_EQ(calib::fit_trace(spans, calib::demo_config()).digest,
              pin.calib_digest)
        << pin.injected;
  }
}

TEST(EdgePin, CalibGoldenTraces) {
  const struct {
    const char* file;
    std::size_t nodes, edges;
    std::uint64_t digest;
  } pins[] = {
      {"self_trace.jsonl", 725, 1436, 0xc400da82e2bb086full},
      {"kineto_trace.json", 727, 1437, 0xf7f80dc344ec7a11ull},
  };
  for (const auto& pin : pins) {
    calib::IngestResult ingested;
    std::string error;
    ASSERT_TRUE(calib::ingest_trace_file(
        std::string(MS_GOLDEN_DIR) + "/calib/" + pin.file, ingested, error))
        << error;
    const EdgeDigest e = edge_digest(ingested.spans);
    EXPECT_EQ(e.nodes, pin.nodes) << pin.file;
    EXPECT_EQ(e.edges, pin.edges) << pin.file;
    EXPECT_EQ(e.digest, pin.digest) << pin.file;
  }
}

}  // namespace
}  // namespace ms
