#include "core/json.h"

#include <cstdio>
#include <cstdlib>
#include <limits>

namespace ms::json {

namespace {

// std::isspace / std::isdigit of the "C" locale, inline: the lexer calls
// them for nearly every byte.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool is_digit(char c) { return c >= '0' && c <= '9'; }

}  // namespace

void escape(std::string& out, std::string_view s) {
  std::size_t run = 0;  // start of the pending unescaped run
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const char* rep = nullptr;
    switch (c) {
      case '"': rep = "\\\""; break;
      case '\\': rep = "\\\\"; break;
      case '\n': rep = "\\n"; break;
      case '\t': rep = "\\t"; break;
      case '\r': rep = "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) continue;
    }
    out.append(s, run, i - run);
    run = i + 1;
    if (rep != nullptr) {
      out += rep;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    }
  }
  out.append(s, run, s.size() - run);
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  escape(out, s);
  return out;
}

double Value::num(const std::string& key, double fallback) const {
  if (!has(key)) return fallback;
  const Value& v = at(key);
  return v.kind == Kind::kNumber ? v.number : fallback;
}

std::string Value::text(const std::string& key,
                        const std::string& fallback) const {
  if (!has(key)) return fallback;
  const Value& v = at(key);
  return v.kind == Kind::kString ? v.str : fallback;
}

// ------------------------------------------------------------------ Scanner

bool Scanner::fail(const char* what) {
  if (error_.empty()) {
    error_ = std::string(what) + " at byte " + std::to_string(pos_);
  }
  return false;
}

void Scanner::skip_ws() {
  while (pos_ < s_.size() && is_space(s_[pos_])) ++pos_;
}

bool Scanner::at_end() {
  skip_ws();
  return pos_ == s_.size();
}

bool Scanner::expect(char c) {
  if (pos_ >= s_.size() || s_[pos_] != c) return false;
  ++pos_;
  return true;
}

bool Scanner::word(const char* w) {
  for (const char* p = w; *p != '\0'; ++p, ++pos_) {
    if (pos_ >= s_.size() || s_[pos_] != *p) return false;
  }
  return true;
}

bool Scanner::enter() {
  // Recursion depth is the only unbounded resource: cap it so hostile
  // input fails with a message instead of overflowing the stack.
  if (depth_ == kMaxDepth) return fail("nesting deeper than 256 levels");
  ++depth_;
  return true;
}

Scanner::Kind Scanner::next() {
  skip_ws();
  if (pos_ >= s_.size()) return Kind::kNumber;  // number() rejects the end
  switch (s_[pos_]) {
    case 'n': return Kind::kNull;
    case 't': return Kind::kTrue;
    case 'f': return Kind::kFalse;
    case '"': return Kind::kString;
    case '[': return Kind::kArray;
    case '{': return Kind::kObject;
    default: return Kind::kNumber;
  }
}

bool Scanner::literal(Kind kind) {
  return word(kind == Kind::kNull ? "null"
                                  : kind == Kind::kTrue ? "true" : "false");
}

bool Scanner::string(std::string& out) {
  if (pos_ >= s_.size() || s_[pos_] != '"') return false;
  ++pos_;
  while (pos_ < s_.size() && s_[pos_] != '"') {
    // Copy the run up to the next quote or escape in one append.
    std::size_t run = pos_;
    while (run < s_.size() && s_[run] != '"' && s_[run] != '\\') ++run;
    out.append(s_, pos_, run - pos_);
    pos_ = run;
    if (pos_ >= s_.size() || s_[pos_] == '"') break;
    ++pos_;  // the backslash
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
        const std::string hex(s_.substr(pos_, 4));
        pos_ += 4;
        char* end = nullptr;
        const long code = std::strtol(hex.c_str(), &end, 16);
        if (end != hex.c_str() + 4) return false;
        // Our emitters only produce \u00xx control escapes; decode the
        // BMP code point as UTF-8 for anything else.
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
  ++pos_;  // closing quote
  return true;
}

bool Scanner::number(double& out) {
  const std::size_t start = pos_;
  if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
  // Kineto/PyTorch profiler exports write bare NaN/Infinity tokens for
  // undefined counter values; tolerate them (JSON5-style) instead of
  // failing the whole artifact.
  if (pos_ < s_.size() && (s_[pos_] == 'N' || s_[pos_] == 'I')) {
    const bool neg = s_[start] == '-';
    const bool is_nan = s_[pos_] == 'N';
    if (!(is_nan ? word("NaN") : word("Infinity"))) return false;
    out = is_nan ? std::numeric_limits<double>::quiet_NaN()
                 : (neg ? -std::numeric_limits<double>::infinity()
                        : std::numeric_limits<double>::infinity());
    return true;
  }
  bool digits = false;
  bool integral = true;
  auto eat_digits = [&] {
    while (pos_ < s_.size() && is_digit(s_[pos_])) {
      ++pos_;
      digits = true;
    }
  };
  eat_digits();
  if (pos_ < s_.size() && s_[pos_] == '.') {
    ++pos_;
    integral = false;
    eat_digits();
  }
  if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
    ++pos_;
    integral = false;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    eat_digits();
  }
  if (!digits) return false;
  const std::string_view token = s_.substr(start, pos_ - start);
  // Integers of up to 15 digits are exact in a double, so summing their
  // digits gives strtod's result without a copy of the token.
  const std::size_t sign = token[0] == '-' || token[0] == '+' ? 1 : 0;
  if (integral && token.size() - sign <= 15) {
    double v = 0;
    for (std::size_t i = sign; i < token.size(); ++i) {
      v = v * 10 + (token[i] - '0');
    }
    out = token[0] == '-' ? -v : v;
    return true;
  }
  const std::string copy(token);
  char* end = nullptr;
  out = std::strtod(copy.c_str(), &end);
  return end == copy.c_str() + copy.size();
}

bool Scanner::skip_value() {
  switch (const Kind kind = next()) {
    case Kind::kNull:
    case Kind::kTrue:
    case Kind::kFalse:
      return literal(kind);
    case Kind::kString:
      scratch_.clear();
      return string(scratch_);
    case Kind::kNumber: {
      double ignored = 0;
      return number(ignored);
    }
    case Kind::kArray:
      return array([&] { return skip_value(); });
    case Kind::kObject:
      return object([&](const std::string&) { return skip_value(); });
  }
  return false;
}

// --------------------------------------------------------------------- DOM

namespace {

bool value(Scanner& sc, Value& out) {
  switch (const Scanner::Kind kind = sc.next()) {
    case Scanner::Kind::kNull:
    case Scanner::Kind::kTrue:
    case Scanner::Kind::kFalse:
      out.kind = kind == Scanner::Kind::kNull ? Value::Kind::kNull
                                              : Value::Kind::kBool;
      out.boolean = kind == Scanner::Kind::kTrue;
      return sc.literal(kind);
    case Scanner::Kind::kString:
      out.kind = Value::Kind::kString;
      return sc.string(out.str);
    case Scanner::Kind::kNumber:
      out.kind = Value::Kind::kNumber;
      return sc.number(out.number);
    case Scanner::Kind::kArray:
      out.kind = Value::Kind::kArray;
      out.array = std::make_shared<std::vector<Value>>();
      return sc.array([&] {
        Value element;
        if (!value(sc, element)) return false;
        out.array->push_back(std::move(element));
        return true;
      });
    case Scanner::Kind::kObject:
      out.kind = Value::Kind::kObject;
      out.object = std::make_shared<std::map<std::string, Value>>();
      return sc.object([&](const std::string& key) {
        Value element;
        if (!value(sc, element)) return false;
        (*out.object)[key] = std::move(element);
        return true;
      });
  }
  return false;
}

}  // namespace

bool parse(const std::string& text, Value& out, std::string* error) {
  Value v;
  Scanner sc(text);
  const bool ok = value(sc, v) ? sc.at_end() || sc.fail("trailing characters")
                               : sc.fail("malformed JSON");
  if (!ok) {
    if (error != nullptr) *error = sc.error();
    return false;
  }
  out = std::move(v);
  return true;
}

}  // namespace ms::json
