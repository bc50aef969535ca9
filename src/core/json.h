// Minimal JSON utilities shared by the diagnosis artifact layer and the
// telemetry exporters.
//
// Three parts:
//  * escape() — the one audited string-escaping routine every emitter in
//    the repo uses (exporters, chrome traces, artifact writers), so a span
//    name with a quote or control character cannot corrupt an artifact;
//  * Scanner — the lexer and value grammar (strings, numbers, literals,
//    whitespace, nesting capped at 256 levels). Readers that know their
//    schema, such as diag::parse_trace_jsonl, walk objects with it directly
//    and keep only the fields they need;
//  * Value/parse() — a small recursive-descent DOM built on Scanner, for
//    the JSON the repo itself emits (flight-recorder dumps, outcome records,
//    ledgers) and for external Chrome/Kineto traces. Numbers are held as
//    double.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace ms::json {

/// Escapes `s` for embedding inside a JSON string literal (quotes,
/// backslashes, \n\t\r, other control characters as \u00xx).
std::string escape(const std::string& s);
/// The same escaping, appended to `out`; runs that need no escape are
/// copied in bulk.
void escape(std::string& out, std::string_view s);

/// One pass over a JSON text. Every method that reads a value returns
/// false on malformed input; fail() records the first error with its byte
/// offset, e.g. "nesting deeper than 256 levels at byte 256".
class Scanner {
 public:
  static constexpr int kMaxDepth = 256;  // also named in parse()'s comment
  /// What the next value is, judged from its first byte.
  enum class Kind { kNull, kTrue, kFalse, kString, kNumber, kArray, kObject };

  explicit Scanner(std::string_view text) : s_(text) {}

  /// Skips whitespace and names the value that starts there. A byte that
  /// starts no other kind reads as kNumber, which number() then rejects.
  Kind next();
  /// Reads the literal next() named (kNull, kTrue or kFalse).
  bool literal(Kind kind);
  /// Reads a string literal, appending its decoded bytes to `out`.
  bool string(std::string& out);
  /// Reads a number; bare NaN/Infinity tokens are accepted (Kineto writes
  /// them for undefined counters).
  bool number(double& out);
  /// Reads and discards any value, nested containers included.
  bool skip_value();
  /// Walks `[v, ...]`; `element()` must read one value.
  template <class F>
  bool array(F&& element);
  /// Walks `{"k": v, ...}`; `member(key)` must read the value of `key`.
  template <class F>
  bool object(F&& member);
  /// True when only whitespace is left.
  bool at_end();
  /// Byte offset of the next unread byte.
  std::size_t offset() const { return pos_; }

  /// Records `what` at the current offset unless an error is already
  /// recorded; returns false.
  bool fail(const char* what);
  const std::string& error() const { return error_; }

 private:
  void skip_ws();
  bool expect(char c);
  bool word(const char* w);
  bool enter();

  std::string_view s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
  std::string scratch_;  // skip_value's string sink
};

template <class F>
bool Scanner::array(F&& element) {
  if (!enter()) return false;
  bool ok = expect('[');
  skip_ws();
  if (ok && !expect(']')) {
    while ((ok = element())) {
      skip_ws();
      if (!expect(',')) {
        ok = expect(']');
        break;
      }
    }
  }
  --depth_;
  return ok;
}

template <class F>
bool Scanner::object(F&& member) {
  if (!enter()) return false;
  bool ok = expect('{');
  skip_ws();
  if (ok && !expect('}')) {
    std::string key;
    while (true) {
      skip_ws();
      key.clear();
      ok = string(key) && (skip_ws(), expect(':')) && member(key);
      if (!ok) break;
      skip_ws();
      if (!expect(',')) {
        ok = expect('}');
        break;
      }
    }
  }
  --depth_;
  return ok;
}

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::shared_ptr<std::vector<Value>> array;
  std::shared_ptr<std::map<std::string, Value>> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool has(const std::string& key) const {
    return kind == Kind::kObject && object->count(key) > 0;
  }
  const Value& at(const std::string& key) const { return object->at(key); }
  const Value& operator[](std::size_t i) const { return (*array)[i]; }
  std::size_t size() const {
    if (kind == Kind::kArray) return array->size();
    if (kind == Kind::kObject) return object->size();
    return 0;
  }

  /// Typed lookups with defaults — artifact loaders stay short.
  double num(const std::string& key, double fallback = 0) const;
  std::string text(const std::string& key,
                   const std::string& fallback = "") const;
};

/// Parses one JSON value. Returns false (and leaves `out` untouched) on
/// malformed input instead of throwing — artifact loaders report the line.
/// Arrays and objects nest at most 256 deep, so hostile input cannot
/// overflow the stack. On failure `error` (if non-null) receives what went
/// wrong and its byte offset, e.g. "nesting deeper than 256 levels at
/// byte 256".
bool parse(const std::string& text, Value& out, std::string* error = nullptr);

}  // namespace ms::json
