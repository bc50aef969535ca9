// Minimal JSON utilities shared by the diagnosis artifact layer and the
// telemetry exporters.
//
// Two halves:
//  * escape() — the one audited string-escaping routine every emitter in
//    the repo uses (exporters, chrome traces, artifact writers), so a span
//    name with a quote or control character cannot corrupt an artifact;
//  * Value/parse() — a small recursive-descent parser for the JSON the
//    repo itself emits (flight-recorder dumps, span JSONL, outcome
//    records) and for external Chrome/Kineto traces. It supports the full
//    value grammar with numbers held as double and bounds nesting depth.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ms::json {

/// Escapes `s` for embedding inside a JSON string literal (quotes,
/// backslashes, \n\t\r, other control characters as \u00xx).
std::string escape(const std::string& s);

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
