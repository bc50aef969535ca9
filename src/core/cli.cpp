#include "core/cli.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <ostream>

namespace ms::cli {

bool parse_seed(std::string_view text, std::uint64_t& out) {
  // strtoull would also skip spaces and wrap "-1" to 2^64-1.
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  const std::string token(text);
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(token.c_str(), &end, 0);
  if (errno == ERANGE || end != token.c_str() + token.size()) return false;
  out = value;
  return true;
}

/// Stores a value token in a flag's destination; returns what the flag
/// expected when the token does not convert, nullptr on success.
struct Parser::Store {
  const std::string& text;
  const char* operator()(std::string* dest) const {
    *dest = text;
    return nullptr;
  }
  const char* operator()(int* dest) const {
    return parse_number(text, *dest) ? nullptr : "an integer";
  }
  const char* operator()(std::size_t* dest) const {
    return parse_number(text, *dest) ? nullptr : "a non-negative integer";
  }
  const char* operator()(double* dest) const {
    return parse_number(text, *dest) ? nullptr : "a finite number";
  }
  const char* operator()(Seed seed) const {
    return parse_seed(text, *seed.dest) ? nullptr
                                        : "an unsigned 64-bit integer";
  }
  const char* operator()(Switch sw) const {
    *sw.dest = sw.value;
    return nullptr;
  }
};

bool Parser::parse(const std::vector<std::string>& args, std::ostream& err) {
  for (Flag& f : flags_) f.seen = false;
  std::size_t next_positional = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.empty() || arg[0] != '-') {
      if (next_positional == positionals_.size()) {
        error(err, "unexpected argument \"" + arg + "\"");
        return false;
      }
      *positionals_[next_positional++].dest = arg;
      continue;
    }
    Flag* f = nullptr;
    for (Flag& candidate : flags_) {
      if (candidate.name == arg) f = &candidate;
    }
    if (f == nullptr) {
      error(err, "unknown flag " + arg);
      return false;
    }
    f->seen = true;
    if (std::holds_alternative<Switch>(f->dest)) {
      std::visit(Store{arg}, f->dest);
    } else if (i + 1 == args.size()) {
      error(err, arg + " needs a value");
      return false;
    } else if (const char* expected = std::visit(Store{args[++i]}, f->dest)) {
      error(err, "invalid value \"" + args[i] + "\" for " + arg +
                     " (expected " + expected + ")");
      return false;
    }
  }
  if (next_positional < positionals_.size() &&
      positionals_[next_positional].required) {
    error(err, "missing " + positionals_[next_positional].name);
    return false;
  }
  return true;
}

bool Parser::seen(std::string_view name) const {
  for (const Flag& f : flags_) {
    if (f.name == name) return f.seen;
  }
  return false;
}

void Parser::error(std::ostream& err, std::string_view what) const {
  err << tool_ << ": " << what << "\n" << usage_;
}

}  // namespace ms::cli
