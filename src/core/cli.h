// The one command-line grammar every tool shares:
//
//   cli::Parser parser("msplan", msplan_usage());
//   parser.flag("--gpus", spec.gpus).flag("--json", json_path)
//       .toggle("--no-sim", opt.simulate, false);
//   if (!parser.parse(args, err)) return 1;
//
// `--name value` sets a valued flag (the value is the next token, whatever
// it starts with), `--name` alone sets a switch, and a token not starting
// with '-' fills the next positional slot. A repeated flag keeps its last
// value. Numbers are whole-token: "64abc", "1e999", "nan", or "-1" for a
// count, is an error, never a silent 0. Every error prints "<tool>: <what>"
// and the usage text; the caller returns its usage exit code.
#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace ms::cli {

/// True only when all of `text` converts and fits `out`: decimal, no
/// leading '+' or space, no sign for unsigned types, finite doubles only.
/// `out` is untouched on failure. T is an integer type or double.
template <class T>
bool parse_number(std::string_view text, T& out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  out = value;
  return true;
}

/// Any base strtoull(…, 0) reads (decimal, 0x hex, 0 octal), so a seed
/// pasted from a `0x…` repro line works; no sign.
bool parse_seed(std::string_view text, std::uint64_t& out);

class Parser {
 public:
  /// `tool` prefixes every message ("msdiag fabric"); `usage` follows it.
  Parser(std::string tool, std::string usage)
      : tool_(std::move(tool)), usage_(std::move(usage)) {}

  /// A valued flag: `dest` is a std::string, int, std::size_t or double.
  template <class T>
  Parser& flag(std::string name, T& dest) {
    flags_.push_back({std::move(name), &dest});
    return *this;
  }
  /// A std::uint64_t read by parse_seed().
  Parser& seed(std::string name, std::uint64_t& dest) {
    flags_.push_back({std::move(name), Seed{&dest}});
    return *this;
  }
  /// A switch: takes no value and stores `value` in `dest`.
  Parser& toggle(std::string name, bool& dest, bool value = true) {
    flags_.push_back({std::move(name), Switch{&dest, value}});
    return *this;
  }
  /// The next positional slot; slots fill in declaration order, so
  /// optional ones go last. `name` ("<trace.jsonl>") names a missing one.
  Parser& positional(std::string name, std::string& dest,
                     bool required = true) {
    positionals_.push_back({std::move(name), &dest, required});
    return *this;
  }

  /// Walks `args` once. A missing value, an unconvertible number, an
  /// unknown flag, a surplus or a missing positional goes to error() and
  /// returns false.
  bool parse(const std::vector<std::string>& args, std::ostream& err);

  /// Whether the last parse() saw `name`.
  bool seen(std::string_view name) const;

  /// Writes "<tool>: <what>\n" and the usage text to `err`; also for the
  /// checks a tool makes after parse().
  void error(std::ostream& err, std::string_view what) const;

 private:
  struct Seed {
    std::uint64_t* dest;
  };
  struct Switch {
    bool* dest;
    bool value;
  };
  struct Flag {
    std::string name;
    std::variant<std::string*, int*, std::size_t*, double*, Seed, Switch> dest;
    bool seen = false;
  };
  struct Positional {
    std::string name;
    std::string* dest;
    bool required;
  };
  struct Store;

  std::string tool_;
  std::string usage_;
  std::vector<Flag> flags_;
  std::vector<Positional> positionals_;
};

}  // namespace ms::cli
