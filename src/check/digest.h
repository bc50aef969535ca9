// Order-sensitive execution digests (determinism made testable).
//
// The engine claims determinism by design: integral time plus FIFO-within-
// timestamp ordering. This folds the claim into a single u64 that CI can
// compare — every executed event contributes (id, timestamp, kind) to an
// FNV-1a accumulator, so two runs of the same scenario produce bit-equal
// digests iff they executed the same events in the same order at the same
// times. Any nondeterminism (hash-map iteration leaking into scheduling,
// uninitialized reads, float drift in a time computation) shows up as a
// digest mismatch long before it shows up as a wrong MFU number.
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

namespace ms::check {

/// Incremental FNV-1a (64-bit). Order-sensitive by construction:
/// fold(a) then fold(b) differs from fold(b) then fold(a).
class Digest {
 public:
  void fold(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      fold_byte(static_cast<unsigned char>(v >> (8 * i)));
    }
  }

  void fold(std::int64_t v) noexcept { fold(static_cast<std::uint64_t>(v)); }

  /// Folds a double's exact bit pattern (so -0.0 != 0.0 and every NaN
  /// payload is distinct). Not a fold(double) overload: that would make
  /// fold(1) ambiguous between the integer overloads and this one.
  void fold_bits(double v) noexcept { fold(std::bit_cast<std::uint64_t>(v)); }

  void fold(std::string_view s) noexcept {
    for (char c : s) fold_byte(static_cast<unsigned char>(c));
    fold_byte(0);  // delimit so {"ab","c"} != {"a","bc"}
  }

  std::uint64_t value() const noexcept { return h_; }

  void reset() noexcept { h_ = kOffsetBasis; }

 private:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ull;
  static constexpr std::uint64_t kPrime = 0x100000001b3ull;

  void fold_byte(unsigned char b) noexcept {
    h_ ^= b;
    h_ *= kPrime;
  }

  std::uint64_t h_ = kOffsetBasis;
};

}  // namespace ms::check
