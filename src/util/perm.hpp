// Ranking / unranking of k-permutations ("arrangements") of {1,...,n}.
//
// Star graphs, (n,k)-stars, pancake graphs and arrangement graphs all name
// their nodes by sequences of k distinct symbols drawn from {1..n}. We index
// them densely in [0, n!/(n-k)!) with a mixed-radix Lehmer-style code:
// position 0 has n choices, position 1 has n-1 remaining choices, etc.
#pragma once

#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace mmdiag {

/// n!/(n-k)! as a 64-bit value. Throws std::overflow_error if it does not fit.
[[nodiscard]] std::uint64_t falling_factorial(unsigned n, unsigned k);

/// n! (n <= 20).
[[nodiscard]] std::uint64_t factorial(unsigned n);

/// Encoder/decoder between dense ranks and arrangements.
///
/// Symbols are 1-based (1..n) to match the interconnection-network
/// literature; an arrangement is stored as a vector of k symbols, position 0
/// being "the first position" of the papers.
///
/// The rank's digit at position i is the Lehmer digit of a[i]: the number
/// of symbols below a[i] that no earlier position holds, so
/// rank = sum of digit[i] * (n-1-i)!/(n-k)!.
class PermCodec {
 public:
  /// One rank decoded for walking ranks in order and ranking neighbours
  /// without starting from scratch. symbols[0, k) is the arrangement and
  /// symbols[k, n) the unused symbols in ascending order; digits[0, k) are
  /// the arrangement's Lehmer digits.
  struct Cursor {
    std::uint64_t rank = 0;
    std::uint8_t symbols[64];
    std::uint8_t digits[64];
  };

  PermCodec(unsigned n, unsigned k);

  [[nodiscard]] unsigned n() const noexcept { return n_; }
  [[nodiscard]] unsigned k() const noexcept { return k_; }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

  /// rank -> arrangement (out must have size k).
  void unrank(std::uint64_t rank, std::uint8_t* out) const;

  /// arrangement -> rank.
  [[nodiscard]] std::uint64_t rank(const std::uint8_t* arrangement) const;

  /// Points the cursor at `rank`.
  void seek(std::uint64_t rank, Cursor& cursor) const;

  /// Steps the cursor to the next rank, which is the next arrangement in
  /// lexicographic order: an odometer, amortised O(1) per step.
  void next(Cursor& cursor) const;

  /// Rank of `moved`, an arrangement that equals the cursor's after
  /// position `last` and holds the same symbols in [0, last], so every
  /// digit after `last` is the cursor's. O(last^2) compares.
  [[nodiscard]] std::uint64_t rank_prefix_move(const Cursor& cursor,
                                               const std::uint8_t* moved,
                                               unsigned last) const;

  /// Rank of the cursor's arrangement with position i's symbol replaced by
  /// `symbol`, which the arrangement does not hold: digit i is recounted
  /// and each later digit moves by one compare.
  [[nodiscard]] std::uint64_t rank_substitution(const Cursor& cursor,
                                                unsigned i,
                                                std::uint8_t symbol) const;

 private:
  unsigned n_;
  unsigned k_;
  std::uint64_t count_;
  std::vector<std::uint64_t> place_value_;  // place_value_[i] = (n-1-i)!/(n-k)!
};

}  // namespace mmdiag
