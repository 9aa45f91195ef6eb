#include "util/perm.hpp"

#include <algorithm>
#include <stdexcept>

namespace mmdiag {
namespace {

/// Lehmer digit of `symbol` at position i after a[0, i): the symbols below
/// it that no earlier position holds. Compares, not a popcount of a
/// used-symbol mask, which the baseline x86-64 target turns into a library
/// call per digit.
unsigned lehmer_digit(const std::uint8_t* a, unsigned i, unsigned symbol) {
  unsigned digit = symbol - 1;
  for (unsigned j = 0; j < i; ++j) digit -= a[j] < symbol;
  return digit;
}

}  // namespace

std::uint64_t falling_factorial(unsigned n, unsigned k) {
  if (k > n) throw std::invalid_argument("falling_factorial: k > n");
  std::uint64_t result = 1;
  for (unsigned i = 0; i < k; ++i) {
    const std::uint64_t factor = n - i;
    if (result > UINT64_MAX / factor) {
      throw std::overflow_error("falling_factorial overflows 64 bits");
    }
    result *= factor;
  }
  return result;
}

std::uint64_t factorial(unsigned n) { return falling_factorial(n, n); }

PermCodec::PermCodec(unsigned n, unsigned k) : n_(n), k_(k) {
  if (k == 0 || k > n) throw std::invalid_argument("PermCodec: need 1 <= k <= n");
  if (n > 64) throw std::invalid_argument("PermCodec: n too large");
  count_ = falling_factorial(n, k);
  place_value_.resize(k);
  // Position i has n-i symbol choices, so its place value is the number of
  // arrangements of the remaining positions: place[k-1] = 1 and
  // place[i-1] = place[i] * (n-i).
  std::uint64_t v = 1;
  for (unsigned i = k; i-- > 0;) {
    place_value_[i] = v;
    v *= (n - i);
  }
}

void PermCodec::unrank(std::uint64_t rank, std::uint8_t* out) const {
  Cursor cursor;
  seek(rank, cursor);
  std::copy(cursor.symbols, cursor.symbols + k_, out);
}

std::uint64_t PermCodec::rank(const std::uint8_t* arrangement) const {
  std::uint64_t rank = 0;
  for (unsigned i = 0; i < k_; ++i) {
    rank += lehmer_digit(arrangement, i, arrangement[i]) * place_value_[i];
  }
  return rank;
}

void PermCodec::seek(std::uint64_t rank, Cursor& cursor) const {
  cursor.rank = rank;
  for (unsigned i = 0; i < k_; ++i) {
    cursor.digits[i] = static_cast<std::uint8_t>(rank / place_value_[i]);
    rank %= place_value_[i];
  }
  // Digit -> the (digit+1)-th symbol not yet used; the unused ones then
  // fill the tail in ascending order.
  std::uint64_t used = 0;  // bitmask over symbols 1..n (bit s-1)
  for (unsigned i = 0; i < k_; ++i) {
    unsigned remaining = cursor.digits[i];
    unsigned s = 0;
    for (;; ++s) {
      if (((used >> s) & 1ULL) == 0) {
        if (remaining == 0) break;
        --remaining;
      }
    }
    used |= 1ULL << s;
    cursor.symbols[i] = static_cast<std::uint8_t>(s + 1);
  }
  unsigned tail = k_;
  for (unsigned s = 0; s < n_; ++s) {
    if (((used >> s) & 1ULL) == 0) {
      cursor.symbols[tail++] = static_cast<std::uint8_t>(s + 1);
    }
  }
}

void PermCodec::next(Cursor& cursor) const {
  ++cursor.rank;
  for (unsigned i = k_; i-- > 0;) {  // mixed radix: position i has n-i
    if (++cursor.digits[i] < n_ - i) break;
    cursor.digits[i] = 0;
  }
  // Reversing the ascending tail makes the n symbols the last permutation
  // with this k-prefix, so next_permutation steps to the next
  // k-arrangement and leaves its tail ascending (for k == n the tail is
  // empty and this is plain next_permutation).
  std::reverse(cursor.symbols + k_, cursor.symbols + n_);
  std::next_permutation(cursor.symbols, cursor.symbols + n_);
}

std::uint64_t PermCodec::rank_prefix_move(const Cursor& cursor,
                                          const std::uint8_t* moved,
                                          unsigned last) const {
  // Sums run modulo 2^64; the result is a valid rank, so it is exact.
  std::uint64_t rank = cursor.rank;
  for (unsigned i = 0; i <= last; ++i) {
    const std::uint64_t digit = lehmer_digit(moved, i, moved[i]);
    rank += (digit - cursor.digits[i]) * place_value_[i];
  }
  return rank;
}

std::uint64_t PermCodec::rank_substitution(const Cursor& cursor, unsigned i,
                                           std::uint8_t symbol) const {
  const std::uint8_t* a = cursor.symbols;
  const std::uint64_t digit = lehmer_digit(a, i, symbol);
  std::uint64_t rank = cursor.rank + (digit - cursor.digits[i]) * place_value_[i];
  // A later position counted a[i] among its smaller predecessors and now
  // counts `symbol` instead. Sums run modulo 2^64, as above.
  for (unsigned j = i + 1; j < k_; ++j) {
    rank += (std::uint64_t{a[i] < a[j]} - std::uint64_t{symbol < a[j]}) *
            place_value_[j];
  }
  return rank;
}

}  // namespace mmdiag
