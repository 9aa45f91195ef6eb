#include "topology/partition.hpp"

#include <stdexcept>

namespace mmdiag {

PrefixBitsPlan::PrefixBitsPlan(unsigned total_bits, unsigned suffix_bits)
    : total_bits_(total_bits), suffix_bits_(suffix_bits) {
  if (suffix_bits == 0 || suffix_bits > total_bits) {
    throw std::invalid_argument("PrefixBitsPlan: bad suffix_bits");
  }
}

std::string PrefixBitsPlan::description() const {
  return "fix top " + std::to_string(total_bits_ - suffix_bits_) +
         " bits (components of 2^" + std::to_string(suffix_bits_) + " nodes)";
}

TuplePrefixPlan::TuplePrefixPlan(unsigned n, unsigned k, unsigned free_digits)
    : n_(n), k_(k), free_digits_(free_digits) {
  if (free_digits == 0 || free_digits > n) {
    throw std::invalid_argument("TuplePrefixPlan: bad free_digits");
  }
  block_ = 1;
  for (unsigned i = 0; i < free_digits; ++i) block_ *= k;
  components_ = 1;
  for (unsigned i = 0; i < n - free_digits; ++i) components_ *= k;
}

std::string TuplePrefixPlan::description() const {
  return "fix top " + std::to_string(n_ - free_digits_) +
         " coordinates (components of " + std::to_string(k_) + "^" +
         std::to_string(free_digits_) + " nodes)";
}

FixLastSymbolPlan::FixLastSymbolPlan(unsigned n, unsigned k)
    : n_(n), k_(k), codec_(n, k) {
  if (k < 2) throw std::invalid_argument("FixLastSymbolPlan: need k >= 2");
  // The codec's odometer visits every rank in order; the component is the
  // symbol in the last position.
  PermCodec::Cursor cursor;
  codec_.seek(0, cursor);
  component_.resize(codec_.count());
  for (std::uint8_t& c : component_) {
    c = static_cast<std::uint8_t>(cursor.symbols[k - 1] - 1);  // 1-based
    codec_.next(cursor);
  }
}

Node FixLastSymbolPlan::seed_of(std::size_t c) const {
  // Arrangement whose last position holds symbol c+1 and whose earlier
  // positions take the smallest other symbols in ascending order.
  const auto fixed = static_cast<std::uint8_t>(c + 1);
  std::uint8_t a[64];
  std::uint8_t next = 1;
  for (unsigned i = 0; i + 1 < k_; ++i) {
    if (next == fixed) ++next;
    a[i] = next++;
  }
  a[k_ - 1] = fixed;
  return static_cast<Node>(codec_.rank(a));
}

std::uint64_t FixLastSymbolPlan::component_size() const {
  return codec_.count() / n_;
}

std::string FixLastSymbolPlan::description() const {
  return "fix symbol in position " + std::to_string(k_) + " (" +
         std::to_string(n_) + " components)";
}

}  // namespace mmdiag
