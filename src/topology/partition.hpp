// Partition plans: disjoint connected components with designated seeds.
//
// The generic driver of §5 needs the node set split into at least δ+1
// disjoint connected subgraphs, each big enough that a fault-free component
// certifies under Set_Builder. A PartitionPlan encodes one such split, and
// component_of() is O(1): a shift or a division for the bit-string and
// k-ary families, a read of a one-byte-per-node table for the permutation
// families (FixLastSymbolPlan).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/mixed_radix.hpp"
#include "util/perm.hpp"
#include "util/types.hpp"

namespace mmdiag {

class PartitionPlan {
 public:
  virtual ~PartitionPlan() = default;

  [[nodiscard]] virtual std::size_t num_components() const = 0;
  [[nodiscard]] virtual std::uint32_t component_of(Node v) const = 0;
  /// A member node of component c, used as the Set_Builder seed.
  [[nodiscard]] virtual Node seed_of(std::size_t c) const = 0;
  [[nodiscard]] virtual std::string description() const = 0;

  /// Nodes per component if uniform (0 if components vary in size).
  [[nodiscard]] virtual std::uint64_t component_size() const = 0;
};

/// Bit-string networks: fix the top (n - suffix_bits) address bits.
/// Component c = id >> suffix_bits; seed = c << suffix_bits.
class PrefixBitsPlan final : public PartitionPlan {
 public:
  PrefixBitsPlan(unsigned total_bits, unsigned suffix_bits);

  [[nodiscard]] std::size_t num_components() const override {
    return std::size_t{1} << (total_bits_ - suffix_bits_);
  }
  [[nodiscard]] std::uint32_t component_of(Node v) const override {
    return static_cast<std::uint32_t>(v >> suffix_bits_);
  }
  [[nodiscard]] Node seed_of(std::size_t c) const override {
    return static_cast<Node>(c << suffix_bits_);
  }
  [[nodiscard]] std::uint64_t component_size() const override {
    return std::uint64_t{1} << suffix_bits_;
  }
  [[nodiscard]] std::string description() const override;

  [[nodiscard]] unsigned suffix_bits() const noexcept { return suffix_bits_; }

 private:
  unsigned total_bits_;
  unsigned suffix_bits_;
};

/// k-ary tuple networks: fix the top (n - free_digits) coordinates.
class TuplePrefixPlan final : public PartitionPlan {
 public:
  TuplePrefixPlan(unsigned n, unsigned k, unsigned free_digits);

  [[nodiscard]] std::size_t num_components() const override {
    return static_cast<std::size_t>(components_);
  }
  [[nodiscard]] std::uint32_t component_of(Node v) const override {
    return static_cast<std::uint32_t>(v / block_);
  }
  [[nodiscard]] Node seed_of(std::size_t c) const override {
    return static_cast<Node>(c * block_);
  }
  [[nodiscard]] std::uint64_t component_size() const override { return block_; }
  [[nodiscard]] std::string description() const override;

  [[nodiscard]] unsigned free_digits() const noexcept { return free_digits_; }

 private:
  unsigned n_;
  unsigned k_;
  unsigned free_digits_;
  std::uint64_t block_;       // k^free_digits
  std::uint64_t components_;  // k^(n-free_digits)
};

/// Permutation-labelled networks: fix the symbol in the last position
/// (the paper's "kth component"), yielding n components.
///
/// Restricted Set_Builder runs ask component_of once per scanned
/// neighbour, so the constructor walks every rank once, in rank
/// (= lexicographic) order, and stores each node's component in one byte:
/// n!/(n-k)! bytes, read back without unranking. The CSR graph the plan
/// partitions holds 6 bytes per adjacency slot plus an 8-byte offset per
/// node, so the table is 1/(6Δ+8) of it (1.8% on star 9). The table is immutable after
/// construction, so calibration lanes share it read-only.
class FixLastSymbolPlan final : public PartitionPlan {
 public:
  FixLastSymbolPlan(unsigned n, unsigned k);

  [[nodiscard]] std::size_t num_components() const override { return n_; }
  [[nodiscard]] std::uint32_t component_of(Node v) const override {
    return component_[v];
  }
  [[nodiscard]] Node seed_of(std::size_t c) const override;
  [[nodiscard]] std::uint64_t component_size() const override;
  [[nodiscard]] std::string description() const override;

 private:
  unsigned n_;
  unsigned k_;
  PermCodec codec_;
  std::vector<std::uint8_t> component_;  // rank -> last symbol - 1
};

}  // namespace mmdiag
