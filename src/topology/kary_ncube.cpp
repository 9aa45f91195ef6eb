#include "topology/kary_ncube.hpp"

#include <stdexcept>

namespace mmdiag {

KAryNCube::KAryNCube(unsigned n, unsigned k) : n_(n), k_(k), codec_(n, k) {
  if (n < 1) throw std::invalid_argument("KAryNCube: need n >= 1");
  if (k < 3) throw std::invalid_argument("KAryNCube: need k >= 3");
  if (codec_.count > (std::uint64_t{1} << 31)) {
    throw std::invalid_argument("KAryNCube: instance too large");
  }
}

bool KAryNCube::excluded_small_case() const {
  // The paper's Theorem 4 exclusion list, as (k, n) pairs.
  static constexpr std::pair<unsigned, unsigned> kExcluded[] = {
      {3, 2}, {3, 3}, {3, 4}, {4, 2}, {4, 3}, {5, 2}};
  for (const auto& [k, n] : kExcluded) {
    if (k == k_ && n == n_) return true;
  }
  return false;
}

TopologyInfo KAryNCube::info() const {
  TopologyInfo t;
  t.name = "Q^" + std::to_string(k_) + "_" + std::to_string(n_);
  t.family = "kary_ncube";
  t.num_nodes = codec_.count;
  t.degree = 2 * n_;
  t.connectivity = 2 * n_;
  t.diagnosability =
      (n_ >= 2 && !excluded_small_case())
          ? diagnosability_by_chang(t.num_nodes, t.degree, t.connectivity)
          : 0;
  return t;
}

void KAryNCube::neighbors(Node u, std::vector<Node>& out) const {
  out.clear();
  std::uint8_t d[64];
  codec_.unrank(u, d);
  std::uint64_t place = 1;
  const auto base = static_cast<std::int64_t>(u);
  for (unsigned i = 0; i < n_; ++i) {
    const auto digit = static_cast<std::int64_t>(d[i]);
    const std::int64_t up = (digit + 1) % k_;
    const std::int64_t down = (digit + k_ - 1) % k_;
    const auto p = static_cast<std::int64_t>(place);
    out.push_back(static_cast<Node>(base + (up - digit) * p));
    out.push_back(static_cast<Node>(base + (down - digit) * p));
    place *= k_;
  }
}

std::string KAryNCube::node_label(Node u) const {
  std::uint8_t d[64];
  codec_.unrank(u, d);
  std::string s = "(";
  for (unsigned i = n_; i-- > 0;) {  // print highest coordinate first
    s += std::to_string(d[i]);
    if (i != 0) s += ",";
  }
  return s + ")";
}

std::vector<std::shared_ptr<const PartitionPlan>> KAryNCube::partition_plans()
    const {
  std::vector<std::shared_ptr<const PartitionPlan>> plans;
  for (unsigned free = 1; free < n_; ++free) {
    plans.push_back(std::make_shared<TuplePrefixPlan>(n_, k_, free));
  }
  return plans;
}

}  // namespace mmdiag
