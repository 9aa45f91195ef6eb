// OverlayOracle — churn-as-syndrome masking.
//
// Set_Builder admits a node only on a 0-test result, so making every test
// that involves a removed node or dead edge read as 1 ("mismatch") keeps
// dead elements out of every run without touching the solver: they are
// simply never admitted, exactly as an all-faulty cluster would be. The
// wrapper is no TableOracle, so it is never read by packed rows (cohorts)
// and masked tests are counted one by one — identically on the warm
// incremental path and the cold reference path, which is what makes counted
// look-ups comparable bit-for-bit between the two.
#pragma once

#include <cstdint>

#include "churn/topology_overlay.hpp"
#include "mm/oracle.hpp"

namespace mmdiag {

class OverlayOracle final : public SyndromeOracle {
 public:
  OverlayOracle(const TopologyOverlay& overlay, const SyndromeOracle& inner)
      : overlay_(overlay), inner_(inner) {}

 protected:
  [[nodiscard]] bool test_impl(Node u, unsigned i,
                               unsigned j) const override {
    if (overlay_.node_removed(u)) return true;
    const std::uint64_t dead = overlay_.dead_mask(u);
    if ((dead >> i) & 1) return true;
    if ((dead >> j) & 1) return true;
    return inner_.test(u, i, j);
  }

 private:
  const TopologyOverlay& overlay_;
  const SyndromeOracle& inner_;
};

}  // namespace mmdiag
