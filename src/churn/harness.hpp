// Churn harness — replay a stream, differentially checking warm vs cold.
//
// After every topology event the incremental certification state must equal
// a cold recertification of every component; after every diagnose /
// diagnose-delta event the warm answer (incremental certification + solve
// cache) must be bit-identical — outcomes, faults, failure strings AND
// counted look-ups — to diagnose_cold(), which recertifies and re-solves
// everything from scratch. Expected-error events must throw
// std::invalid_argument and leave the state unchanged. Any violation
// becomes a divergence string; the report doubles as the accounting source
// for the warm-vs-cold work ratio (components recertified incrementally vs
// what cold recalibration would have recertified).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "churn/churn_stream.hpp"
#include "engine/engine.hpp"
#include "mm/behavior.hpp"

namespace mmdiag {

struct ChurnHarnessOptions {
  /// Materialise a syndrome table per diagnose event instead of the
  /// default on-demand LazyOracle.
  bool use_table_oracle = false;
  FaultyBehavior behavior = FaultyBehavior::kRandom;
};

struct ChurnHarnessReport {
  std::size_t events = 0;
  std::size_t topology_events = 0;
  std::size_t diagnose_events = 0;
  std::size_t delta_events = 0;
  std::size_t expected_errors = 0;
  std::size_t degraded_components_seen = 0;  // across all diagnose events
  std::size_t empty_components_seen = 0;
  std::size_t cache_reuses = 0;  // diagnose-delta answers served from cache
  /// Incremental recertification work vs what cold recalibration would do:
  /// the warm-vs-cold headline ratio of BENCH_churn.json.
  std::uint64_t warm_recert_components = 0;
  std::uint64_t cold_recert_components = 0;
  std::vector<std::string> divergences;

  [[nodiscard]] bool ok() const noexcept { return divergences.empty(); }
};

/// Replay `stream` against a ChurnEngine built through `engine`. Never
/// throws on divergence — everything lands in the report (setup errors,
/// e.g. an unknown spec, still propagate).
[[nodiscard]] ChurnHarnessReport run_churn_stream(
    DiagnosisEngine& engine, const ChurnStream& stream,
    const ChurnHarnessOptions& options = {});

}  // namespace mmdiag
