// Reference Set_Builder and §5 driver — the seed implementation, kept as an
// independent voice for the bit-identity tests.
//
// Written straight from §4.1/§5 with none of the hot path's structure:
// sorted-vector frontiers re-sorted every round, parent positions
// re-searched through Graph::neighbor_position, membership in per-call
// arrays, and the boundary N(U_r) collected by walking every member's
// adjacency. Results — members, trees, rounds, contributors, faults,
// failure strings AND look-up counts — must match SetBuilder and
// Diagnoser bit for bit (tests/dispatch_equiv_test.cpp and the
// differential fuzzer race them). CSR graphs only; speed is not a goal.
#pragma once

#include <cstdint>

#include "core/certified_partition.hpp"
#include "core/diagnoser.hpp"
#include "core/set_builder.hpp"
#include "graph/graph.hpp"
#include "mm/oracle.hpp"
#include "topology/partition.hpp"
#include "util/types.hpp"

namespace mmdiag {

/// Set_Builder(u0) under `rule`, restricted to component `comp` of `plan`
/// when `plan` is non-null. Same contract and exceptions as
/// SetBuilder::run / run_restricted.
[[nodiscard]] SetBuilderResult reference_set_builder(
    const Graph& g, ParentRule rule, const SyndromeOracle& oracle, Node u0,
    unsigned delta, const PartitionPlan* plan = nullptr,
    std::uint32_t comp = 0);

/// The §5 driver over reference_set_builder: probes under options.rule,
/// the final run under options.final_rule, bound partition.delta. Resets
/// the oracle's look-up counter first, like Diagnoser::diagnose. Timing
/// fields are left zero.
[[nodiscard]] DiagnosisResult reference_diagnose(
    const Graph& g, const CertifiedPartition& partition,
    const DiagnoserOptions& options, const SyndromeOracle& oracle);

}  // namespace mmdiag
