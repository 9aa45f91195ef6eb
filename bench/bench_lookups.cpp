// E8 (§6): syndrome look-up economy. The paper bounds our consultations by
// (Δ-1)(Δ/2 + |U_r| - 1) for the final run and contrasts with consuming the
// whole syndrome table (Σ_u d(d-1)/2), which is what per-node local schemes
// like Chiang-Tan approach. This bench measures, per family:
//   - our measured look-ups (probes + final run),
//   - the paper's final-run bound,
//   - the full table size and the fraction of it we touched,
//   - Chiang-Tan's measured look-ups (hypercube instances).
// No timing — a single diagnosis per instance (Iterations(1)).
#include "baselines/chiang_tan.hpp"
#include "bench_main.hpp"
#include <cmath>

#include "topology/hypercube.hpp"

namespace mmdiag::bench {
namespace {

constexpr const char* kSpecs[] = {
    "hypercube 10", "hypercube 14",  "crossed_cube 12", "folded_hypercube 12",
    "shuffle_cube 14", "kary_ncube 3 13", "star 8",     "pancake 8",
    "arrangement 10 4",
};

std::uint64_t full_table_size(const Graph& g) {
  std::uint64_t total = 0;
  for (std::size_t u = 0; u < g.num_nodes(); ++u) {
    const std::uint64_t d = g.degree(static_cast<Node>(u));
    total += d * (d - 1) / 2;
  }
  return total;
}

void BM_Lookups(benchmark::State& state, const std::string& spec) {
  const auto& inst = instance(spec);
  Diagnoser* diag = nullptr;
  try {
    diag = &diagnoser(spec);
  } catch (const DiagnosisUnsupportedError& e) {
    state.SkipWithError(e.what());
    return;
  }
  const unsigned delta = diag->delta();
  const FaultSet faults = make_faults(spec, delta);
  const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kRandom, 41);
  DiagnosisResult result;
  Timer timer;
  for (auto _ : state) {
    result = diag->diagnose(oracle);
    benchmark::DoNotOptimize(result);
  }

  const std::uint64_t max_deg = inst.graph.max_degree();
  const std::uint64_t paper_bound =
      (max_deg - 1) * (max_deg / 2 + result.final_members - 1) + max_deg;
  const std::uint64_t table = full_table_size(inst.graph);

  // Chiang-Tan on the same syndrome where an extended-star provider exists.
  std::string ct_lookups = "-";
  if (inst.topo->info().family == "hypercube") {
    const Hypercube topo(
        static_cast<unsigned>(std::log2(inst.graph.num_nodes())));
    const auto ct = ChiangTanDiagnoser::for_hypercube(topo, inst.graph);
    const LazyOracle ct_oracle(inst.graph, faults, FaultyBehavior::kRandom, 41);
    const auto ct_result = ct.diagnose(ct_oracle);
    ct_lookups = Table::num(ct_result.lookups);
  }

  state.counters["lookups"] = static_cast<double>(result.lookups);
  state.counters["table"] = static_cast<double>(table);
  ExperimentTable::get().add_row(
      {inst.topo->info().name, Table::num(inst.graph.num_nodes()),
       Table::num(result.lookups), Table::num(paper_bound), Table::num(table),
       Table::num(100.0 * static_cast<double>(result.lookups) /
                      static_cast<double>(table),
                  1) +
           "%",
       ct_lookups, result.success ? "yes" : "NO"});
}

void register_all() {
  ExperimentTable::get().init(
      "E8 / §6 — syndrome look-ups: ours vs paper bound vs full table vs "
      "Chiang-Tan",
      {"instance", "N", "ours_lookups", "paper_final_bound", "full_table",
       "touched", "chiang_tan", "success"});
  for (const char* spec : kSpecs) {
    std::string name = spec;
    for (auto& c : name) {
      if (c == ' ') c = '_';
    }
    benchmark::RegisterBenchmark(name.c_str(), BM_Lookups, std::string(spec))
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

const int registered = (register_all(), 0);

}  // namespace
}  // namespace mmdiag::bench

MMDIAG_BENCH_MAIN()
