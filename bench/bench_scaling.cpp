// E1 (Theorem 1 / §4.2): the driver runs in O(Δ·N) on EVERY supported
// family. The table reports time/(Δ·N) — the hidden constant — which should
// sit in a narrow band across families and sizes, demonstrating that the
// bound, not the topology, governs the cost.
#include "bench_main.hpp"

namespace mmdiag::bench {
namespace {

constexpr const char* kSpecs[] = {
    "hypercube 10",      "hypercube 14",        "crossed_cube 9",
    "crossed_cube 12",   "twisted_cube 9",      "twisted_cube 13",
    "folded_hypercube 8", "folded_hypercube 12", "enhanced_hypercube 9 3",
    "augmented_cube 11", "shuffle_cube 10",     "shuffle_cube 14",
    "twisted_n_cube 9",  "twisted_n_cube 12",   "kary_ncube 2 15",
    "kary_ncube 3 13",   "augmented_kary_ncube 2 15",
    "star 7",            "star 8",              "nk_star 8 5",
    "pancake 7",         "pancake 8",           "arrangement 8 3",
    "arrangement 10 4",
};

void BM_Scaling(benchmark::State& state, const std::string& spec) {
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
  const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kRandom, 37);
  DiagnosisResult result;
  Timer timer;
  for (auto _ : state) {
    result = diag->diagnose(oracle);
    benchmark::DoNotOptimize(result);
  }
  const double spo =
      state.iterations() ? timer.seconds() / static_cast<double>(state.iterations()) : 0;
  const double dn = static_cast<double>(inst.graph.num_nodes()) *
                    inst.graph.max_degree();
  state.counters["ns_per_DN"] = spo * 1e9 / dn;
  ExperimentTable::get().add_row(
      {inst.topo->info().name, inst.topo->info().family,
       Table::num(inst.graph.num_nodes()), Table::num(inst.graph.max_degree()),
       Table::num(delta), Table::num(spo * 1e3, 3),
       Table::num(spo * 1e9 / dn, 3), result.success ? "yes" : "NO"});
}

void register_all() {
  ExperimentTable::get().init(
      "E1 / Theorem 1 — O(Delta*N) scaling across all supported families "
      "(ns_per_DN should sit in a narrow band)",
      {"instance", "family", "N", "Delta", "delta", "time_ms", "ns_per_DN",
       "success"});
  for (const char* spec : kSpecs) {
    std::string name = spec;
    for (auto& c : name) {
      if (c == ' ') c = '_';
    }
    benchmark::RegisterBenchmark(name.c_str(), BM_Scaling, std::string(spec))
        ->Unit(benchmark::kMillisecond);
  }
}

const int registered = (register_all(), 0);

}  // namespace
}  // namespace mmdiag::bench

MMDIAG_BENCH_MAIN()
