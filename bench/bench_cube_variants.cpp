// E3 (Theorem 3): the seven hypercube variants — crossed, twisted, folded,
// enhanced, augmented, shuffle and twisted-N cubes — all diagnose in
// O(n·2^n) with the same generic driver. The table reports absolute time
// and the normalised constant time/(n·2^n), which should stay flat per
// family and comparable across families.
#include "bench_main.hpp"

namespace mmdiag::bench {
namespace {

struct Config {
  const char* spec;
  unsigned n;  // dimension entering the O(n·2^n) bound
};

// Two sizes per family (the smallest certified instance and a larger one).
constexpr Config kConfigs[] = {
    {"crossed_cube 9", 9},        {"crossed_cube 12", 12},
    {"twisted_cube 9", 9},        {"twisted_cube 13", 13},
    {"folded_hypercube 8", 8},    {"folded_hypercube 12", 12},
    {"enhanced_hypercube 9 3", 9}, {"enhanced_hypercube 12 6", 12},
    {"augmented_cube 11", 11},    {"augmented_cube 13", 13},
    {"shuffle_cube 10", 10},      {"shuffle_cube 14", 14},
    {"twisted_n_cube 9", 9},      {"twisted_n_cube 12", 12},
};

void BM_Variant(benchmark::State& state, const Config& config) {
  const auto& inst = instance(config.spec);
  Diagnoser* diag = nullptr;
  try {
    diag = &diagnoser(config.spec);
  } catch (const DiagnosisUnsupportedError& e) {
    state.SkipWithError(e.what());
    return;
  }
  const unsigned delta = diag->delta();
  const FaultSet faults = make_faults(config.spec, delta);
  const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kRandom, 17);
  DiagnosisResult result;
  Timer timer;
  for (auto _ : state) {
    result = diag->diagnose(oracle);
    benchmark::DoNotOptimize(result);
  }
  const double spo =
      state.iterations() ? timer.seconds() / static_cast<double>(state.iterations()) : 0;
  const double nodes = static_cast<double>(inst.graph.num_nodes());
  state.counters["N"] = nodes;
  state.counters["delta"] = delta;
  state.counters["t_norm_ns"] = spo * 1e9 / (config.n * nodes);
  ExperimentTable::get().add_row(
      {inst.topo->info().name, Table::num(std::uint64_t(nodes)),
       Table::num(delta), Table::num(result.probes),
       Table::num(spo * 1e3, 3), Table::num(spo * 1e9 / (config.n * nodes), 3),
       Table::num(result.lookups), result.success ? "yes" : "NO"});
}

void register_all() {
  ExperimentTable::get().init(
      "E3 / Theorem 3 — cube variants, |F| = delta, random faulty testers",
      {"instance", "N", "delta", "probes", "time_ms", "ns_per_nN", "lookups",
       "success"});
  for (const auto& config : kConfigs) {
    std::string name = config.spec;
    for (auto& c : name) {
      if (c == ' ') c = '_';
    }
    benchmark::RegisterBenchmark(name.c_str(), BM_Variant, config)
        ->Unit(benchmark::kMillisecond);
  }
}

const int registered = (register_all(), 0);

}  // namespace
}  // namespace mmdiag::bench

MMDIAG_BENCH_MAIN()
