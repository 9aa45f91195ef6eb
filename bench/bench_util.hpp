// Shared machinery for the experiment benches (EXPERIMENTS.md E1-E12):
// cached instances and calibrated Diagnosers, deterministic fault sets, and
// a global experiment table. Free of google-benchmark, so the JSON sweep
// drivers (bench_batch, bench_engine) build without it; the
// google-benchmark binaries include bench_main.hpp instead.
#pragma once

#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "core/diagnoser.hpp"
#include "engine/engine.hpp"
#include "graph/graph.hpp"
#include "mm/injector.hpp"
#include "mm/oracle.hpp"
#include "topology/registry.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "util/table.hpp"

namespace mmdiag::bench {

/// The benches' shared calibration owner: every calibrated setup in a
/// bench binary flows through this one DiagnosisEngine, sized so no bench
/// sweep evicts (bench_engine measures eviction with engines of its own).
inline DiagnosisEngine& engine() {
  static DiagnosisEngine e([] {
    EngineOptions options;
    options.cache_capacity = 64;
    options.threads = 1;
    return options;
  }());
  return e;
}

/// Cached topology+graph instances (graph construction dominates setup).
/// Deliberately *not* a Calibration: several benches probe instances whose
/// default bound cannot certify (that failure mode is itself measured), so
/// this layer stays partition-free; the calibrated paths below go through
/// engine().
struct Instance {
  std::unique_ptr<Topology> topo;
  Graph graph;
};

inline const Instance& instance(const std::string& spec) {
  static std::mutex mu;
  static std::map<std::string, std::unique_ptr<Instance>> cache;
  const std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(spec);
  if (it == cache.end()) {
    auto inst = std::make_unique<Instance>();
    inst->topo = make_topology_from_spec(spec);
    inst->graph = inst->topo->build_graph();
    it = cache.emplace(spec, std::move(inst)).first;
  }
  return *it->second;
}

/// Cached Diagnoser per (spec, rule), calibrated through engine() —
/// calibration is setup cost, not diagnosis cost, exactly as in the
/// paper's accounting. The Diagnoser co-owns its calibration, so the
/// engine's LRU can never invalidate it.
inline Diagnoser& diagnoser(const std::string& spec,
                            ParentRule rule = ParentRule::kSpread) {
  static std::mutex mu;
  static std::map<std::string, std::unique_ptr<Diagnoser>> cache;
  const std::lock_guard<std::mutex> lock(mu);
  const std::string key = spec + "/" + to_string(rule);
  auto it = cache.find(key);
  if (it == cache.end()) {
    DiagnoserOptions options;
    options.rule = rule;
    it = cache.emplace(key, engine().make_diagnoser(spec, options)).first;
  }
  return *it->second;
}

/// Deterministic fault set of the given size for a spec.
inline FaultSet make_faults(const std::string& spec, std::size_t count,
                            std::uint64_t seed = 0x5EED) {
  const auto& inst = instance(spec);
  Rng rng(seed ^ std::hash<std::string>{}(spec));
  return FaultSet(inst.graph.num_nodes(),
                  inject_uniform(inst.graph.num_nodes(), count, rng));
}

/// Global experiment table: benchmarks add rows; main() prints at exit.
class ExperimentTable {
 public:
  static ExperimentTable& get() {
    static ExperimentTable t;
    return t;
  }

  void init(std::string title, std::vector<std::string> headers) {
    const std::lock_guard<std::mutex> lock(mu_);
    title_ = std::move(title);
    table_ = std::make_unique<Table>(std::move(headers));
  }

  void add_row(std::vector<std::string> cells) {
    const std::lock_guard<std::mutex> lock(mu_);
    // Deduplicate: google-benchmark may re-run a benchmark to stabilise
    // timing; keep the most recent row per first cell + second cell key.
    const std::string key = cells[0] + "|" + (cells.size() > 1 ? cells[1] : "");
    if (auto it = row_index_.find(key); it != row_index_.end()) {
      rows_[it->second] = std::move(cells);
      return;
    }
    row_index_[key] = rows_.size();
    rows_.push_back(std::move(cells));
  }

  void print(std::ostream& os) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!table_) return;
    for (auto& row : rows_) table_->add_row(row);
    os << "\n=== " << title_ << " ===\n";
    table_->print(os);
    os << "\nCSV:\n";
    table_->print_csv(os);
  }

 private:
  std::mutex mu_;
  std::string title_;
  std::unique_ptr<Table> table_;
  std::vector<std::vector<std::string>> rows_;
  std::map<std::string, std::size_t> row_index_;
};

}  // namespace mmdiag::bench
