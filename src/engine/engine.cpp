#include "engine/engine.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "topology/registry.hpp"
#include "util/timer.hpp"

namespace mmdiag {

namespace {

/// Result convention for a definite local answer: success about one node.
DiagnosisResult definite_local(LocalDiagnosisStatus status,
                               std::uint64_t lookups, Node node) {
  DiagnosisResult out;
  out.success = true;
  if (status == LocalDiagnosisStatus::kFaulty) out.faults.push_back(node);
  out.lookups = lookups;
  out.used_local_fast_path = true;
  return out;
}

/// Narrow a global solve down to the one node a local request asked about,
/// folding the fast path's (inconclusive) reads into the look-up count.
DiagnosisResult restrict_to_node(DiagnosisResult global, Node node,
                                 std::uint64_t local_lookups) {
  global.lookups += local_lookups;
  if (global.success) {
    const bool faulty = std::binary_search(global.faults.begin(),
                                           global.faults.end(), node);
    global.faults.clear();
    if (faulty) global.faults.push_back(node);
  }
  return global;
}

/// One directed request, start to finish: a plain global solve, or —
/// when local_node is set — the BGM fast path with global fallback.
DiagnosisResult run_directed(DirectedDiagnoser& driver, const Graph& graph,
                             const DirectedOracle& oracle, Node local_node) {
  if (local_node == kNoNode) return driver.diagnose(oracle);
  const Timer timer;
  const LocalDiagnosisResult local =
      bgm_local_diagnose(graph, oracle, local_node);
  if (local.status != LocalDiagnosisStatus::kUnknown) {
    DiagnosisResult out = definite_local(local.status, local.lookups,
                                         local_node);
    out.diagnose_seconds = timer.seconds();
    return out;
  }
  DiagnosisResult out =
      restrict_to_node(driver.diagnose(oracle), local_node, local.lookups);
  out.diagnose_seconds = timer.seconds();
  return out;
}

bool same_degree_sequence(const Graph& a, const Graph& b) {
  if (a.num_nodes() != b.num_nodes()) return false;
  if (a.min_degree() == a.max_degree() && b.min_degree() == b.max_degree()) {
    return a.min_degree() == b.min_degree();
  }
  for (Node u = 0; u < a.num_nodes(); ++u) {
    if (a.degree(u) != b.degree(u)) return false;
  }
  return true;
}

/// Why an oracle over `graph` cannot be read against `cal`, or empty when
/// it can. The solver addresses the syndrome through the calibrated graph's
/// adjacency, so a syndrome laid out for another node count or degree
/// sequence would be read out of bounds. The served paths build oracles
/// over cal->graph itself, which passes at once.
std::string graph_mismatch(const Graph& graph, const Calibration& cal) {
  if (&graph == &cal.graph || same_degree_sequence(graph, cal.graph)) {
    return {};
  }
  return "oracle graph (" + std::to_string(graph.num_nodes()) +
         " nodes) does not match the calibrated topology " + cal.spec +
         " (" + std::to_string(cal.topology->info().num_nodes) +
         " nodes) in node count or degree sequence";
}

std::string graph_mismatch(const SyndromeOracle& oracle,
                           const Calibration& cal) {
  return oracle.has_graph() ? graph_mismatch(oracle.graph(), cal)
                            : std::string{};
}

DiagnosisResult failed(std::string reason, bool reused,
                       double setup_seconds) {
  DiagnosisResult out;
  out.failure_reason = std::move(reason);
  out.calibration_reused = reused;
  out.setup_seconds = setup_seconds;
  return out;
}

/// Why serve() must refuse a request outright, or null when it is well
/// formed.
const char* malformed(const EngineRequest& request) {
  if (request.oracle != nullptr && request.directed != nullptr) {
    return "request carries both an MM* and a directed oracle";
  }
  if (request.oracle == nullptr && request.directed == nullptr) {
    return "null oracle in request";
  }
  if (request.local_node != kNoNode && request.directed == nullptr) {
    return "local_node is set but the request has no directed oracle";
  }
  return nullptr;
}

EngineOptions checked(EngineOptions options) {
  if (options.shards != 1) {
    throw std::invalid_argument(
        "EngineOptions::shards must be 1: every solve is monolithic");
  }
  return options;
}

}  // namespace

DiagnosisEngine::DiagnosisEngine(EngineOptions options)
    : options_(checked(options)),
      capacity_(options.cache_capacity == 0 ? 1 : options.cache_capacity),
      pool_(options.threads),
      lane_scratch_(pool_.size()) {}

DiagnosisEngine::ResolvedKey DiagnosisEngine::resolve(
    const std::string& spec, unsigned delta, ParentRule rule,
    bool validate_all, DiagnosisModel model) const {
  ResolvedKey out;
  out.topology = make_topology_from_spec(spec);
  out.delta = delta != 0 ? delta : out.topology->default_fault_bound();
  // out.delta may still be 0 (diagnosability unknown): the key is then never
  // inserted because build_calibration throws its descriptive error first.
  out.key = out.topology->spec();
  out.key += "|delta=" + std::to_string(out.delta);
  out.key += "|rule=" + parent_rule_to_string(rule);
  if (!validate_all) out.key += "|component0-only";
  if (is_directed_model(model)) {
    out.key += "|model=" + diagnosis_model_to_string(model);
  }
  return out;
}

std::shared_ptr<const Calibration> DiagnosisEngine::get_or_build(
    const std::string& spec, unsigned delta, ParentRule rule,
    bool validate_all, DiagnosisModel model, bool* reused) {
  ResolvedKey resolved = resolve(spec, delta, rule, validate_all, model);
  if (reused) *reused = true;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = index_.find(resolved.key); it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++counters_.hits;
      return it->second->calibration;
    }
  }

  // Miss: serialise builds of this key on its stripe (other stripes — other
  // specs — keep calibrating in parallel), then re-check. A racer that
  // loses the stripe finds the winner's entry here and scores a counter
  // *hit* (one build per key, however many threads miss simultaneously) —
  // but it blocked for the whole build, so for latency attribution it is
  // reported as not-reused: calibration_reused describes what this request
  // waited for, the hit/miss counters describe what was built.
  const std::lock_guard<std::mutex> build_lock(
      stripes_[std::hash<std::string>{}(resolved.key) % kStripes]);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = index_.find(resolved.key); it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++counters_.hits;
      if (reused) *reused = false;
      return it->second->calibration;
    }
  }

  std::shared_ptr<const Calibration> built = build_calibration(
      std::move(resolved.topology), resolved.delta, rule, validate_all, model,
      &pool_);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    lru_.push_front(Entry{resolved.key, built});
    index_[resolved.key] = lru_.begin();
    ++counters_.misses;
    while (lru_.size() > capacity_) {
      index_.erase(lru_.back().key);
      lru_.pop_back();
      ++counters_.evictions;  // holders keep the evicted bundle alive
      ++counters_.evictions_lru;
    }
  }
  if (reused) *reused = false;
  return built;
}

std::shared_ptr<const Calibration> DiagnosisEngine::calibration(
    const std::string& spec) {
  return get_or_build(spec, options_.diagnoser.delta, options_.diagnoser.rule,
                      options_.diagnoser.validate_all_components,
                      DiagnosisModel::kMMStar, nullptr);
}

std::shared_ptr<const Calibration> DiagnosisEngine::calibration(
    const std::string& spec, unsigned delta, ParentRule rule,
    bool validate_all, DiagnosisModel model) {
  return get_or_build(spec, delta, rule, validate_all, model, nullptr);
}

DiagnosisResult DiagnosisEngine::diagnose(const std::string& spec,
                                          const SyndromeOracle& oracle) {
  const Timer setup_timer;
  bool reused = false;
  const std::shared_ptr<const Calibration> cal =
      get_or_build(spec, options_.diagnoser.delta, options_.diagnoser.rule,
                   options_.diagnoser.validate_all_components,
                   DiagnosisModel::kMMStar, &reused);

  if (std::string why = graph_mismatch(oracle, *cal); !why.empty()) {
    return failed(std::move(why), reused, setup_timer.seconds());
  }
  const auto diagnoser = std::make_unique<Diagnoser>(
      graph_handle(cal), cal->partition, options_.diagnoser);
  const double setup_seconds = setup_timer.seconds();
  DiagnosisResult result = diagnoser->diagnose(oracle);
  result.calibration_reused = reused;
  result.setup_seconds = setup_seconds;
  return result;
}

DiagnosisResult DiagnosisEngine::diagnose_directed(
    const std::string& spec, const DirectedOracle& oracle) {
  const Timer setup_timer;
  bool reused = false;
  const std::shared_ptr<const Calibration> cal =
      get_or_build(spec, options_.diagnoser.delta, options_.diagnoser.rule,
                   options_.diagnoser.validate_all_components, oracle.model(),
                   &reused);
  if (std::string why = graph_mismatch(oracle.graph(), *cal); !why.empty()) {
    return failed(std::move(why), reused, setup_timer.seconds());
  }
  DirectedDiagnoser driver(cal->graph, cal->delta());
  const double setup_seconds = setup_timer.seconds();
  DiagnosisResult result = driver.diagnose(oracle);
  result.calibration_reused = reused;
  result.setup_seconds = setup_seconds;
  return result;
}

DiagnosisResult DiagnosisEngine::local_diagnose(const std::string& spec,
                                                const DirectedOracle& oracle,
                                                Node node) {
  const Timer setup_timer;
  bool reused = false;
  const std::shared_ptr<const Calibration> cal =
      get_or_build(spec, options_.diagnoser.delta, options_.diagnoser.rule,
                   options_.diagnoser.validate_all_components, oracle.model(),
                   &reused);
  const double setup_seconds = setup_timer.seconds();
  if (std::string why = graph_mismatch(oracle.graph(), *cal); !why.empty()) {
    return failed(std::move(why), reused, setup_seconds);
  }
  const Timer solve_timer;
  const LocalDiagnosisResult local = bgm_local_diagnose(cal->graph, oracle,
                                                        node);
  DiagnosisResult result;
  if (local.status != LocalDiagnosisStatus::kUnknown) {
    // The fast path answered: no DirectedDiagnoser is even constructed —
    // per-request cost stays at the neighbourhood reads.
    result = definite_local(local.status, local.lookups, node);
  } else {
    DirectedDiagnoser driver(cal->graph, cal->delta());
    result = restrict_to_node(driver.diagnose(oracle), node, local.lookups);
  }
  result.diagnose_seconds = solve_timer.seconds();
  result.calibration_reused = reused;
  result.setup_seconds = setup_seconds;
  return result;
}

std::vector<DiagnosisResult> DiagnosisEngine::serve(
    const std::vector<EngineRequest>& requests) {
  const std::lock_guard<std::mutex> serve_lock(serve_mu_);
  std::vector<DiagnosisResult> results(requests.size());

  // Bitsliced cohorts: full 64-wide runs of same-spec TableOracle requests
  // (in request order per spec) each become one lockstep solve
  // (Diagnoser::diagnose_cohort) on whichever lane picks them up; the
  // per-spec remainder and every other request stay scalar items.
  // get_or_build still runs once per *request*, so cache hit/miss counters
  // and per-request calibration_reused semantics are exactly the scalar
  // path's. Per-syndrome results and look-up counts are bit-identical
  // either way. Malformed requests fail here, before any cohort forms, so
  // only well-formed MM* requests can join one.
  std::vector<std::vector<std::size_t>> cohorts;
  std::vector<std::size_t> scalar_idx;
  {
    std::vector<char> claimed(requests.size(), 0);
    std::unordered_map<std::string, std::vector<std::size_t>> by_spec;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const EngineRequest& rq = requests[i];
      if (const char* why = malformed(rq)) {
        results[i].failure_reason = why;
        claimed[i] = 1;
        continue;
      }
      if (rq.oracle != nullptr && rq.oracle->has_graph() &&
          dynamic_cast<const TableOracle*>(rq.oracle) != nullptr &&
          rq.oracle->graph().max_degree() <= 64) {
        by_spec[rq.spec].push_back(i);
      }
    }
    for (auto& [spec, idx] : by_spec) {
      for (std::size_t k = 0; k + BitSlicedOracle::kMaxLanes <= idx.size();
           k += BitSlicedOracle::kMaxLanes) {
        cohorts.emplace_back(idx.begin() + k,
                             idx.begin() + k + BitSlicedOracle::kMaxLanes);
        for (const std::size_t i : cohorts.back()) claimed[i] = 1;
      }
    }
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (claimed[i] == 0) scalar_idx.push_back(i);
    }
  }

  // Lane-local driver per calibration — a Diagnoser for MM* bundles, a
  // DirectedDiagnoser for directed ones (the model is in the cache key, so
  // one calibration is never both): scratch (frontiers, stamp sets) is
  // reused across the stream without crossing threads. Stale entries for
  // evicted calibrations can never be looked up again (the pointer
  // differs), so on overflow those are pruned first — keeping total pinned
  // memory proportional to the cache capacity, not to threads x capacity —
  // and only if every entry is still resident is the map cleared outright.
  auto lane_entry =
      [&](unsigned lane,
          const std::shared_ptr<const Calibration>& cal) -> LaneDiagnoser& {
    auto& scratch = lane_scratch_[lane];
    auto it = scratch.find(cal.get());
    if (it == scratch.end()) {
      if (scratch.size() >= capacity_) {
        prune_stale(scratch);
        if (scratch.size() >= capacity_) scratch.clear();
      }
      LaneDiagnoser entry;
      entry.calibration = cal;
      if (cal->is_directed()) {
        entry.directed =
            std::make_unique<DirectedDiagnoser>(cal->graph, cal->delta());
      } else {
        entry.diagnoser = std::make_unique<Diagnoser>(
            graph_handle(cal), cal->partition, options_.diagnoser);
      }
      it = scratch.emplace(cal.get(), std::move(entry)).first;
    }
    return it->second;
  };

  pool_.parallel_for(
      cohorts.size() + scalar_idx.size(),
      [&](unsigned lane, std::size_t item) {
        if (item < cohorts.size()) {
          const std::vector<std::size_t>& idx = cohorts[item];
          try {
            const Timer setup_timer;
            std::shared_ptr<const Calibration> cal;
            std::array<bool, BitSlicedOracle::kMaxLanes> reused{};
            for (std::size_t k = 0; k < idx.size(); ++k) {
              bool r = false;
              cal = get_or_build(requests[idx[k]].spec,
                                 options_.diagnoser.delta,
                                 options_.diagnoser.rule,
                                 options_.diagnoser.validate_all_components,
                                 DiagnosisModel::kMMStar, &r);
              reused[k] = r;
            }
            Diagnoser& diagnoser = *lane_entry(lane, cal).diagnoser;
            const double setup_seconds = setup_timer.seconds();
            // A lane whose oracle does not match the calibrated graph fails
            // alone; the others solve as a narrower cohort, which leaves
            // their results and look-ups unchanged.
            std::vector<std::size_t> lanes;  // positions k into idx
            lanes.reserve(idx.size());
            for (std::size_t k = 0; k < idx.size(); ++k) {
              std::string why = graph_mismatch(*requests[idx[k]].oracle, *cal);
              if (why.empty()) {
                lanes.push_back(k);
                continue;
              }
              results[idx[k]] =
                  failed(std::move(why), reused[k], setup_seconds);
            }
            if (lanes.empty()) return;
            std::vector<const TableOracle*> cohort;
            cohort.reserve(lanes.size());
            for (const std::size_t k : lanes) {
              cohort.push_back(
                  static_cast<const TableOracle*>(requests[idx[k]].oracle));
            }
            auto res = diagnoser.diagnose_cohort(cohort);
            for (std::size_t c = 0; c < lanes.size(); ++c) {
              const std::size_t k = lanes[c];
              res[c].calibration_reused = reused[k];
              res[c].setup_seconds = setup_seconds;
              results[idx[k]] = std::move(res[c]);
            }
          } catch (const std::exception& e) {
            // A failing cohort fails alone; the stream goes on.
            for (const std::size_t i : idx) {
              results[i] = DiagnosisResult{};
              results[i].failure_reason =
                  std::string("engine setup failed: ") + e.what();
            }
          }
          return;
        }
        const std::size_t i = scalar_idx[item - cohorts.size()];
        const EngineRequest& request = requests[i];
        DiagnosisResult& out = results[i];
        try {
          const Timer setup_timer;
          bool reused = false;
          if (request.directed != nullptr) {
            const std::shared_ptr<const Calibration> cal = get_or_build(
                request.spec, options_.diagnoser.delta,
                options_.diagnoser.rule,
                options_.diagnoser.validate_all_components,
                request.directed->model(), &reused);
            std::string why = graph_mismatch(request.directed->graph(), *cal);
            if (!why.empty()) {
              out = failed(std::move(why), reused, setup_timer.seconds());
              return;
            }
            DirectedDiagnoser& driver = *lane_entry(lane, cal).directed;
            const double setup_seconds = setup_timer.seconds();
            out = run_directed(driver, cal->graph, *request.directed,
                               request.local_node);
            out.calibration_reused = reused;
            out.setup_seconds = setup_seconds;
            return;
          }
          const std::shared_ptr<const Calibration> cal = get_or_build(
              request.spec, options_.diagnoser.delta, options_.diagnoser.rule,
              options_.diagnoser.validate_all_components,
              DiagnosisModel::kMMStar, &reused);
          std::string why = graph_mismatch(*request.oracle, *cal);
          if (!why.empty()) {
            out = failed(std::move(why), reused, setup_timer.seconds());
            return;
          }
          Diagnoser& diagnoser = *lane_entry(lane, cal).diagnoser;
          const double setup_seconds = setup_timer.seconds();
          out = diagnoser.diagnose(*request.oracle);
          out.calibration_reused = reused;
          out.setup_seconds = setup_seconds;
        } catch (const std::exception& e) {
          // A malformed or unsupported request fails alone.
          out = DiagnosisResult{};
          out.failure_reason = std::string("engine setup failed: ") + e.what();
        }
      });
  return results;
}

std::unique_ptr<Diagnoser> DiagnosisEngine::make_diagnoser(
    const std::string& spec) {
  return make_diagnoser(spec, options_.diagnoser);
}

std::unique_ptr<Diagnoser> DiagnosisEngine::make_diagnoser(
    const std::string& spec, const DiagnoserOptions& diagnoser_options) {
  const std::shared_ptr<const Calibration> cal = get_or_build(
      spec, diagnoser_options.delta, diagnoser_options.rule,
      diagnoser_options.validate_all_components, DiagnosisModel::kMMStar,
      nullptr);
  return std::make_unique<Diagnoser>(graph_handle(cal), cal->partition,
                                     diagnoser_options);
}

void DiagnosisEngine::prune_stale(
    std::unordered_map<const Calibration*, LaneDiagnoser>& scratch) const {
  std::unordered_set<const Calibration*> resident;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    resident.reserve(lru_.size());
    for (const Entry& entry : lru_) resident.insert(entry.calibration.get());
  }
  std::erase_if(scratch, [&](const auto& kv) {
    return resident.find(kv.first) == resident.end();
  });
}

std::size_t DiagnosisEngine::invalidate(const std::string& spec) {
  // Canonicalise through the registry so "hypercube  07" retires the
  // "hypercube 7" entries; unknown specs throw rather than silently
  // matching nothing.
  const std::string stem = make_topology_from_spec(spec)->spec();
  const std::string prefix = stem + "|";
  std::size_t dropped = 0;
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->key == stem || it->key.rfind(prefix, 0) == 0) {
      index_.erase(it->key);
      it = lru_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  counters_.evictions += dropped;
  counters_.evictions_explicit += dropped;
  return dropped;
}

std::size_t DiagnosisEngine::invalidate_all() {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::size_t dropped = lru_.size();
  index_.clear();
  lru_.clear();
  counters_.evictions += dropped;
  counters_.evictions_explicit += dropped;
  return dropped;
}

EngineCounters DiagnosisEngine::counters() const {
  const std::lock_guard<std::mutex> lock(mu_);
  EngineCounters out = counters_;
  out.entries = lru_.size();
  return out;
}

}  // namespace mmdiag
