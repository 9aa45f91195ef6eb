#include "engine/engine.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "topology/registry.hpp"
#include "util/timer.hpp"

namespace mmdiag {

namespace {

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
      pool_(options.threads) {}

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

DiagnosisEngine::Admission DiagnosisEngine::admit(
    const EngineRequest& request) {
  const bool mmstar = request.oracle != nullptr;
  Admission out;
  out.calibration = get_or_build(
      request.spec, options_.diagnoser.delta, options_.diagnoser.rule,
      options_.diagnoser.validate_all_components,
      mmstar ? DiagnosisModel::kMMStar : request.directed->model(),
      &out.reused);
  const Graph* graph = mmstar ? (request.oracle->has_graph()
                                     ? &request.oracle->graph()
                                     : nullptr)
                              : &request.directed->graph();
  if (graph != nullptr) out.refusal = graph_mismatch(*graph, *out.calibration);
  return out;
}

DiagnosisResult DiagnosisEngine::answer(const EngineRequest& request) {
  const Timer setup_timer;
  Admission admitted = admit(request);
  if (!admitted.refusal.empty()) {
    return failed(std::move(admitted.refusal), admitted.reused,
                  setup_timer.seconds());
  }
  const Calibration& cal = *admitted.calibration;
  DiagnosisResult out;
  double setup_seconds = 0;
  if (request.oracle != nullptr) {
    Diagnoser driver(graph_handle(admitted.calibration), cal.partition,
                     options_.diagnoser);
    setup_seconds = setup_timer.seconds();
    out = driver.diagnose(*request.oracle);
  } else if (request.local_node == kNoNode) {
    DirectedDiagnoser driver(cal.graph, cal.delta());
    setup_seconds = setup_timer.seconds();
    out = driver.diagnose(*request.directed);
  } else {
    // A local request: the BGM fast path answers from neighbourhood reads,
    // and only its kUnknown builds a driver for the global solve, which is
    // then narrowed to the one node (its look-ups include the fast path's
    // inconclusive reads).
    setup_seconds = setup_timer.seconds();
    const Timer solve_timer;
    const Node node = request.local_node;
    const LocalDiagnosisResult local =
        bgm_local_diagnose(cal.graph, *request.directed, node);
    if (local.status == LocalDiagnosisStatus::kUnknown) {
      out = DirectedDiagnoser(cal.graph, cal.delta())
                .diagnose(*request.directed);
      if (out.success) {
        const bool faulty =
            std::binary_search(out.faults.begin(), out.faults.end(), node);
        out.faults.clear();
        if (faulty) out.faults.push_back(node);
      }
    } else {
      out.success = true;
      if (local.status == LocalDiagnosisStatus::kFaulty) {
        out.faults.push_back(node);
      }
      out.used_local_fast_path = true;
    }
    out.lookups += local.lookups;
    out.diagnose_seconds = solve_timer.seconds();
  }
  out.calibration_reused = admitted.reused;
  out.setup_seconds = setup_seconds;
  return out;
}

DiagnosisResult DiagnosisEngine::diagnose(const std::string& spec,
                                          const SyndromeOracle& oracle) {
  return answer(EngineRequest{spec, &oracle, nullptr, kNoNode});
}

DiagnosisResult DiagnosisEngine::diagnose_directed(
    const std::string& spec, const DirectedOracle& oracle) {
  return answer(EngineRequest{spec, nullptr, &oracle, kNoNode});
}

DiagnosisResult DiagnosisEngine::local_diagnose(const std::string& spec,
                                                const DirectedOracle& oracle,
                                                Node node) {
  // kNoNode would read as a global request: let the fast path reject it
  // (model first, then range) as it rejects every out-of-range node.
  if (node == kNoNode) (void)bgm_local_diagnose(oracle.graph(), oracle, node);
  return answer(EngineRequest{spec, nullptr, &oracle, node});
}

std::vector<DiagnosisResult> DiagnosisEngine::serve(
    const std::vector<EngineRequest>& requests) {
  const std::lock_guard<std::mutex> serve_lock(serve_mu_);
  std::vector<DiagnosisResult> results(requests.size());

  // Bitsliced cohorts: full 64-wide runs of same-spec TableOracle requests
  // (in request order per spec) each become one lockstep solve
  // (Diagnoser::diagnose_cohort) on whichever lane picks them up; the
  // per-spec remainder and every other request stay scalar items.
  // The admit step still runs once per *request*, so cache hit/miss counters
  // and per-request calibration_reused semantics are exactly the scalar
  // path's. Per-syndrome results and look-up counts are bit-identical
  // either way. Malformed requests fail here, before any cohort forms, so
  // only well-formed MM* requests can join one.
  //
  // Requests that name one oracle share its unsynchronised look-up counter,
  // and a cohort would sum their charges into it. So they never join a
  // cohort: the first is a scalar item, and its lane answers the others
  // after it, in request order (next_same[i] is the next request on i's
  // oracle).
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::vector<std::size_t>> cohorts;
  std::vector<std::size_t> scalar_idx;
  std::vector<std::size_t> next_same(requests.size(), kNone);
  {
    std::vector<char> claimed(requests.size(), 0);
    std::unordered_map<const void*, std::size_t> last_on;
    last_on.reserve(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const EngineRequest& rq = requests[i];
      if (const char* why = malformed(rq)) {
        results[i].failure_reason = why;
        claimed[i] = 1;
        continue;
      }
      const void* oracle = rq.oracle != nullptr
                               ? static_cast<const void*>(rq.oracle)
                               : static_cast<const void*>(rq.directed);
      const auto [last, first] = last_on.try_emplace(oracle, i);
      if (!first) {
        next_same[last->second] = i;
        claimed[i] = 1;
        last->second = i;
      }
    }
    std::unordered_map<std::string, std::vector<std::size_t>> by_spec;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const EngineRequest& rq = requests[i];
      // The head of a shared-oracle chain stays scalar too.
      if (claimed[i] != 0 || next_same[i] != kNone) continue;
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

  // Every item builds its own driver on the admitted calibration, so no
  // lane holds a calibration past its item.
  pool_.parallel_for(
      cohorts.size() + scalar_idx.size(),
      [&](unsigned, std::size_t item) {
        if (item >= cohorts.size()) {
          for (std::size_t i = scalar_idx[item - cohorts.size()]; i != kNone;
               i = next_same[i]) {
            try {
              results[i] = answer(requests[i]);
            } catch (const std::exception& e) {
              // A malformed or unsupported request fails alone.
              results[i] = DiagnosisResult{};
              results[i].failure_reason =
                  std::string("engine setup failed: ") + e.what();
            }
          }
          return;
        }
        const std::vector<std::size_t>& idx = cohorts[item];
        try {
          const Timer setup_timer;
          std::vector<Admission> admitted;
          admitted.reserve(idx.size());
          for (const std::size_t i : idx) admitted.push_back(admit(requests[i]));
          Diagnoser diagnoser(graph_handle(admitted.back().calibration),
                              admitted.back().calibration->partition,
                              options_.diagnoser);
          const double setup_seconds = setup_timer.seconds();
          // A lane whose oracle does not match the calibrated graph fails
          // alone; the others solve as a narrower cohort, which leaves
          // their results and look-ups unchanged.
          std::vector<std::size_t> lanes;  // positions k into idx
          std::vector<const TableOracle*> cohort;
          lanes.reserve(idx.size());
          cohort.reserve(idx.size());
          for (std::size_t k = 0; k < idx.size(); ++k) {
            if (!admitted[k].refusal.empty()) {
              results[idx[k]] = failed(std::move(admitted[k].refusal),
                                       admitted[k].reused, setup_seconds);
              continue;
            }
            lanes.push_back(k);
            cohort.push_back(
                static_cast<const TableOracle*>(requests[idx[k]].oracle));
          }
          if (lanes.empty()) return;
          auto res = diagnoser.diagnose_cohort(cohort);
          for (std::size_t c = 0; c < lanes.size(); ++c) {
            const std::size_t k = lanes[c];
            res[c].calibration_reused = admitted[k].reused;
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
