// reqbench — the request-level benchmark of mmdiag.
//
// One request is syndrome bytes in and a fault set (or a refusal) out,
// through DiagnosisEngine in the configuration the engine serves: the
// certified partition validated on every component, syndromes held in
// memory as Syndrome tables, and no more engine lanes than the CPUs this
// process may run on. Three closed-loop workloads, one client each:
//
//   cold_file    the `mmdiag_cli diagnose FILE --verify` path in process:
//                a fresh one-lane CSR engine per request reads a text v1
//                file, parses it through the engine resolver, calibrates,
//                diagnoses and verifies. Hypercube 18 and star 9 alternate.
//                Ingest, graph build, cold calibration and verification sit
//                on the request path; the solve is a few per cent of it.
//   warm_stream  back-to-back serve() batches of small-graph table
//                syndromes on a warmed engine. Each spec's share of a batch
//                leaves a remainder past its 64-wide cohorts, so every call
//                runs bitsliced cohorts and scalar items side by side.
//   warm_large   one diagnose() per request on a warmed CSR engine over
//                hypercube 18 and star 9 tables, whose working set exceeds
//                the last-level cache: the scalar driver and the per-call
//                Diagnoser set latency.
//
// Every answer is checked against the injected fault set, which Theorem 1
// makes the unique answer while |F| <= delta. Inputs come from --seed and
// are generated before any timing starts.
//
// --trace 0 prints the end-to-end metrics. Their times are at a reference
// host speed: next to every timed call the benchmark times a fixed kernel
// on the CPUs the call runs on and scales the call's wall time by its
// speed (host_clock.hpp), because the shared host's speed moves by up to
// 2x from minute to minute. The wall-clock figures are printed beside them.
//
// --trace 1 runs the same loop untraced and then traced, records a span
// around every call the benchmark makes into a layer's public function,
// replays each solve's probes and final run through SetBuilder, and prints
// the per-layer metrics (wall-clock times) plus the tracing overhead.
// --smoke shrinks every instance so the whole schema can be exercised in
// seconds.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is non-zero when any answer was wrong or any check failed.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "core/certified_partition.hpp"
#include "core/diagnoser.hpp"
#include "core/set_builder.hpp"
#include "core/verifier.hpp"
#include "engine/engine.hpp"
#include "host_clock.hpp"
#include "io/syndrome_io.hpp"
#include "mm/behavior.hpp"
#include "mm/fault_set.hpp"
#include "mm/injector.hpp"
#include "mm/oracle.hpp"
#include "mm/syndrome.hpp"
#include "topology/registry.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace mmdiag;
using bench::JsonField;
using bench::JsonValue;
using reqbench::HostClock;
using reqbench::Scope;
using reqbench::Tracer;

// Layer times from a traced request must cover its root span up to this
// share; the rest is benchmark glue between the layer calls.
constexpr double kLayerSumTolerance = 0.05;

// Host-speed kernel runs sampled on each side of a timed set-up step.
constexpr int kSetupSamples = 4;

// The end-to-end tail is at most this percentile, so that a full run, whose
// sample count moves with the host's speed, always reports the same one.
constexpr int kTailPercentile = 95;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string data_dir = ".bench_build/reqbench-data";
  std::string out_dir = ".bench_build/reqbench-out";
};

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;
  bool in_result = true;  // false: printed, but not a metric of the result
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<JsonField> config;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checks_ok = true;

  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "", bool in_result = true) {
    metrics.push_back(Metric{name, value, unit, note, in_result});
  }

  void check(bool ok, const std::string& what) {
    std::cout << "check " << (ok ? "ok   " : "FAIL ") << what << "\n";
    if (!ok) checks_ok = false;
  }

  void count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

unsigned affinity_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

/// Engine lanes: every CPU this process may run on, never more.
unsigned serving_lanes() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned affinity = affinity_threads();
  return affinity == 0 ? hw : std::min(hw, affinity);
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string fmt(double v, int precision = 6) {
  std::ostringstream os;
  os << std::setprecision(precision) << v;
  return os.str();
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// The configuration a workload actually served, recorded with every result.
void record_config(Report& report, const Args& args,
                   const EngineOptions& options, unsigned lanes,
                   const std::vector<std::string>& specs) {
  std::vector<JsonValue> spec_values;
  for (const std::string& s : specs) spec_values.push_back(JsonValue::str(s));
  report.config = {
      {"workload", JsonValue::str(args.workload)},
      {"seed", JsonValue::num(args.seed)},
      {"seconds", JsonValue::num(args.seconds)},
      {"trace", JsonValue::boolean(args.trace)},
      {"smoke", JsonValue::boolean(args.smoke)},
      {"specs", bench::json_array(spec_values)},
      {"engine_lanes", JsonValue::num(lanes)},
      {"graph_mode", JsonValue::str(graph_mode_to_string(options.graph_mode))},
      {"shards", JsonValue::num(options.shards)},
      {"rule", JsonValue::str(parent_rule_to_string(options.diagnoser.rule))},
      {"final_rule",
       JsonValue::str(parent_rule_to_string(options.diagnoser.final_rule))},
      {"validate_all",
       JsonValue::boolean(options.diagnoser.validate_all_components)},
      {"cache_capacity", JsonValue::num(options.cache_capacity)},
      {"hardware_concurrency",
       JsonValue::num(std::thread::hardware_concurrency())},
      {"affinity_threads", JsonValue::num(affinity_threads())},
      {"compiler", JsonValue::str(compiler())},
      {"build_type", JsonValue::str(REQBENCH_BUILD_TYPE)},
  };
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// Seeded syndromes of one spec: fault counts spread evenly over 0..delta
/// in a seeded order, faulty testers rotating through the four
/// FaultyBehaviors.
struct SpecPool {
  std::string spec;
  unsigned delta = 0;
  std::vector<std::unique_ptr<Syndrome>> syndromes;
  std::vector<std::vector<Node>> truths;  // sorted ascending
  std::uint64_t syndrome_bytes = 0;
};

std::uint64_t item_seed(std::uint64_t seed, std::size_t spec_index,
                        std::size_t item) {
  return seed * 0x9E3779B97F4A7C15ULL +
         (spec_index + 1) * 0xD1B54A32D192ED03ULL +
         (item + 1) * 0x94D049BB133111EBULL;
}

/// Generates `count` syndromes of `spec`, calling `sink(item, graph,
/// syndrome)` for each when given (the file writers) and keeping them in
/// the pool otherwise.
SpecPool generate_pool(
    const std::string& spec, std::size_t spec_index, std::size_t count,
    std::uint64_t seed, ThreadPool& pool,
    const std::function<void(std::size_t, const Graph&, const Syndrome&)>&
        sink = nullptr) {
  const std::unique_ptr<Topology> topology = make_topology_from_spec(spec);
  const Graph graph = topology->build_graph();
  SpecPool out;
  out.spec = spec;
  out.delta = topology->default_fault_bound();
  out.syndromes.resize(count);
  out.truths.resize(count);
  // Even fault counts keep what a small pool costs to diagnose about the
  // same from seed to seed; the seed picks their order and the faults.
  std::vector<std::size_t> fault_counts(count, out.delta / 2);
  if (count > 1) {
    for (std::size_t i = 0; i < count; ++i) {
      fault_counts[i] = (2 * i * out.delta + count - 1) / (2 * (count - 1));
    }
  }
  Rng order(item_seed(seed, spec_index, count));
  for (std::size_t i = count; i > 1; --i) {
    std::swap(fault_counts[i - 1], fault_counts[order.below(i)]);
  }
  pool.parallel_for(count, [&](unsigned, std::size_t i) {
    Rng rng(item_seed(seed, spec_index, i));
    const std::size_t faults = fault_counts[i];
    const FaultSet fault_set(graph.num_nodes(),
                             inject_uniform(graph.num_nodes(), faults, rng));
    const FaultyBehavior behavior = kAllFaultyBehaviors[i % 4];
    auto syndrome = std::make_unique<Syndrome>(
        generate_syndrome(graph, fault_set, behavior, rng()));
    out.truths[i] = fault_set.nodes();
    if (sink) {
      sink(i, graph, *syndrome);
    } else {
      out.syndromes[i] = std::move(syndrome);
    }
  });
  for (const auto& s : out.syndromes) {
    if (s) out.syndrome_bytes += s->memory_bytes();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

bool answer_correct(const DiagnosisResult& r, const std::vector<Node>& truth) {
  return r.success && r.faults == truth;
}

/// Every field of a result that is not a timing: the bit-identity contract.
bool same_result(const DiagnosisResult& a, const DiagnosisResult& b) {
  return a.success == b.success && a.faults == b.faults &&
         a.failure_reason == b.failure_reason && a.probes == b.probes &&
         a.certified_component == b.certified_component &&
         a.lookups == b.lookups && a.final_members == b.final_members &&
         a.final_rounds == b.final_rounds && a.shards_used == b.shards_used;
}

/// FNV-1a over the identity fields of a result sequence; equal digests
/// across runs of one seed mean bit-identical answers and look-ups.
class Digest {
 public:
  void add(const DiagnosisResult& r) {
    mix(r.success);
    mix(r.faults.size());
    for (const Node v : r.faults) mix(v);
    for (const char c : r.failure_reason) mix(static_cast<unsigned char>(c));
    mix(r.probes);
    mix(r.certified_component);
    mix(r.lookups);
    mix(r.final_members);
    mix(r.final_rounds);
  }
  [[nodiscard]] std::string hex() const {
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << h_;
    return os.str();
  }

 private:
  void mix(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
  }
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// Per-request figures of the traced run, keyed by what they describe.
struct LayerSamples {
  std::vector<double> solve_diagnose_s, engine_setup_s, engine_dispatch_s;
  std::vector<double> probes, probe_lookups, final_lookups, final_members;
  std::vector<double> final_rounds, shards_used, verify_lookups;
  std::vector<double> rest_s;
  std::uint64_t replayed = 0;
  std::uint64_t replay_mismatches = 0;
};

/// Replays a solve's probes (run_restricted) and final run (run) through
/// the same statically-dispatched SetBuilder overloads the engine uses,
/// one span each, and checks that their look-ups sum exactly to the
/// result's. One replayer per calibration: builders keep O(N) scratch.
class SolveReplayer {
 public:
  SolveReplayer(std::shared_ptr<const Calibration> cal,
                const DiagnoserOptions& options)
      : cal_(std::move(cal)),
        probe_(cal_->graph, options.rule),
        final_(cal_->graph, options.final_rule) {}

  void replay(const TableOracle& oracle, const DiagnosisResult& result,
              Tracer& tracer, std::uint64_t request, LayerSamples& samples) {
    const Scope root(tracer, "replay", -1, request);
    const PartitionPlan& plan = *cal_->partition.plan;
    const unsigned delta = cal_->delta();
    std::uint64_t probe_lookups = 0;
    std::uint64_t final_lookups = 0;
    bool certified = false;
    std::uint32_t certified_component = 0;
    for (std::size_t c = 0; c < result.probes; ++c) {
      const Scope span(tracer, "solve.probe", root.id(), request);
      oracle.reset_lookups();
      const SetBuilderResult run = probe_.run_restricted(
          oracle, plan.seed_of(c), delta, plan, static_cast<std::uint32_t>(c));
      probe_lookups += oracle.lookups();
      if (run.all_healthy) {
        certified = true;
        certified_component = static_cast<std::uint32_t>(c);
      }
    }
    std::size_t members = 0;
    unsigned rounds = 0;
    if (certified) {
      const Scope span(tracer, "solve.final", root.id(), request);
      oracle.reset_lookups();
      const SetBuilderResult run =
          final_.run(oracle, plan.seed_of(certified_component), delta);
      final_lookups = oracle.lookups();
      members = run.members.size();
      rounds = run.rounds;
    }
    ++samples.replayed;
    const bool exact = probe_lookups + final_lookups == result.lookups &&
                       certified == result.success &&
                       (!certified ||
                        (certified_component == result.certified_component &&
                         members == result.final_members &&
                         rounds == result.final_rounds));
    if (!exact) ++samples.replay_mismatches;
    samples.probes.push_back(static_cast<double>(result.probes));
    samples.probe_lookups.push_back(static_cast<double>(probe_lookups));
    samples.final_lookups.push_back(static_cast<double>(final_lookups));
    samples.final_members.push_back(static_cast<double>(members));
    samples.final_rounds.push_back(static_cast<double>(rounds));
    samples.shards_used.push_back(static_cast<double>(result.shards_used));
  }

 private:
  std::shared_ptr<const Calibration> cal_;
  SetBuilder probe_;
  SetBuilder final_;
};

/// syndrome_consistent under a span, counting the look-ups it spends.
bool traced_verify(const Graph& graph, const TableOracle& oracle,
                   const std::vector<Node>& faults, Tracer& tracer, int parent,
                   std::uint64_t request, LayerSamples& samples) {
  const FaultSet claimed(graph.num_nodes(), faults);
  oracle.reset_lookups();
  bool ok = false;
  {
    const Scope span(tracer, "verify", parent, request);
    ok = syndrome_consistent(graph, oracle, claimed);
  }
  samples.verify_lookups.push_back(static_cast<double>(oracle.lookups()));
  return ok;
}

/// 64 lanes of one spec through one Diagnoser::diagnose_cohort call and
/// through 64 scalar diagnose calls; the two must agree bit for bit.
struct CohortProbe {
  double cohort_seconds = 0;
  double scalar_seconds = 0;
  std::size_t lanes = 0;
  std::vector<DiagnosisResult> scalar;  // for replays and verification
  bool identical = true;
};

CohortProbe probe_cohort(Diagnoser& diagnoser,
                         const std::vector<const TableOracle*>& lanes,
                         Tracer& tracer, std::uint64_t request) {
  CohortProbe out;
  out.lanes = lanes.size();
  const Scope root(tracer, "cohort.probe", -1, request);
  std::vector<DiagnosisResult> cohort;
  {
    const Scope span(tracer, "cohort.solve", root.id(), request);
    const Timer timer;
    cohort = diagnoser.diagnose_cohort(lanes);
    out.cohort_seconds = timer.seconds();
  }
  for (const TableOracle* lane : lanes) {
    const Scope span(tracer, "cohort.scalar", root.id(), request);
    const Timer timer;
    out.scalar.push_back(diagnoser.diagnose(*lane));
    out.scalar_seconds += timer.seconds();
  }
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    out.identical = out.identical && same_result(cohort[i], out.scalar[i]);
  }
  return out;
}

void add_cohort_metrics(Report& report, const std::vector<CohortProbe>& probes,
                        double share) {
  double cohort = 0, scalar = 0, lanes = 0;
  bool identical = true;
  for (const CohortProbe& p : probes) {
    cohort += p.cohort_seconds;
    scalar += p.scalar_seconds;
    lanes += static_cast<double>(p.lanes);
    identical = identical && p.identical;
  }
  report.check(identical, "cohort lanes bit-identical to scalar diagnose");
  report.add("cohort.share", share, "ratio",
             "requests the engine groups into 64-wide cohorts");
  report.add("cohort.s_per_syndrome", lanes > 0 ? cohort / lanes : 0, "s",
             "one diagnose_cohort call / lanes");
  report.add("cohort.speedup", cohort > 0 ? scalar / cohort : 0, "ratio",
             "64 scalar diagnose calls / one cohort call");
}

/// The solve, verify and engine metrics of the traced run.
void add_solve_metrics(Report& report, const LayerSamples& s,
                       const Tracer& tracer) {
  using reqbench::mean;
  using reqbench::median;
  using reqbench::values_of;
  const double probe_s = median(values_of(tracer.per_request("solve.probe")));
  const double final_s = median(values_of(tracer.per_request("solve.final")));
  const double diagnose_s = median(s.solve_diagnose_s);
  const double verify_s = median(tracer.durations("verify"));
  report.check(s.replayed > 0 && s.replay_mismatches == 0,
               "replayed probe + final look-ups sum exactly to "
               "DiagnosisResult::lookups (" +
                   std::to_string(s.replayed - s.replay_mismatches) + "/" +
                   std::to_string(s.replayed) + " solves)");
  report.add("solve.diagnose_s", diagnose_s, "s",
             "DiagnosisResult::diagnose_seconds");
  report.add("solve.probes", mean(s.probes), "count");
  report.add("solve.probe_s", probe_s, "s",
             "replayed run_restricted, per solve");
  report.add("solve.probe_lookups", mean(s.probe_lookups), "count");
  report.add("solve.final_s", final_s, "s", "replayed final run, per solve");
  report.add("solve.final_lookups", mean(s.final_lookups), "count");
  report.add("solve.final_members", mean(s.final_members), "count");
  report.add("solve.final_rounds", mean(s.final_rounds), "count");
  report.add("solve.rest_s", median(s.rest_s), "s",
             "diagnose - probes - final: boundary scan and driver");
  report.add("solve.shards_used", mean(s.shards_used), "count");
  report.add("verify.s", verify_s, "s", "syndrome_consistent");
  report.add("verify.lookups", mean(s.verify_lookups), "count");
  report.add("verify.to_solve", diagnose_s > 0 ? verify_s / diagnose_s : 0,
             "ratio", "verify.s / solve.diagnose_s");
  report.add("engine.setup_s", median(s.engine_setup_s), "s",
             "cache look-up + driver construction");
  report.add("engine.dispatch_s", median(s.engine_dispatch_s), "s");
}

/// rest_s per replayed solve: the result's solve time minus its replayed
/// probe and final time.
void fill_rest(LayerSamples& s, const Tracer& tracer,
               const std::vector<std::pair<std::uint64_t, double>>& solves) {
  const auto probe = tracer.per_request("solve.probe");
  const auto final = tracer.per_request("solve.final");
  for (const auto& [request, diagnose_s] : solves) {
    const auto p = probe.find(request);
    const auto f = final.find(request);
    s.rest_s.push_back(diagnose_s - (p == probe.end() ? 0 : p->second) -
                       (f == final.end() ? 0 : f->second));
  }
}

/// Share of traced request time the layer spans directly under each
/// request root cover, over every request root called `root_name`.
double layer_sum_share(const Tracer& tracer, const char* root_name) {
  double roots = 0, children = 0;
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::strcmp(spans[i].name, root_name) != 0 || spans[i].parent != -1) {
      continue;
    }
    roots += spans[i].seconds();
    children += tracer.child_seconds(static_cast<int>(i));
  }
  return roots > 0 ? children / roots : 0;
}

/// Coverage, span count and the tracing overhead; the two p50s are at the
/// reference speed, so that the host's drift between the loops drops out.
void add_trace_metrics(Report& report, const Tracer& tracer,
                       double untraced_p50, double traced_p50) {
  const double share = layer_sum_share(tracer, "request");
  report.check(share >= 1.0 - kLayerSumTolerance && share <= 1.0 + 1e-9,
               "layer spans cover " + fmt(100 * share, 4) +
                   "% of traced request time (tolerance " +
                   fmt(100 * kLayerSumTolerance, 3) + "%)");
  const double overhead =
      untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1.0 : 0;
  std::cout << "trace overhead: traced p50 " << fmt(traced_p50 * 1e3)
            << " ms - untraced p50 " << fmt(untraced_p50 * 1e3) << " ms = "
            << fmt((traced_p50 - untraced_p50) * 1e3) << " ms ("
            << fmt(100 * overhead, 4) << "%), at the reference speed\n";
  report.add("trace.overhead_share", overhead, "ratio",
             "traced / untraced request p50 - 1, at the reference speed");
  report.add("trace.layer_sum_share", share, "ratio",
             "layer span seconds / request span seconds");
  report.add("trace.spans", static_cast<double>(tracer.spans().size()),
             "count");
}

/// Each call's wall seconds at the reference speed, given the host speed
/// sampled before the first call and after every call.
std::vector<double> at_reference_speed(const std::vector<double>& latencies,
                                       const std::vector<double>& rates) {
  if (rates.size() != latencies.size() + 1) {
    throw std::logic_error("one host speed sample per call, plus one");
  }
  std::vector<double> out(latencies.size());
  for (std::size_t i = 0; i < latencies.size(); ++i) {
    out[i] = reqbench::reference_seconds(latencies[i], rates[i], rates[i + 1]);
  }
  return out;
}

/// Set-up time: the median over repetitions, at the reference speed and
/// on the wall clock.
struct SetupTime {
  double reference_s = 0;
  double wall_s = 0;
};

/// End-to-end metrics of the untraced loop. `latencies` are the wall
/// seconds of each call, `rates` the host speed sampled before the first
/// call and after every call, and each call serves `per_call` requests.
/// Times are reported at the reference speed (host_clock.hpp); the wall
/// figures are printed beside them.
void add_end_to_end(Report& report, const SetupTime& setup,
                    const std::string& setup_note,
                    const std::vector<double>& latencies,
                    const std::vector<double>& rates, double per_call,
                    double lookups_per_request) {
  const std::vector<double> reference = at_reference_speed(latencies, rates);
  double reference_sum = 0, wall_sum = 0;
  for (std::size_t i = 0; i < latencies.size(); ++i) {
    reference_sum += reference[i];
    wall_sum += latencies[i];
  }
  const double requests = per_call * static_cast<double>(latencies.size());
  const reqbench::LatencySummary lat =
      reqbench::summarize(reference, kTailPercentile);
  const reqbench::LatencySummary wall =
      reqbench::summarize(latencies, kTailPercentile);
  const std::string tail_note =
      "p" + std::to_string(lat.tail_percentile) + ", " +
      std::to_string(lat.beyond) + " samples beyond, " +
      std::to_string(lat.samples) + " samples";

  report.add("setup_s", setup.reference_s, "s",
             setup_note + ", at the reference speed");
  report.add("latency_p50_ms", lat.p50 * 1e3, "ms",
             std::to_string(lat.samples) + " samples, at the reference speed");
  report.add("latency_tail_ms", lat.tail * 1e3, "ms",
             tail_note + ", at the reference speed");
  report.add("throughput_rps",
             reference_sum > 0 ? requests / reference_sum : 0, "req/s",
             "requests / reference seconds of serving");
  report.add("lookups_per_request", lookups_per_request, "count",
             "mean DiagnosisResult::lookups over the input pool");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.add("failure_share",
             report.attempted > 0 ? static_cast<double>(report.failed) /
                                        static_cast<double>(report.attempted)
                                  : 1.0,
             "ratio",
             std::to_string(report.failed) + " failed of " +
                 std::to_string(report.attempted),
             false);
  report.add("host.relative_speed", reqbench::median(rates), "ratio",
             "median over " + std::to_string(rates.size()) +
                 " samples; the reference host is 1",
             false);
  report.add("wall.setup_s", setup.wall_s, "s", "", false);
  report.add("wall.latency_p50_ms", wall.p50 * 1e3, "ms", "", false);
  report.add("wall.latency_tail_ms", wall.tail * 1e3, "ms",
             "p" + std::to_string(wall.tail_percentile), false);
  report.add("wall.throughput_rps", wall_sum > 0 ? requests / wall_sum : 0,
             "req/s", "requests / wall seconds of serving", false);
}

double mb(std::uint64_t bytes) {
  return static_cast<double>(bytes) / 1048576.0;
}

/// Builds a fresh engine and warms every spec's calibration, `reps` times,
/// sampling the calling thread's speed around each calibration (several
/// kernel runs each time, as one calibration is a single long call). Reports
/// the median set-up and every cold calibration's time; returns the last
/// engine.
std::unique_ptr<DiagnosisEngine> measure_setup(
    const EngineOptions& options, const std::vector<std::string>& specs,
    int reps, SetupTime& setup, std::vector<double>& calibration_s) {
  HostClock clock;
  std::vector<double> reference, wall;
  std::unique_ptr<DiagnosisEngine> engine;
  for (int r = 0; r < reps; ++r) {
    engine.reset();
    double rate = clock.sample(kSetupSamples);
    double reference_s = 0, wall_s = 0;
    Timer part;  // the engine's construction counts with the first spec
    engine = std::make_unique<DiagnosisEngine>(options);
    for (const std::string& spec : specs) {
      const Timer cal_timer;
      const std::shared_ptr<const Calibration> cal = engine->calibration(spec);
      calibration_s.push_back(cal_timer.seconds());
      const double part_s = part.seconds();
      const double next = clock.sample(kSetupSamples);
      reference_s += reqbench::reference_seconds(part_s, rate, next);
      wall_s += part_s;
      rate = next;
      part.reset();
    }
    reference.push_back(reference_s);
    wall.push_back(wall_s);
  }
  setup.reference_s = reqbench::median(reference);
  setup.wall_s = reqbench::median(wall);
  return engine;
}

void check_calibrations(Report& report, DiagnosisEngine& engine,
                        const std::vector<std::string>& specs) {
  bool validated = true;
  for (const std::string& spec : specs) {
    validated =
        validated && engine.calibration(spec)->partition.fully_validated;
  }
  report.check(validated,
               "every served calibration is fully validated (validate_all)");
}

void add_calibration_metrics(
    Report& report, const std::vector<std::shared_ptr<const Calibration>>& cals,
    const Tracer& tracer, const std::vector<double>& engine_calibration_s,
    bool graphs_resident) {
  using reqbench::median;
  double lookups = 0, components = 0, csr = 0;
  for (const auto& cal : cals) {
    lookups += static_cast<double>(cal->partition.calibration_lookups);
    components += static_cast<double>(cal->partition.plan->num_components());
    const double g = mb(cal->graph.memory_bytes());
    csr = graphs_resident ? csr + g : std::max(csr, g);
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, cals.size()));
  const double build_s = median(tracer.durations("graph.build"));
  const double certify_s = median(tracer.durations("calibration.certify"));
  const double engine_s = median(engine_calibration_s);
  std::cout << "calibration: cold engine.calibration " << fmt(engine_s)
            << " s vs graph.build + calibration.certify "
            << fmt(build_s + certify_s) << " s\n";
  report.add("graph.build_s", build_s, "s",
             "make_topology_from_spec + build_graph");
  report.add("graph.csr_mb", csr, "MB",
             graphs_resident ? "all specs resident" : "largest spec");
  report.add("calibration.certify_s", certify_s, "s",
             "find_certified_partition, validate_all");
  report.add("calibration.lookups", lookups / n, "count", "mean per spec");
  report.add("calibration.components", components / n, "count",
             "mean per spec");
  report.add("engine.calibration_s", engine_s, "s",
             "a cold DiagnosisEngine::calibration");
}

/// Direct graph build + certification of `spec`, one span each.
void probe_graph_and_certify(const std::string& spec, const DiagnoserOptions& d,
                             Tracer& tracer, std::uint64_t request) {
  const Scope root(tracer, "decompose", -1, request);
  std::unique_ptr<Topology> topology;
  Graph graph;
  {
    const Scope span(tracer, "graph.build", root.id(), request);
    topology = make_topology_from_spec(spec);
    graph = topology->build_graph();
  }
  const Scope span(tracer, "calibration.certify", root.id(), request);
  const CertifiedPartition partition = find_certified_partition(
      *topology, graph, topology->default_fault_bound(), d.rule,
      d.validate_all_components);
  if (!partition.fully_validated) {
    throw std::runtime_error(spec + ": certification not fully validated");
  }
}

/// The CLI's parse resolver: a spec resolves to the engine's calibrated
/// graph, and the bundle stays pinned while the parsed syndrome is in use.
struct PinningResolver {
  DiagnosisEngine& engine;
  std::vector<std::shared_ptr<const Calibration>> pins;

  const Graph& operator()(const std::string& spec) {
    pins.push_back(engine.calibration(spec));
    return pins.back()->graph;
  }
};

/// Reads and parses `path` the way the CLI does, with a resolver over an
/// engine that already holds the calibration. Spans: io.read, io.parse.
ParsedSyndrome traced_ingest(const std::string& path, DiagnosisEngine& engine,
                             Tracer& tracer, int parent,
                             std::uint64_t request) {
  std::stringstream buffer;
  {
    const Scope span(tracer, "io.read", parent, request);
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read " + path);
    buffer << in.rdbuf();
  }
  const Scope span(tracer, "io.parse", parent, request);
  std::istringstream body(buffer.str());
  PinningResolver resolve{engine, {}};
  return read_syndrome(body, std::ref(resolve));
}

void write_file(const std::string& path, const std::string& spec,
                const Graph& graph, const Syndrome& syndrome) {
  std::ofstream os(path, std::ios::binary);
  write_syndrome(os, spec, graph, syndrome);
  if (!os) throw std::runtime_error("cannot write " + path);
}

/// Ingest probe of a warm workload: one file per spec, read and parsed
/// `reps` times against the warm engine.
void probe_ingest(const std::vector<SpecPool>& pools, DiagnosisEngine& engine,
                  const std::string& dir, int reps, Tracer& tracer,
                  Report& report) {
  double bytes = 0;
  bool round_trips = true;
  for (std::size_t k = 0; k < pools.size(); ++k) {
    const std::shared_ptr<const Calibration> cal =
        engine.calibration(pools[k].spec);
    const std::string path = dir + "/ingest-" + std::to_string(k) + ".txt";
    write_file(path, pools[k].spec, cal->graph, *pools[k].syndromes[0]);
    bytes += static_cast<double>(std::filesystem::file_size(path));
    for (int r = 0; r < reps; ++r) {
      const Scope root(tracer, "ingest.probe", -1, 0);
      const ParsedSyndrome parsed =
          traced_ingest(path, engine, tracer, root.id(), 0);
      round_trips = round_trips &&
                    parsed.syndrome.ones() == pools[k].syndromes[0]->ones();
    }
    std::filesystem::remove(path);
  }
  report.check(round_trips, "ingest probe files round-trip");
  report.add("io.read_s", reqbench::median(tracer.durations("io.read")), "s",
             "file to memory");
  report.add("io.parse_s", reqbench::median(tracer.durations("io.parse")), "s",
             "read_syndrome with a warm resolver");
  report.add("io.file_mb", mb(static_cast<std::uint64_t>(bytes)) /
                               static_cast<double>(pools.size()),
             "MB", "mean file size");
}

// ---------------------------------------------------------------------------
// cold_file
// ---------------------------------------------------------------------------

struct ColdFile {
  std::string path;
  std::string spec;
  std::vector<Node> truth;
  std::uint64_t bytes = 0;
  std::uint64_t syndrome_bytes = 0;
};

EngineOptions cold_options() {
  EngineOptions options;  // what `mmdiag_cli diagnose FILE --verify` builds
  options.threads = 1;
  options.graph_mode = GraphMode::kCsr;
  options.shards = 1;
  return options;
}

/// A request served from a calibration that skipped components fails.
void require_fully_validated(const Calibration& cal) {
  if (!cal.partition.fully_validated) {
    throw std::runtime_error(cal.spec + ": calibration not fully validated");
  }
}

/// One untraced request: exactly the CLI's calls, in the CLI's order.
DiagnosisResult cold_request(const ColdFile& file) {
  std::ifstream in(file.path);
  if (!in) throw std::runtime_error("cannot read " + file.path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::istringstream peek(buffer.str());
  const SyndromeFileHeader header = peek_syndrome_header(peek);
  if (header.model != DiagnosisModel::kMMStar) {
    throw std::runtime_error(file.path + ": not an mm-star syndrome");
  }
  DiagnosisEngine engine(cold_options());
  PinningResolver resolve{engine, {}};
  std::istringstream body(buffer.str());
  const ParsedSyndrome loaded = read_syndrome(body, std::ref(resolve));
  const std::shared_ptr<const Calibration> cal =
      engine.calibration(loaded.spec);
  require_fully_validated(*cal);
  const TableOracle oracle(cal->graph, loaded.syndrome);
  const std::unique_ptr<Diagnoser> diagnoser =
      engine.make_diagnoser(loaded.spec);
  return diagnose_and_verify(*diagnoser, oracle);
}

/// Everything the traced cold request leaves for the layer metrics.
struct ColdTraced {
  DiagnosisResult result;
  bool verified = false;
  EngineCounters counters;
  std::shared_ptr<const Calibration> cal;
  std::unique_ptr<DiagnosisEngine> engine;  // reset before the request ends
  std::unique_ptr<Syndrome> syndrome;
};

/// One traced request: the same work split into one span per layer call —
/// the cold calibration first, so the parse runs against a warm resolver
/// and the solve and the verification are separate calls.
ColdTraced cold_request_traced(const ColdFile& file, Tracer& tracer,
                               std::uint64_t request, LayerSamples& samples) {
  ColdTraced out;
  const Scope root(tracer, "request", -1, request);
  std::stringstream buffer;
  {
    const Scope span(tracer, "io.read", root.id(), request);
    std::ifstream in(file.path);
    if (!in) throw std::runtime_error("cannot read " + file.path);
    buffer << in.rdbuf();
  }
  SyndromeFileHeader header;
  {
    const Scope span(tracer, "io.peek", root.id(), request);
    std::istringstream peek(buffer.str());
    header = peek_syndrome_header(peek);
  }
  {
    const Scope span(tracer, "engine.construct", root.id(), request);
    out.engine = std::make_unique<DiagnosisEngine>(cold_options());
  }
  DiagnosisEngine& engine = *out.engine;
  {
    const Scope span(tracer, "engine.calibration", root.id(), request);
    out.cal = engine.calibration(header.spec);
  }
  require_fully_validated(*out.cal);
  std::optional<ParsedSyndrome> loaded;
  {
    const Scope span(tracer, "io.parse", root.id(), request);
    std::istringstream body(buffer.str());
    PinningResolver resolve{engine, {}};
    loaded.emplace(read_syndrome(body, std::ref(resolve)));
  }
  out.syndrome = std::make_unique<Syndrome>(std::move(loaded->syndrome));
  const TableOracle oracle(out.cal->graph, *out.syndrome);
  std::unique_ptr<Diagnoser> diagnoser;
  {
    const Scope span(tracer, "engine.make_diagnoser", root.id(), request);
    diagnoser = engine.make_diagnoser(loaded->spec);
  }
  {
    const Scope span(tracer, "solve.diagnose", root.id(), request);
    // diagnose_and_verify's overload: the type-erased one.
    out.result =
        diagnoser->diagnose(static_cast<const SyndromeOracle&>(oracle));
  }
  if (out.result.success) {
    out.verified = traced_verify(out.cal->graph, oracle, out.result.faults,
                                 tracer, root.id(), request, samples);
  }
  out.counters = engine.counters();
  {
    // The calibration stays pinned by `out` for the replays.
    const Scope span(tracer, "engine.teardown", root.id(), request);
    out.engine.reset();
  }
  return out;
}

void run_cold_file(const Args& args, Report& report, Tracer& tracer) {
  const std::vector<std::string> specs =
      args.smoke ? std::vector<std::string>{"hypercube 8", "star 5"}
                 : std::vector<std::string>{"hypercube 18", "star 9"};
  constexpr std::size_t kFilesPerSpec = 2;
  const unsigned lanes = serving_lanes();
  record_config(report, args, cold_options(), 1, specs);

  // Inputs: text v1 files, alternating specs request by request.
  ThreadPool gen(lanes);
  std::vector<ColdFile> files(specs.size() * kFilesPerSpec);
  for (std::size_t k = 0; k < specs.size(); ++k) {
    const SpecPool pool = generate_pool(
        specs[k], k, kFilesPerSpec, args.seed, gen,
        [&](std::size_t i, const Graph& graph, const Syndrome& syndrome) {
          ColdFile& f = files[i * specs.size() + k];
          f.path = args.data_dir + "/cold-" + std::to_string(k) + "-" +
                   std::to_string(i) + ".txt";
          f.spec = specs[k];
          f.syndrome_bytes = syndrome.memory_bytes();
          write_file(f.path, specs[k], graph, syndrome);
        });
    for (std::size_t i = 0; i < kFilesPerSpec; ++i) {
      ColdFile& f = files[i * specs.size() + k];
      f.truth = pool.truths[i];
      f.bytes = std::filesystem::file_size(f.path);
    }
  }

  // Set-up: no calibration is warmed on this path; what is warmed is the
  // inputs. One set-up is the engine's construction plus one read of every
  // file, so requests read from the page cache; the median of five.
  HostClock clock;  // a cold request runs on the calling thread
  std::vector<double> setups, wall_setups;
  for (int r = 0; r < 5; ++r) {
    const double before = clock.sample(kSetupSamples);
    const Timer timer;
    { const DiagnosisEngine engine(cold_options()); }
    for (const ColdFile& f : files) {
      std::ifstream in(f.path, std::ios::binary);
      std::stringstream buffer;
      if (in) buffer << in.rdbuf();
      if (buffer.str().size() != f.bytes) {
        throw std::runtime_error("cannot read " + f.path);
      }
    }
    const double wall_s = timer.seconds();
    wall_setups.push_back(wall_s);
    setups.push_back(
        reqbench::reference_seconds(wall_s, before,
                                    clock.sample(kSetupSamples)));
  }
  const SetupTime setup{reqbench::median(setups),
                        reqbench::median(wall_setups)};

  // Untraced loop: whole rounds over the file pool, so every file is
  // served equally often and the look-up mean covers the same inputs.
  const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<double> latencies;
  std::vector<double> rates{clock.sample()};
  std::vector<DiagnosisResult> untraced_results;
  Digest digest;
  const Timer wall;
  do {
    for (std::size_t i = 0; i < files.size(); ++i) {
      DiagnosisResult r;
      const Timer timer;
      try {
        r = cold_request(files[i]);
      } catch (const std::exception& e) {
        r = DiagnosisResult{};
        r.failure_reason = e.what();
      }
      latencies.push_back(timer.seconds());
      rates.push_back(clock.sample());
      report.count(answer_correct(r, files[i].truth));
      if (untraced_results.size() < files.size()) digest.add(r);
      untraced_results.push_back(std::move(r));
    }
  } while (wall.seconds() < untraced_budget);
  double lookups = 0;
  for (std::size_t i = 0; i < files.size(); ++i) {
    lookups += static_cast<double>(untraced_results[i].lookups);
  }
  lookups /= static_cast<double>(files.size());
  std::cout << "digest " << digest.hex() << " (first round of "
            << files.size() << " files)\n";

  if (!args.trace) {
    add_end_to_end(report, setup,
                   "engine construction + one read of every input file, "
                   "median of 5",
                   latencies, rates, 1, lookups);
    return;
  }

  // Traced loop over the same request sequence from the start.
  LayerSamples samples;
  std::vector<double> engine_calibration_s;
  std::vector<std::shared_ptr<const Calibration>> cals(specs.size());
  std::vector<CohortProbe> cohorts;
  std::vector<std::pair<std::uint64_t, double>> solves;
  std::uint64_t hits = 0, cache_lookups = 0;
  std::size_t identical = 0, compared = 0;
  double syndrome_mb = 0, file_mb = 0;
  std::uint64_t request = 0;
  std::vector<double> traced_reference;
  const Timer traced_wall;
  do {
    for (std::size_t i = 0; i < files.size(); ++i, ++request) {
      const ColdFile& file = files[i];
      ColdTraced t;
      const double before = clock.sample();
      const Timer timer;
      try {
        t = cold_request_traced(file, tracer, request, samples);
      } catch (const std::exception& e) {
        t.result = DiagnosisResult{};
        t.result.failure_reason = e.what();
      }
      traced_reference.push_back(reqbench::reference_seconds(
          timer.seconds(), before, clock.sample()));
      report.count(answer_correct(t.result, file.truth) && t.verified);
      if (request < untraced_results.size()) {
        ++compared;
        if (same_result(t.result, untraced_results[request])) ++identical;
      }
      if (!t.cal) continue;
      hits += t.counters.hits;
      cache_lookups += t.counters.hits + t.counters.misses;
      samples.solve_diagnose_s.push_back(t.result.diagnose_seconds);
      solves.emplace_back(request, t.result.diagnose_seconds);
      syndrome_mb = std::max(syndrome_mb, mb(file.syndrome_bytes));
      file_mb += mb(file.bytes);
      const std::size_t k = i % specs.size();
      const TableOracle oracle(t.cal->graph, *t.syndrome);
      const DiagnoserOptions d = cold_options().diagnoser;
      SolveReplayer(t.cal, d).replay(oracle, t.result, tracer, request,
                                     samples);
      probe_graph_and_certify(file.spec, d, tracer, request);
      if (!cals[k]) {
        // Cohort probe once per spec. One file is in memory at a time on
        // this path, so the 64 lanes share its syndrome.
        cals[k] = t.cal;
        std::vector<TableOracle> oracles(64, oracle);
        std::vector<const TableOracle*> lanes_of;
        for (const TableOracle& o : oracles) lanes_of.push_back(&o);
        Diagnoser diagnoser(graph_handle(t.cal), t.cal->partition, d);
        cohorts.push_back(probe_cohort(diagnoser, lanes_of, tracer, request));
      }
    }
  } while (traced_wall.seconds() < args.seconds - untraced_budget);

  for (const double s : tracer.durations("engine.calibration")) {
    engine_calibration_s.push_back(s);
  }
  for (const double s : tracer.durations("engine.make_diagnoser")) {
    samples.engine_setup_s.push_back(s);
  }
  // No engine dispatch on this path: the remainder is the request time
  // outside every layer span.
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == -1 && std::strcmp(spans[i].name, "request") == 0) {
      samples.engine_dispatch_s.push_back(
          spans[i].seconds() - tracer.child_seconds(static_cast<int>(i)));
    }
  }
  fill_rest(samples, tracer, solves);

  report.check(compared > 0 && identical == compared,
               "traced and untraced results bit-identical (" +
                   std::to_string(identical) + "/" + std::to_string(compared) +
                   " requests)");
  report.add("io.read_s", reqbench::median(tracer.durations("io.read")), "s",
             "file to memory");
  report.add("io.parse_s", reqbench::median(tracer.durations("io.parse")),
             "s", "read_syndrome with a warm resolver");
  report.add("io.file_mb", file_mb / static_cast<double>(solves.size()), "MB",
             "mean file size");
  report.add("mem.syndrome_mb", syndrome_mb, "MB", "largest syndrome held");
  add_calibration_metrics(report, cals, tracer, engine_calibration_s, false);
  add_solve_metrics(report, samples, tracer);
  add_cohort_metrics(report, cohorts, 0.0);
  report.add("engine.cache_hit_ratio",
             cache_lookups > 0 ? static_cast<double>(hits) /
                                     static_cast<double>(cache_lookups)
                               : 0,
             "ratio", "EngineCounters over every per-request engine");
  report.add("engine.lanes", 1, "count");
  report.add("serve.scaling_efficiency", 1.0, "ratio",
             "one-lane engine: nothing to scale");
  add_trace_metrics(report, tracer,
                    reqbench::median(at_reference_speed(latencies, rates)),
                    reqbench::median(traced_reference));
}

// ---------------------------------------------------------------------------
// warm_stream
// ---------------------------------------------------------------------------

void run_warm_stream(const Args& args, Report& report, Tracer& tracer) {
  const std::vector<std::string> specs =
      args.smoke
          ? std::vector<std::string>{"hypercube 7", "star 5", "kary_ncube 4 4"}
          : std::vector<std::string>{"hypercube 10", "hypercube 12", "star 7",
                                     "pancake 7", "kary_ncube 5 4"};
  // Per spec and batch: whole 64-wide cohorts plus a scalar remainder.
  const std::size_t cohorts_per_spec = args.smoke ? 1 : 8;
  const std::size_t remainder = args.smoke ? 5 : 18;
  const std::size_t per_spec = cohorts_per_spec * 64 + remainder;
  const unsigned lanes = serving_lanes();
  EngineOptions options;  // engine defaults, lanes pinned to the CPUs
  options.threads = lanes;
  record_config(report, args, options, lanes, specs);

  ThreadPool gen(lanes);
  std::vector<SpecPool> pools;
  std::uint64_t syndrome_bytes = 0;
  for (std::size_t k = 0; k < specs.size(); ++k) {
    pools.push_back(generate_pool(specs[k], k, per_spec, args.seed, gen));
    syndrome_bytes += pools.back().syndrome_bytes;
  }

  SetupTime setup;
  std::vector<double> engine_calibration_s;
  std::unique_ptr<DiagnosisEngine> engine =
      measure_setup(options, specs, 11, setup, engine_calibration_s);
  check_calibrations(report, *engine, specs);

  // One batch interleaves the specs request by request.
  std::vector<TableOracle> oracles;
  std::vector<const std::vector<Node>*> truth;
  std::vector<EngineRequest> batch;
  oracles.reserve(specs.size() * per_spec);
  std::vector<std::shared_ptr<const Calibration>> cals;
  for (const std::string& spec : specs) {
    cals.push_back(engine->calibration(spec));
  }
  for (std::size_t i = 0; i < per_spec; ++i) {
    for (std::size_t k = 0; k < specs.size(); ++k) {
      oracles.emplace_back(cals[k]->graph, *pools[k].syndromes[i]);
      truth.push_back(&pools[k].truths[i]);
    }
  }
  for (std::size_t j = 0; j < oracles.size(); ++j) {
    batch.push_back(EngineRequest{specs[j % specs.size()], &oracles[j]});
  }

  // Back-to-back serve() calls until the budget is spent; spans go to
  // `spans`, which is a disabled recorder for untraced loops. `rates`, when
  // given, gets the speed of every lane before the first call and after
  // each.
  Tracer untraced(false);
  HostClock clock(gen);
  auto serve_loop = [&](DiagnosisEngine& eng, double budget, Tracer& spans,
                        std::vector<double>& latencies,
                        std::vector<double>* rates,
                        std::vector<DiagnosisResult>& first,
                        std::vector<std::vector<DiagnosisResult>>* kept,
                        bool count) {
    std::uint64_t request = 0;
    if (rates) rates->push_back(clock.sample());
    const Timer wall;
    do {
      std::vector<DiagnosisResult> results;
      {
        const Scope root(spans, "request", -1, request);
        const Timer timer;
        {
          const Scope span(spans, "engine.serve", root.id(), request);
          results = eng.serve(batch);
        }
        latencies.push_back(timer.seconds());
      }
      if (rates) rates->push_back(clock.sample());
      if (count) {
        for (std::size_t j = 0; j < results.size(); ++j) {
          report.count(answer_correct(results[j], *truth[j]));
        }
      }
      if (first.empty()) first = results;
      if (kept) kept->push_back(std::move(results));
      ++request;
    } while (wall.seconds() < budget);
  };

  const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<double> latencies, rates;
  std::vector<DiagnosisResult> untraced_first;
  serve_loop(*engine, untraced_budget, untraced, latencies, &rates,
             untraced_first, nullptr, true);
  double lookups = 0;
  Digest digest;
  for (const DiagnosisResult& r : untraced_first) {
    lookups += static_cast<double>(r.lookups);
    digest.add(r);
  }
  lookups /= static_cast<double>(untraced_first.size());
  std::cout << "digest " << digest.hex() << " (first batch of "
            << batch.size() << " requests)\n";

  if (!args.trace) {
    add_end_to_end(report, setup,
                   "engine construction + warming every calibration, median "
                   "of 11",
                   latencies, rates, static_cast<double>(batch.size()),
                   lookups);
    return;
  }

  // Traced batches: one root span per serve() call.
  std::vector<double> traced_latencies, traced_rates;
  std::vector<DiagnosisResult> traced_first;
  std::vector<std::vector<DiagnosisResult>> traced_results;
  const double traced_budget = (args.seconds - untraced_budget) * 0.6;
  serve_loop(*engine, traced_budget, tracer, traced_latencies, &traced_rates,
             traced_first, &traced_results, true);
  bool identical = traced_first.size() == untraced_first.size();
  for (std::size_t j = 0; identical && j < traced_first.size(); ++j) {
    identical = same_result(traced_first[j], untraced_first[j]);
  }
  report.check(identical, "traced and untraced results bit-identical (" +
                              std::to_string(traced_first.size()) +
                              " requests)");

  // Engine accounting per traced batch: lane time not spent in cache
  // look-ups, driver set-up or solves, per request.
  LayerSamples samples;
  const std::size_t cohorted_per_spec = cohorts_per_spec * 64;
  const auto serve_spans = tracer.durations("engine.serve");
  for (std::size_t b = 0; b < traced_results.size(); ++b) {
    const auto& results = traced_results[b];
    double busy = 0;
    for (std::size_t j = 0; j < results.size(); ++j) {
      const std::size_t i = j / specs.size();  // index within its spec
      samples.engine_setup_s.push_back(results[j].setup_seconds);
      if (i < cohorted_per_spec) {
        if (i % 64 == 0) {
          busy += results[j].setup_seconds + results[j].diagnose_seconds;
        }
      } else {
        busy += results[j].setup_seconds + results[j].diagnose_seconds;
      }
    }
    samples.engine_dispatch_s.push_back(
        (static_cast<double>(lanes) * serve_spans[b] - busy) /
        static_cast<double>(results.size()));
  }

  // Scaling: the same batches on a one-lane engine.
  EngineOptions one_lane = options;
  one_lane.threads = 1;
  DiagnosisEngine single(one_lane);
  for (const std::string& spec : specs) (void)single.calibration(spec);
  std::vector<double> single_latencies;
  std::vector<DiagnosisResult> single_first;
  serve_loop(single, (args.seconds - untraced_budget) * 0.25, untraced,
             single_latencies, nullptr, single_first, nullptr, false);
  const double efficiency =
      reqbench::median(latencies) > 0
          ? reqbench::median(single_latencies) /
                (static_cast<double>(lanes) * reqbench::median(latencies))
          : 0;

  // Layer probes: ingest, graph + certification, and per spec one cohort
  // of its first 64 requests against 64 scalar solves, which also feed
  // the solve replays and the verification.
  probe_ingest(pools, *engine, args.data_dir, 3, tracer, report);
  for (int r = 0; r < 3; ++r) {
    for (const std::string& spec : specs) {
      probe_graph_and_certify(spec, options.diagnoser, tracer, 0);
    }
  }
  std::vector<CohortProbe> cohorts;
  std::vector<std::pair<std::uint64_t, double>> solves;
  std::uint64_t request = 1'000'000;
  bool scalar_correct = true, verified = true;
  for (std::size_t k = 0; k < specs.size(); ++k) {
    std::vector<const TableOracle*> lanes_of;
    for (std::size_t i = 0; i < 64 && i < per_spec; ++i) {
      lanes_of.push_back(&oracles[i * specs.size() + k]);
    }
    const auto diagnoser = engine->make_diagnoser(specs[k]);
    cohorts.push_back(probe_cohort(*diagnoser, lanes_of, tracer, request));
    SolveReplayer replayer(cals[k], options.diagnoser);
    for (std::size_t i = 0; i < lanes_of.size(); ++i, ++request) {
      const DiagnosisResult& r = cohorts.back().scalar[i];
      scalar_correct = scalar_correct && answer_correct(r, pools[k].truths[i]);
      samples.solve_diagnose_s.push_back(r.diagnose_seconds);
      solves.emplace_back(request, r.diagnose_seconds);
      replayer.replay(*lanes_of[i], r, tracer, request, samples);
      verified = verified && traced_verify(cals[k]->graph, *lanes_of[i],
                                           r.faults, tracer, -1, request,
                                           samples);
    }
  }
  report.check(scalar_correct && verified,
               "probe solves correct and consistent with their syndromes");
  fill_rest(samples, tracer, solves);

  report.add("mem.syndrome_mb", mb(syndrome_bytes), "MB", "whole input pool");
  add_calibration_metrics(report, cals, tracer, engine_calibration_s, true);
  add_solve_metrics(report, samples, tracer);
  add_cohort_metrics(report, cohorts,
                     static_cast<double>(cohorted_per_spec * specs.size()) /
                         static_cast<double>(batch.size()));
  const EngineCounters c = engine->counters();
  report.add("engine.cache_hit_ratio",
             static_cast<double>(c.hits) /
                 static_cast<double>(
                     std::max<std::uint64_t>(1, c.hits + c.misses)),
             "ratio");
  report.add("engine.lanes", engine->threads(), "count");
  report.add("serve.scaling_efficiency", efficiency, "ratio",
             "throughput at all lanes / (lanes x one-lane throughput)");
  add_trace_metrics(
      report, tracer, reqbench::median(at_reference_speed(latencies, rates)),
      reqbench::median(at_reference_speed(traced_latencies, traced_rates)));
}

// ---------------------------------------------------------------------------
// warm_large
// ---------------------------------------------------------------------------

void run_warm_large(const Args& args, Report& report, Tracer& tracer) {
  const std::vector<std::string> specs =
      args.smoke ? std::vector<std::string>{"hypercube 10", "star 6"}
                 : std::vector<std::string>{"hypercube 18", "star 9"};
  // Two hypercube requests per star request, so the median falls inside
  // the hypercube cluster and the tail inside the star cluster instead of
  // on the gap between them.
  const std::vector<std::size_t> per_spec =
      args.smoke ? std::vector<std::size_t>{2, 1}
                 : std::vector<std::size_t>{8, 4};
  const unsigned lanes = serving_lanes();
  EngineOptions options;  // table syndromes address CSR rows
  options.threads = lanes;
  options.graph_mode = GraphMode::kCsr;
  record_config(report, args, options, lanes, specs);

  ThreadPool gen(lanes);
  std::vector<SpecPool> pools;
  std::uint64_t syndrome_bytes = 0;
  for (std::size_t k = 0; k < specs.size(); ++k) {
    pools.push_back(generate_pool(specs[k], k, per_spec[k], args.seed, gen));
    syndrome_bytes += pools.back().syndrome_bytes;
  }

  const int setup_reps = args.smoke ? 2 : 5;
  SetupTime setup;
  std::vector<double> engine_calibration_s;
  std::unique_ptr<DiagnosisEngine> engine =
      measure_setup(options, specs, setup_reps, setup, engine_calibration_s);
  check_calibrations(report, *engine, specs);

  // The request cycle: h s h | h s h | ... over the whole pool.
  struct Item {
    std::size_t spec;
    std::size_t index;
  };
  std::vector<Item> cycle;
  {
    std::size_t h = 0, s = 0;
    while (h < per_spec[0] || s < per_spec[1]) {
      if (h < per_spec[0]) cycle.push_back({0, h++});
      if (s < per_spec[1]) cycle.push_back({1, s++});
      if (h < per_spec[0]) cycle.push_back({0, h++});
    }
  }
  std::vector<std::shared_ptr<const Calibration>> cals;
  std::vector<std::vector<TableOracle>> oracles(specs.size());
  for (std::size_t k = 0; k < specs.size(); ++k) {
    cals.push_back(engine->calibration(specs[k]));
    for (const auto& s : pools[k].syndromes) {
      oracles[k].emplace_back(cals[k]->graph, *s);
    }
  }

  const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  // diagnose() serves a request on the calling thread.
  HostClock clock;
  std::vector<double> latencies;
  std::vector<double> rates{clock.sample()};
  std::vector<DiagnosisResult> untraced_results;
  Digest digest;
  const Timer wall;
  do {
    for (const Item& item : cycle) {
      const TableOracle& oracle = oracles[item.spec][item.index];
      const Timer timer;
      DiagnosisResult r = engine->diagnose(specs[item.spec], oracle);
      latencies.push_back(timer.seconds());
      rates.push_back(clock.sample());
      report.count(answer_correct(r, pools[item.spec].truths[item.index]));
      if (untraced_results.size() < cycle.size()) digest.add(r);
      untraced_results.push_back(std::move(r));
    }
  } while (wall.seconds() < untraced_budget);
  double lookups = 0;
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    lookups += static_cast<double>(untraced_results[i].lookups);
  }
  lookups /= static_cast<double>(cycle.size());
  std::cout << "digest " << digest.hex() << " (first cycle of "
            << cycle.size() << " requests)\n";

  if (!args.trace) {
    add_end_to_end(report, setup,
                   "engine construction + warming every calibration, median "
                   "of " + std::to_string(setup_reps),
                   latencies, rates, 1, lookups);
    return;
  }

  LayerSamples samples;
  std::vector<SolveReplayer> replayers;
  for (const auto& cal : cals) replayers.emplace_back(cal, options.diagnoser);
  std::vector<std::pair<std::uint64_t, double>> solves;
  std::size_t identical = 0, compared = 0;
  bool verified = true;
  std::uint64_t request = 0;
  std::vector<double> traced_reference;
  const double traced_budget = (args.seconds - untraced_budget) * 0.6;
  const Timer traced_wall;
  do {
    for (const Item& item : cycle) {
      const TableOracle& oracle = oracles[item.spec][item.index];
      DiagnosisResult r;
      double call_s = 0;
      const double before = clock.sample();
      {
        const Scope root(tracer, "request", -1, request);
        const Scope span(tracer, "engine.diagnose", root.id(), request);
        const Timer timer;
        r = engine->diagnose(specs[item.spec], oracle);
        call_s = timer.seconds();
      }
      traced_reference.push_back(
          reqbench::reference_seconds(call_s, before, clock.sample()));
      report.count(answer_correct(r, pools[item.spec].truths[item.index]));
      if (request < untraced_results.size()) {
        ++compared;
        if (same_result(r, untraced_results[request])) ++identical;
      }
      samples.solve_diagnose_s.push_back(r.diagnose_seconds);
      samples.engine_setup_s.push_back(r.setup_seconds);
      samples.engine_dispatch_s.push_back(call_s - r.setup_seconds -
                                          r.diagnose_seconds);
      solves.emplace_back(request, r.diagnose_seconds);
      replayers[item.spec].replay(oracle, r, tracer, request, samples);
      verified = verified &&
                 traced_verify(cals[item.spec]->graph, oracle, r.faults,
                               tracer, -1, request, samples);
      ++request;
    }
  } while (traced_wall.seconds() < traced_budget);
  report.check(compared > 0 && identical == compared,
               "traced and untraced results bit-identical (" +
                   std::to_string(identical) + "/" + std::to_string(compared) +
                   " requests)");
  report.check(verified, "every traced answer consistent with its syndrome");
  fill_rest(samples, tracer, solves);
  const auto counters = engine->counters();

  // Layer probes: ingest, graph + certification, one 64-lane cohort per
  // spec over the pool (lanes repeat syndromes when the pool is smaller).
  probe_ingest(pools, *engine, args.data_dir, 2, tracer, report);
  for (const std::string& spec : specs) {
    probe_graph_and_certify(spec, options.diagnoser, tracer, 0);
  }
  std::vector<CohortProbe> cohorts;
  for (std::size_t k = 0; k < specs.size(); ++k) {
    std::vector<const TableOracle*> lanes_of;
    std::vector<TableOracle> copies;
    copies.reserve(64);
    for (std::size_t i = 0; i < 64; ++i) {
      copies.push_back(oracles[k][i % oracles[k].size()]);
    }
    for (const TableOracle& o : copies) lanes_of.push_back(&o);
    const auto diagnoser = engine->make_diagnoser(specs[k]);
    cohorts.push_back(probe_cohort(*diagnoser, lanes_of, tracer, 0));
  }

  // Scaling: the same cycle on a one-lane engine. diagnose() serves one
  // request on the calling thread, so extra lanes are expected to idle.
  double efficiency = 0;
  {
    EngineOptions one_lane = options;
    one_lane.threads = 1;
    DiagnosisEngine single(one_lane);
    std::vector<std::vector<TableOracle>> single_oracles(specs.size());
    for (std::size_t k = 0; k < specs.size(); ++k) {
      const auto cal = single.calibration(specs[k]);
      for (const auto& s : pools[k].syndromes) {
        single_oracles[k].emplace_back(cal->graph, *s);
      }
    }
    const Timer single_wall;
    std::size_t served = 0;
    do {
      for (const Item& item : cycle) {
        (void)single.diagnose(specs[item.spec],
                              single_oracles[item.spec][item.index]);
        ++served;
      }
    } while (single_wall.seconds() < (args.seconds - untraced_budget) * 0.15);
    const double single_rps =
        static_cast<double>(served) / single_wall.seconds();
    double served_s = 0;
    for (const double l : latencies) served_s += l;
    const double all_rps = static_cast<double>(latencies.size()) / served_s;
    efficiency = all_rps / (static_cast<double>(lanes) * single_rps);
  }

  report.add("mem.syndrome_mb", mb(syndrome_bytes), "MB", "whole input pool");
  add_calibration_metrics(report, cals, tracer, engine_calibration_s, true);
  add_solve_metrics(report, samples, tracer);
  add_cohort_metrics(report, cohorts, 0.0);
  report.add("engine.cache_hit_ratio",
             static_cast<double>(counters.hits) /
                 static_cast<double>(std::max<std::uint64_t>(
                     1, counters.hits + counters.misses)),
             "ratio");
  report.add("engine.lanes", engine->threads(), "count");
  report.add("serve.scaling_efficiency", efficiency, "ratio",
             "throughput at all lanes / (lanes x one-lane throughput)");
  add_trace_metrics(report, tracer,
                    reqbench::median(at_reference_speed(latencies, rates)),
                    reqbench::median(traced_reference));
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

void write_outputs(const Args& args, const Report& report,
                   const Tracer& tracer) {
  std::filesystem::create_directories(args.out_dir);
  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  bench::JsonBenchReport results("reqbench");
  for (const auto& [key, value] : report.config) results.set_meta(key, value);
  results.set_meta("attempted", JsonValue::num(report.attempted));
  results.set_meta("failed", JsonValue::num(report.failed));
  for (const Metric& m : report.metrics) {
    results.add_result({{"name", JsonValue::str(m.name)},
                        {"value", JsonValue::num(m.value)},
                        {"unit", JsonValue::str(m.unit)},
                        {"note", JsonValue::str(m.note)}});
  }
  results.write_file(stem + ".json");
  if (!tracer.enabled()) return;
  bench::JsonBenchReport spans("reqbench-spans");
  spans.set_meta("workload", JsonValue::str(args.workload));
  spans.set_meta("seed", JsonValue::num(args.seed));
  for (const reqbench::Span& s : tracer.spans()) {
    spans.add_result({{"name", JsonValue::str(s.name)},
                      {"start_s", JsonValue::num(s.start)},
                      {"end_s", JsonValue::num(s.end)},
                      {"parent", JsonValue::num(s.parent)},
                      {"request", JsonValue::num(s.request)}});
  }
  spans.write_file(stem + "-spans.json");
}

int usage() {
  std::cerr << "usage: reqbench --workload cold_file|warm_stream|warm_large "
               "--seed N --seconds S --trace 0|1 [--smoke] [--data-dir DIR] "
               "[--out-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args.seed = std::stoull(argv[++i]);
    } else if (a == "--seconds" && has_value) {
      args.seconds = std::stod(argv[++i]);
    } else if (a == "--trace" && has_value) {
      args.trace = std::string(argv[++i]) == "1";
    } else if (a == "--smoke") {
      args.smoke = true;
    } else if (a == "--data-dir" && has_value) {
      args.data_dir = argv[++i];
    } else if (a == "--out-dir" && has_value) {
      args.out_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (!(args.seconds > 0)) return usage();

  Report report;
  Tracer tracer(args.trace);
  try {
    std::filesystem::create_directories(args.data_dir);
    if (args.workload == "cold_file") {
      run_cold_file(args, report, tracer);
    } else if (args.workload == "warm_stream") {
      run_warm_stream(args, report, tracer);
    } else if (args.workload == "warm_large") {
      run_warm_large(args, report, tracer);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "reqbench: " << e.what() << "\n";
    return 1;
  }

  std::cout << "config " << bench::json_object(report.config).raw << "\n";
  for (const Metric& m : report.metrics) {
    std::cout << "metric " << std::left << std::setw(26) << m.name << ' '
              << std::setw(14) << fmt(m.value, 8) << ' ' << std::setw(6)
              << m.unit << (m.note.empty() ? "" : "  " + m.note) << "\n";
  }
  std::cout << "requests attempted " << report.attempted << ", failed "
            << report.failed << "\n";
  write_outputs(args, report, tracer);

  const bool correct = report.failed == 0 && report.checks_ok;
  std::vector<JsonField> metrics;
  for (const Metric& m : report.metrics) {
    if (!m.in_result) continue;
    metrics.emplace_back(
        m.name, bench::json_object({{"value", JsonValue::num(m.value)},
                                    {"unit", JsonValue::str(m.unit)}}));
  }
  std::cout << bench::json_object(
                   {{"correct", JsonValue::boolean(correct)},
                    {"attempted", JsonValue::num(report.attempted)},
                    {"failed", JsonValue::num(report.failed)},
                    {"metrics", bench::json_object(metrics)}})
                   .raw
            << std::endl;
  return correct ? 0 : 1;
}
