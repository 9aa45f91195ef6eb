// The paper's claims, one JSON row each, every row solving a materialised
// generate_syndrome table through a TableOracle (the configuration the
// engine serves), with |F| = δ faults and random faulty testers:
//
//   scaling      Theorems 1-7 (E1, E3-E7): one calibrated solve per family
//                and size. ns_per_delta_n = solve time / (Δ·N), Δ the
//                maximum degree, should sit in a narrow band across
//                families. final_lookups replays the final least-first run
//                alone on a fresh oracle and is checked against the §6
//                bound (Δ-1)(Δ/2 + |U_r| - 1) + Δ (E8); full_table is the
//                Σ d(d-1)/2 results a whole-table scheme reads.
//   baseline     Chiang–Tan on the hypercube and star specs, Yang's cycle
//                decomposition on the hypercubes (E2, E5/E6, E8), against
//                the same syndrome as the scaling row.
//   distributed  The §6 protocol (run_distributed_diagnosis) measured on
//                the message-passing simulator beside Chiang–Tan's priced
//                distributed cost on Q9, Q11 and Q13 (E9).
//
// Every row carries success and faults_exact (answer == injected set); a
// scaling row over its final-run bound or an inexact row fails the run.
//
//   bench_paper [--smoke] [--out FILE]
//
// --smoke keeps the smaller specs (seconds); the schema is identical.
#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/chiang_tan.hpp"
#include "baselines/yang_cycle.hpp"
#include "bench_util.hpp"
#include "distributed/protocol.hpp"
#include "mm/syndrome.hpp"
#include "topology/hypercube.hpp"
#include "topology/star_graph.hpp"

namespace mmdiag::bench {
namespace {

struct Spec {
  const char* spec;
  bool smoke;  // also run by --smoke
};

constexpr Spec kScalingSpecs[] = {
    {"hypercube 10", true},          {"hypercube 14", false},
    {"hypercube 16", false},         {"crossed_cube 9", true},
    {"crossed_cube 12", false},      {"twisted_cube 9", true},
    {"twisted_cube 13", false},      {"folded_hypercube 8", true},
    {"folded_hypercube 12", false},  {"enhanced_hypercube 9 3", true},
    {"augmented_cube 11", true},     {"shuffle_cube 10", true},
    {"shuffle_cube 14", false},      {"twisted_n_cube 9", true},
    {"twisted_n_cube 12", false},    {"kary_ncube 2 15", true},
    {"kary_ncube 3 13", true},       {"augmented_kary_ncube 2 15", true},
    {"star 7", true},                {"star 8", false},
    {"nk_star 8 5", true},           {"pancake 7", true},
    {"pancake 8", false},            {"arrangement 8 3", true},
    {"arrangement 10 4", false},
};

constexpr Spec kDistributedSpecs[] = {
    {"hypercube 9", true}, {"hypercube 11", true}, {"hypercube 13", false}};

/// Median wall time of `reps` calls of `solve`; the last call's result is
/// kept in `out`.
template <typename Solve>
double median_seconds(std::size_t reps, DiagnosisResult& out, Solve solve) {
  std::vector<double> times;
  for (std::size_t r = 0; r < reps; ++r) {
    const Timer timer;
    out = solve();
    times.push_back(timer.seconds());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

struct Checks {
  bool exact = true;
  bool within_bound = true;
};

void scaling_and_baseline_rows(const std::string& spec, std::size_t reps,
                               JsonBenchReport& report, Checks& checks) {
  const Instance& inst = instance(spec);
  const Graph& graph = inst.graph;
  const auto info = inst.topo->info();
  Diagnoser& diag = diagnoser(spec);
  const unsigned delta = diag.delta();
  const FaultSet faults = make_faults(spec, delta);
  const Syndrome syndrome =
      generate_syndrome(graph, faults, FaultyBehavior::kRandom, 0xE1);

  const TableOracle oracle(graph, syndrome);
  DiagnosisResult ours;
  const double solve_seconds =
      median_seconds(reps, ours, [&] { return diag.diagnose(oracle); });
  const bool exact = ours.success && ours.faults == faults.nodes();

  // Replay the final least-first run alone, from the seed of the component
  // the solve certified, so its look-ups are counted apart from the probes.
  std::uint64_t final_lookups = 0;
  if (ours.success) {
    const TableOracle fresh(graph, syndrome);
    SetBuilder final_builder(graph, diag.options().final_rule);
    (void)final_builder.run(
        fresh, diag.partition().plan->seed_of(ours.certified_component), delta);
    final_lookups = fresh.lookups();
  }
  const std::uint64_t max_deg = graph.max_degree();
  const std::uint64_t paper_final_bound =
      (max_deg - 1) * (max_deg / 2 + ours.final_members - 1) + max_deg;
  const double delta_n = static_cast<double>(graph.num_nodes()) *
                         static_cast<double>(max_deg);
  const double ns_per_delta_n = solve_seconds * 1e9 / delta_n;
  const bool within = final_lookups <= paper_final_bound;
  checks.exact = checks.exact && exact;
  checks.within_bound = checks.within_bound && within;

  report.add_result({
      {"mode", JsonValue::str("scaling")},
      {"topology", JsonValue::str(spec)},
      {"family", JsonValue::str(info.family)},
      {"nodes", JsonValue::num(graph.num_nodes())},
      {"delta", JsonValue::num(delta)},
      {"max_degree", JsonValue::num(max_deg)},
      {"solve_seconds", JsonValue::num(solve_seconds)},
      {"ns_per_delta_n", JsonValue::num(ns_per_delta_n)},
      {"probes", JsonValue::num(ours.probes)},
      {"lookups", JsonValue::num(ours.lookups)},
      {"final_members", JsonValue::num(ours.final_members)},
      {"final_lookups", JsonValue::num(final_lookups)},
      {"paper_final_bound", JsonValue::num(paper_final_bound)},
      {"full_table", JsonValue::num(syndrome.total_tests())},
      {"success", JsonValue::boolean(ours.success)},
      {"faults_exact", JsonValue::boolean(exact)},
  });
  std::cout << std::left << std::setw(27) << spec << std::setw(12)
            << "ours" << std::right << std::setw(9) << graph.num_nodes()
            << std::setw(12) << std::fixed << std::setprecision(3)
            << solve_seconds * 1e3 << std::setw(10) << ns_per_delta_n
            << std::setw(10) << ours.lookups << std::setw(10) << final_lookups
            << std::setw(10) << paper_final_bound << "  "
            << (exact ? "exact" : "WRONG") << "\n";

  auto baseline_row = [&](const char* algorithm, auto& baseline) {
    const TableOracle baseline_oracle(graph, syndrome);
    DiagnosisResult theirs;
    const double seconds = median_seconds(
        reps, theirs, [&] { return baseline.diagnose(baseline_oracle); });
    const bool baseline_exact =
        theirs.success && theirs.faults == faults.nodes();
    checks.exact = checks.exact && baseline_exact;
    report.add_result({
        {"mode", JsonValue::str("baseline")},
        {"topology", JsonValue::str(spec)},
        {"family", JsonValue::str(info.family)},
        {"algorithm", JsonValue::str(algorithm)},
        {"nodes", JsonValue::num(graph.num_nodes())},
        {"seconds", JsonValue::num(seconds)},
        {"lookups", JsonValue::num(theirs.lookups)},
        {"ours_seconds", JsonValue::num(solve_seconds)},
        {"ours_lookups", JsonValue::num(ours.lookups)},
        {"success", JsonValue::boolean(theirs.success)},
        {"faults_exact", JsonValue::boolean(baseline_exact)},
        {"same_faults_as_ours",
         JsonValue::boolean(theirs.success == ours.success &&
                            theirs.faults == ours.faults)},
    });
    std::cout << std::left << std::setw(27) << spec << std::setw(12)
              << algorithm << std::right << std::setw(9) << graph.num_nodes()
              << std::setw(12) << seconds * 1e3 << std::setw(10) << ""
              << std::setw(10) << theirs.lookups << std::setw(22) << "  "
              << (baseline_exact ? "exact" : "WRONG") << "\n";
  };
  if (info.family == "hypercube") {
    const auto& cube = static_cast<const Hypercube&>(*inst.topo);
    const auto chiang_tan = ChiangTanDiagnoser::for_hypercube(cube, graph);
    baseline_row("chiang_tan", chiang_tan);
    YangCycleDiagnoser yang(cube, graph);
    baseline_row("yang_cycles", yang);
  } else if (info.family == "star") {
    const auto chiang_tan = ChiangTanDiagnoser::for_star_graph(
        static_cast<const StarGraph&>(*inst.topo), graph);
    baseline_row("chiang_tan", chiang_tan);
  }
}

void distributed_row(const std::string& spec, JsonBenchReport& report,
                     Checks& checks) {
  const Instance& inst = instance(spec);
  const Graph& graph = inst.graph;
  const auto& cube = static_cast<const Hypercube&>(*inst.topo);
  const unsigned n = cube.info().degree;
  const FaultSet faults = make_faults(spec, n);
  const Syndrome syndrome =
      generate_syndrome(graph, faults, FaultyBehavior::kRandom, 0xE9);

  const TableOracle ours_oracle(graph, syndrome);
  const Timer timer;
  const DistributedRunStats ours =
      run_distributed_diagnosis(*inst.topo, graph, ours_oracle);
  const double seconds = timer.seconds();
  const TableOracle ct_oracle(graph, syndrome);
  const DistributedCost ct = distributed_chiang_tan_cost(cube, graph, ct_oracle);
  const bool exact = ours.success && ours.faults == faults.nodes();
  checks.exact = checks.exact && exact && ct.success;

  report.add_result({
      {"mode", JsonValue::str("distributed")},
      {"topology", JsonValue::str(spec)},
      {"nodes", JsonValue::num(graph.num_nodes())},
      {"faults", JsonValue::num(faults.size())},
      {"seconds", JsonValue::num(seconds)},
      {"rounds", JsonValue::num(ours.rounds)},
      {"messages", JsonValue::num(ours.messages)},
      {"lookups", JsonValue::num(ours.lookups)},
      {"chiang_tan_rounds", JsonValue::num(ct.rounds)},
      {"chiang_tan_messages", JsonValue::num(ct.messages)},
      {"chiang_tan_lookups", JsonValue::num(ct.lookups)},
      {"chiang_tan_success", JsonValue::boolean(ct.success)},
      {"success", JsonValue::boolean(ours.success)},
      {"faults_exact", JsonValue::boolean(exact)},
  });
  std::cout << std::left << std::setw(16) << spec << std::right
            << std::setw(8) << ours.rounds << std::setw(10) << ours.messages
            << std::setw(10) << ours.lookups << std::setw(8) << ct.rounds
            << std::setw(10) << ct.messages << std::setw(10) << ct.lookups
            << "  " << (exact ? "exact" : "WRONG") << "\n";
}

int run(bool smoke, const std::string& out_path) {
  const std::size_t reps = smoke ? 1 : 5;
  JsonBenchReport report("bench_paper");
  report.set_meta("smoke", JsonValue::boolean(smoke));
  report.set_meta("hardware_threads",
                  JsonValue::num(std::thread::hardware_concurrency()));
  report.set_meta("syndrome", JsonValue::str("materialised (TableOracle)"));
  report.set_meta("timing_reps", JsonValue::num(reps));

  Checks checks;
  std::cout << std::left << std::setw(27) << "topology" << std::setw(12)
            << "algorithm" << std::right << std::setw(9) << "N"
            << std::setw(12) << "ms" << std::setw(10) << "ns/DN"
            << std::setw(10) << "lookups" << std::setw(10) << "final"
            << std::setw(10) << "bound" << "\n";
  for (const Spec& s : kScalingSpecs) {
    if (smoke && !s.smoke) continue;
    scaling_and_baseline_rows(s.spec, reps, report, checks);
  }
  std::cout << "\n" << std::left << std::setw(16) << "distributed"
            << std::right << std::setw(8) << "rounds" << std::setw(10)
            << "messages" << std::setw(10) << "lookups" << std::setw(8)
            << "ct_rnd" << std::setw(10) << "ct_msgs" << std::setw(10)
            << "ct_look" << "\n";
  for (const Spec& s : kDistributedSpecs) {
    if (smoke && !s.smoke) continue;
    distributed_row(s.spec, report, checks);
  }

  if (!report.write_file(out_path)) return 1;
  std::cout << "\nwrote " << out_path << " (" << report.num_results()
            << " records)\n";
  if (!checks.exact) {
    std::cerr << "FAIL: a row's answer differs from the injected fault set\n";
    return 1;
  }
  if (!checks.within_bound) {
    std::cerr << "FAIL: a final run exceeded the paper's look-up bound\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace mmdiag::bench

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_paper.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_paper [--smoke] [--out FILE]\n";
      return 2;
    }
  }
  return mmdiag::bench::run(smoke, out_path);
}
