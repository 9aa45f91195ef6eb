// Scale benchmark: diagnosis on large hypercubes through the CSR graph
// every solver runs on and the lazy oracle (no syndrome table — tests are
// computed on consultation). Each row records the graph build, the
// calibration, the solves, the counted look-ups and the memory they took:
// hypercube 20 (2^20 nodes, ~21M directed edges) holds its CSR at 2 bytes
// per mirror entry plus the solver's O(N) scratch.
//
// Calibration is the engine's served configuration (validate_all=true:
// every component certified, probed on a hardware_concurrency-lane
// ThreadPool like a default DiagnosisEngine's), so the calibration column
// is the set-up cost a request for the spec really pays. The syndromes are
// not: every row reads a lazy oracle that synthesises each test on
// consultation, so no syndrome is held in memory and the report says so.
//
// Not a google-benchmark binary: CI checks the JSON fields on images
// without the benchmark library.
//
//   bench_scale [--smoke] [--out FILE]
//
// --smoke shrinks to hypercube 16 for CI (seconds); schema is identical.
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench_json.hpp"
#include "core/certified_partition.hpp"
#include "core/diagnoser.hpp"
#include "mm/behavior.hpp"
#include "mm/fault_set.hpp"
#include "mm/injector.hpp"
#include "mm/oracle.hpp"
#include "topology/registry.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace mmdiag::bench {
namespace {

std::uint64_t peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss) / 1024;  // bytes
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // kilobytes
#endif
#else
  return 0;
#endif
}

int run(bool smoke, const std::string& out_path) {
  // Ascending so the peak-RSS column of each row is not inflated by a
  // bigger instance that ran before it; hypercube 21 keeps a
  // multi-million-node solve on record.
  const std::vector<std::string> rows =
      smoke ? std::vector<std::string>{"hypercube 16"}
            : std::vector<std::string>{"hypercube 16", "hypercube 17",
                                       "hypercube 18", "hypercube 19",
                                       "hypercube 20", "hypercube 21"};
  const std::size_t syndromes = smoke ? 2 : 4;
  ThreadPool pool;  // hardware_concurrency lanes, as the engine defaults

  JsonBenchReport report("bench_scale");
  report.set_meta("smoke", JsonValue::boolean(smoke));
  report.set_meta("syndromes_per_row", JsonValue::num(syndromes));
  report.set_meta("calibration_scope",
                  JsonValue::str("all components (validate_all=true), as "
                                 "DiagnosisEngine serves"));
  report.set_meta("calibration_lanes", JsonValue::num(pool.size()));
  report.set_meta("syndrome",
                  JsonValue::str("synthetic syndrome, not held in memory "
                                 "(lazy oracle on every row)"));
  report.set_meta("hardware_threads",
                  JsonValue::num(std::thread::hardware_concurrency()));

  std::cout << std::left << std::setw(15) << "topology" << std::right
            << std::setw(10) << "nodes" << std::setw(7) << "delta"
            << std::setw(9) << "build s" << std::setw(9) << "cal s"
            << std::setw(10) << "syn/s" << std::setw(14) << "lookups/syn"
            << std::setw(14) << "csr bytes" << std::setw(10) << "rss KB"
            << "\n";

  for (const std::string& spec : rows) {
    const auto topo = make_topology_from_spec(spec);
    const auto info = topo->info();
    const unsigned delta = topo->default_fault_bound();

    const Timer build_timer;
    const Graph graph = topo->build_graph(&pool);
    const double build_seconds = build_timer.seconds();

    const Timer cal_timer;
    const CertifiedPartition partition = find_certified_partition(
        *topo, graph, delta, ParentRule::kSpread, /*validate_all=*/true, &pool);
    const double calibration_seconds = cal_timer.seconds();

    Diagnoser diagnoser(graph, partition, DiagnoserOptions{});

    // Deterministic workload: fault counts cycle 0..delta, mixed faulty
    // behaviours, one lazy oracle per syndrome.
    constexpr FaultyBehavior kBehaviors[] = {
        FaultyBehavior::kRandom, FaultyBehavior::kAllZero,
        FaultyBehavior::kAllOne, FaultyBehavior::kAntiDiagnostic};
    std::uint64_t total_lookups = 0;
    std::size_t succeeded = 0;
    double solve_seconds = 0;
    for (std::size_t i = 0; i < syndromes; ++i) {
      Rng rng(0x407947 + i * 2654435761ULL);
      const FaultSet faults(
          graph.num_nodes(),
          inject_uniform(graph.num_nodes(),
                         (i * 7) % (static_cast<std::size_t>(delta) + 1),
                         rng));
      const LazyOracle oracle(graph, faults, kBehaviors[i % 4], i);
      const Timer solve_timer;
      const DiagnosisResult r = diagnoser.diagnose(oracle);
      solve_seconds += solve_timer.seconds();
      total_lookups += r.lookups;
      succeeded += r.success ? 1 : 0;
    }

    const double syn_per_sec =
        solve_seconds > 0 ? static_cast<double>(syndromes) / solve_seconds
                          : 0;
    const double lookups_per_syndrome =
        static_cast<double>(total_lookups) / static_cast<double>(syndromes);
    const std::uint64_t rss_kb = peak_rss_kb();

    report.add_result({
        {"topology", JsonValue::str(spec)},
        {"family", JsonValue::str(info.family)},
        {"nodes", JsonValue::num(info.num_nodes)},
        {"degree", JsonValue::num(info.degree)},
        {"delta", JsonValue::num(delta)},
        {"syndromes", JsonValue::num(syndromes)},
        {"succeeded", JsonValue::num(succeeded)},
        {"build_seconds", JsonValue::num(build_seconds)},
        {"calibration_seconds", JsonValue::num(calibration_seconds)},
        {"calibration_lookups", JsonValue::num(partition.calibration_lookups)},
        {"solve_seconds", JsonValue::num(solve_seconds)},
        {"syn_per_sec", JsonValue::num(syn_per_sec)},
        {"lookups_per_syndrome", JsonValue::num(lookups_per_syndrome)},
        {"csr_bytes", JsonValue::num(graph.memory_bytes())},
        {"peak_rss_kb", JsonValue::num(rss_kb)},
    });

    std::cout << std::left << std::setw(15) << spec << std::right
              << std::setw(10) << info.num_nodes << std::setw(7) << delta
              << std::fixed << std::setprecision(2) << std::setw(9)
              << build_seconds << std::setw(9) << calibration_seconds
              << std::setw(10) << syn_per_sec << std::setw(14)
              << static_cast<std::uint64_t>(lookups_per_syndrome)
              << std::setw(14) << graph.memory_bytes() << std::setw(10)
              << rss_kb << "\n";
  }

  if (!report.write_file(out_path)) return 1;
  std::cout << "\nwrote " << out_path << " (" << report.num_results()
            << " records)\n";
  return 0;
}

}  // namespace
}  // namespace mmdiag::bench

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_scale.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_scale [--smoke] [--out FILE]\n";
      return 2;
    }
  }
  return mmdiag::bench::run(smoke, out_path);
}
