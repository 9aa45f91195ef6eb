// DiagnosisEngine: thread-safe LRU calibration cache semantics (single
// build per key under racing misses, LRU eviction, eviction safety through
// shared ownership) and bit-identical equivalence with directly constructed
// Diagnosers across every registry family.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/diagnoser.hpp"
#include "engine/engine.hpp"
#include "mm/directed_oracle.hpp"
#include "mm/directed_syndrome.hpp"
#include "mm/injector.hpp"
#include "mm/syndrome.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mmdiag {
namespace {

/// One certifiable (spec, delta) pair per registry family — the explicit
/// deltas keep small instances inside their §5 validity window.
struct FamilyCase {
  const char* spec;
  unsigned delta;
};
constexpr FamilyCase kEveryFamily[] = {
    {"hypercube 5", 3},          {"crossed_cube 5", 3},
    {"twisted_cube 5", 3},       {"folded_hypercube 5", 3},
    {"enhanced_hypercube 5 2", 3}, {"augmented_cube 6", 3},
    {"shuffle_cube 6", 3},       {"twisted_n_cube 5", 3},
    {"kary_ncube 2 6", 3},       {"augmented_kary_ncube 3 4", 3},
    {"star 4", 3},               {"nk_star 5 3", 4},
    {"pancake 4", 3},            {"arrangement 5 3", 4},
};

void expect_bit_identical(const DiagnosisResult& direct,
                          const DiagnosisResult& engine, std::size_t item) {
  ASSERT_EQ(direct.success, engine.success) << "item " << item;
  ASSERT_EQ(direct.faults, engine.faults) << "item " << item;
  ASSERT_EQ(direct.lookups, engine.lookups) << "item " << item;
  ASSERT_EQ(direct.probes, engine.probes) << "item " << item;
  ASSERT_EQ(direct.certified_component, engine.certified_component)
      << "item " << item;
  ASSERT_EQ(direct.final_members, engine.final_members) << "item " << item;
  ASSERT_EQ(direct.final_rounds, engine.final_rounds) << "item " << item;
  ASSERT_EQ(direct.failure_reason, engine.failure_reason) << "item " << item;
}

TEST(DiagnosisEngine, BitIdenticalToDirectDiagnoserForEveryFamily) {
  EngineOptions options;
  options.cache_capacity = std::size(kEveryFamily);
  options.diagnoser.delta = 0;  // per-call explicit deltas below
  DiagnosisEngine engine(options);
  for (const FamilyCase& family : kEveryFamily) {
    SCOPED_TRACE(family.spec);
    test::Instance inst(family.spec);
    DiagnoserOptions direct_options;
    direct_options.delta = family.delta;
    Diagnoser direct(*inst.topo, inst.graph, direct_options);
    const auto cal =
        engine.calibration(family.spec, family.delta, ParentRule::kSpread);
    EXPECT_EQ(cal->delta(), family.delta);
    EXPECT_EQ(cal->spec, inst.topo->spec());
    for (std::size_t i = 0; i < 4; ++i) {
      Rng rng(300 + i);
      const FaultSet faults(
          inst.graph.num_nodes(),
          inject_uniform(inst.graph.num_nodes(), i % (family.delta + 1), rng));
      const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kRandom, i);
      // Engine-side Diagnoser adopts the cached calibration through shared
      // ownership; the direct one calibrated from scratch.
      Diagnoser routed(graph_handle(cal), cal->partition, direct_options);
      expect_bit_identical(direct.diagnose(oracle), routed.diagnose(oracle),
                           i);
    }
  }
}

TEST(DiagnosisEngine, ServeMatchesDirectAndFlagsReuse) {
  EngineOptions options;
  options.cache_capacity = 4;
  options.threads = 3;
  DiagnosisEngine engine(options);
  const char* specs[] = {"hypercube 7", "star 5", "hypercube 7", "star 5",
                         "hypercube 7"};
  std::vector<FaultSet> faults;
  std::vector<LazyOracle> oracles;
  std::vector<EngineRequest> requests;
  faults.reserve(std::size(specs));
  oracles.reserve(std::size(specs));
  for (std::size_t i = 0; i < std::size(specs); ++i) {
    const test::Instance inst(specs[i]);
    Rng rng(40 + i);
    faults.emplace_back(inst.graph.num_nodes(),
                        inject_uniform(inst.graph.num_nodes(), 2, rng));
  }
  // Oracles must address the engine's graphs? No — any equal-content graph
  // works; use per-request instances exactly like external callers do.
  std::vector<std::unique_ptr<test::Instance>> insts;
  for (std::size_t i = 0; i < std::size(specs); ++i) {
    insts.push_back(std::make_unique<test::Instance>(specs[i]));
    oracles.emplace_back(insts.back()->graph, faults[i],
                         FaultyBehavior::kRandom, i);
    requests.push_back(EngineRequest{specs[i], &oracles.back()});
  }
  const std::vector<DiagnosisResult> served = engine.serve(requests);
  ASSERT_EQ(served.size(), std::size(specs));
  for (std::size_t i = 0; i < served.size(); ++i) {
    SCOPED_TRACE(i);
    Diagnoser direct(*insts[i]->topo, insts[i]->graph);
    expect_bit_identical(direct.diagnose(oracles[i]), served[i], i);
  }
  // Exactly two calibrations behind five requests. The cold count may
  // exceed two: a lane racing the builder blocks for the build and is
  // honestly attributed as not-reused even though the counters score a hit.
  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.misses, 2u);
  EXPECT_EQ(counters.entries, 2u);
  std::size_t cold = 0;
  for (const DiagnosisResult& r : served) cold += r.calibration_reused ? 0 : 1;
  EXPECT_GE(cold, 2u);
  EXPECT_LE(cold, served.size());
}

TEST(DiagnosisEngine, ServeIsolatesPerRequestFailures) {
  DiagnosisEngine engine;
  test::Instance inst("hypercube 7");
  Rng rng(7);
  const FaultSet faults(inst.graph.num_nodes(),
                        inject_uniform(inst.graph.num_nodes(), 3, rng));
  const LazyOracle good(inst.graph, faults, FaultyBehavior::kRandom, 1);
  const LazyOracle doomed(inst.graph, faults, FaultyBehavior::kRandom, 1);
  const std::vector<EngineRequest> requests = {
      {"hypercube 7", &good},
      {"no_such_family 3", &doomed},   // unknown spec
      {"hypercube 7", nullptr},        // null oracle
  };
  const std::vector<DiagnosisResult> served = engine.serve(requests);
  ASSERT_EQ(served.size(), 3u);
  EXPECT_TRUE(served[0].success) << served[0].failure_reason;
  EXPECT_FALSE(served[1].success);
  EXPECT_NE(served[1].failure_reason.find("no_such_family"),
            std::string::npos);
  EXPECT_FALSE(served[2].success);
  EXPECT_NE(served[2].failure_reason.find("null oracle"), std::string::npos);
}

TEST(DiagnosisEngine, ServeRejectsMalformedRequestsAtEveryCohortWidth) {
  // Malformed table requests fail with the scalar path's exact message
  // whether or not there are enough of them to fill a bitsliced cohort.
  EngineOptions options;
  options.threads = 2;
  DiagnosisEngine engine(options);
  test::Instance inst("hypercube 7");
  Rng rng(11);
  const FaultSet faults(inst.graph.num_nodes(),
                        inject_uniform(inst.graph.num_nodes(), 3, rng));
  const Syndrome syndrome =
      generate_syndrome(inst.graph, faults, FaultyBehavior::kRandom, 1);
  const DirectedLazyOracle directed(inst.graph, faults, DiagnosisModel::kBGM,
                                    FaultyBehavior::kRandom, 1);
  struct Shape {
    const DirectedOracle* directed;
    Node local_node;
    const char* message;
  };
  const Shape shapes[] = {
      {nullptr, 5, "local_node is set but the request has no directed oracle"},
      {&directed, kNoNode, "request carries both an MM* and a directed oracle"},
  };
  for (const Shape& shape : shapes) {
    for (const std::size_t count : {std::size_t{1}, std::size_t{63},
                                    std::size_t{64}, std::size_t{65}}) {
      SCOPED_TRACE(std::string(shape.message) + " x" + std::to_string(count));
      std::vector<TableOracle> tables;
      tables.reserve(count);
      std::vector<EngineRequest> requests;
      for (std::size_t i = 0; i < count; ++i) {
        tables.emplace_back(inst.graph, syndrome);
        requests.push_back(EngineRequest{"hypercube 7", &tables.back(),
                                         shape.directed, shape.local_node});
      }
      const std::vector<DiagnosisResult> served = engine.serve(requests);
      ASSERT_EQ(served.size(), count);
      for (const DiagnosisResult& r : served) {
        ASSERT_FALSE(r.success);
        ASSERT_EQ(r.failure_reason, shape.message);
        ASSERT_EQ(r.lookups, 0u);
      }
    }
  }
}

/// True when `r` is the refusal of an oracle built over a graph other than
/// the calibrated topology's.
bool refused_as_mismatch(const DiagnosisResult& r) {
  return !r.success && r.lookups == 0 && r.shards_used == 1 &&
         r.failure_reason.find("does not match the calibrated topology") !=
             std::string::npos;
}

TEST(DiagnosisEngine, ServeRefusesAnOracleOverAnotherGraphAtEveryCohortWidth) {
  // Table syndromes laid out for hypercube 7 requested as hypercube 10: the
  // solver would address 1024 nodes' rows in a 128-node table. Every width
  // — scalar, a 63-lane remainder, a full cohort, a cohort plus one — must
  // refuse before reading the syndrome.
  EngineOptions options;
  options.threads = 2;
  DiagnosisEngine engine(options);
  test::Instance small("hypercube 7");
  Rng rng(12);
  const FaultSet faults(small.graph.num_nodes(),
                        inject_uniform(small.graph.num_nodes(), 3, rng));
  const Syndrome syndrome =
      generate_syndrome(small.graph, faults, FaultyBehavior::kRandom, 1);
  for (const std::size_t count : {std::size_t{1}, std::size_t{63},
                                  std::size_t{64}, std::size_t{65}}) {
    SCOPED_TRACE(count);
    std::vector<TableOracle> tables;
    tables.reserve(count);
    std::vector<EngineRequest> requests;
    for (std::size_t i = 0; i < count; ++i) {
      tables.emplace_back(small.graph, syndrome);
      requests.push_back(EngineRequest{"hypercube 10", &tables.back()});
    }
    const std::vector<DiagnosisResult> served = engine.serve(requests);
    ASSERT_EQ(served.size(), count);
    for (const DiagnosisResult& r : served) {
      ASSERT_TRUE(refused_as_mismatch(r)) << r.failure_reason;
      ASSERT_EQ(r.failure_reason, served.front().failure_reason);
    }
  }
}

TEST(DiagnosisEngine, DiagnoseRefusesAnOracleOverAnotherGraph) {
  EngineOptions options;
  options.diagnoser.delta = 3;  // inside folded_hypercube 7's window too
  DiagnosisEngine engine(options);
  test::Instance small("hypercube 7");
  Rng rng(13);
  const FaultSet faults(small.graph.num_nodes(),
                        inject_uniform(small.graph.num_nodes(), 3, rng));
  const Syndrome syndrome =
      generate_syndrome(small.graph, faults, FaultyBehavior::kRandom, 1);
  const TableOracle table(small.graph, syndrome);
  // Another node count, and the same node count with another degree
  // sequence (the folded hypercube adds one complementary edge per node).
  for (const char* spec : {"hypercube 10", "folded_hypercube 7"}) {
    SCOPED_TRACE(spec);
    const DiagnosisResult r = engine.diagnose(spec, table);
    EXPECT_TRUE(refused_as_mismatch(r)) << r.failure_reason;
    EXPECT_NE(r.failure_reason.find("128 nodes"), std::string::npos);
  }
  // An equal-shape graph that is not the calibration's own is served.
  const DiagnosisResult ok = engine.diagnose("hypercube 7", table);
  EXPECT_TRUE(ok.success) << ok.failure_reason;
  EXPECT_EQ(ok.faults, faults.nodes());

  // Directed entry points check their oracle's graph the same way.
  const DirectedLazyOracle directed(small.graph, faults, DiagnosisModel::kBGM,
                                    FaultyBehavior::kRandom, 1);
  EXPECT_TRUE(refused_as_mismatch(
      engine.diagnose_directed("hypercube 10", directed)));
  EXPECT_TRUE(refused_as_mismatch(
      engine.local_diagnose("hypercube 10", directed, 5)));
  const std::vector<DiagnosisResult> served =
      engine.serve({EngineRequest{"hypercube 10", nullptr, &directed}});
  EXPECT_TRUE(refused_as_mismatch(served.at(0)));
}

TEST(DiagnosisEngine, SingleRequestEntryPointsMatchServe) {
  // The single-request entry points and serve()'s scalar lane run one
  // request body, so each answer must equal serve({request})[0]. Every
  // request gets a fresh oracle per call: look-up counters accumulate.
  const test::Instance inst("hypercube 7");
  DiagnosisEngine engine;
  const FaultSet faults(inst.graph.num_nodes(), {5, 12});
  const Syndrome mm_syndrome =
      generate_syndrome(inst.graph, faults, FaultyBehavior::kRandom, 3);
  DirectedSyndrome all_ones(inst.graph);
  for (Node u = 0; u < inst.graph.num_nodes(); ++u) {
    for (unsigned p = 0; p < inst.graph.degree(u); ++p) {
      all_ones.set_test(u, p, true);
    }
  }
  const auto lazy = [&](DiagnosisModel model) {
    return DirectedLazyOracle(inst.graph, faults, model,
                              FaultyBehavior::kRandom, 3);
  };
  const auto expect_same = [&](const DiagnosisResult& single,
                               const EngineRequest& request) {
    const DiagnosisResult served = engine.serve({request}).at(0);
    EXPECT_EQ(single.success, served.success);
    EXPECT_EQ(single.faults, served.faults);
    EXPECT_EQ(single.failure_reason, served.failure_reason);
    EXPECT_EQ(single.lookups, served.lookups);
    EXPECT_EQ(single.probes, served.probes);
    EXPECT_EQ(single.certified_component, served.certified_component);
    EXPECT_EQ(single.final_members, served.final_members);
    EXPECT_EQ(single.final_rounds, served.final_rounds);
    EXPECT_EQ(single.used_local_fast_path, served.used_local_fast_path);
  };
  {
    SCOPED_TRACE("mm-star table");
    const TableOracle a(inst.graph, mm_syndrome), b(inst.graph, mm_syndrome);
    const DiagnosisResult single = engine.diagnose("hypercube 7", a);
    EXPECT_TRUE(single.success) << single.failure_reason;
    expect_same(single, EngineRequest{"hypercube 7", &b});
  }
  for (const DiagnosisModel model :
       {DiagnosisModel::kPMC, DiagnosisModel::kBGM}) {
    SCOPED_TRACE(diagnosis_model_to_string(model) + " global");
    const DirectedLazyOracle a = lazy(model), b = lazy(model);
    const DiagnosisResult single = engine.diagnose_directed("hypercube 7", a);
    EXPECT_EQ(single.faults, faults.nodes());
    expect_same(single, EngineRequest{"hypercube 7", nullptr, &b});
  }
  {
    SCOPED_TRACE("bgm local, fast path");
    const DirectedLazyOracle a = lazy(DiagnosisModel::kBGM),
                             b = lazy(DiagnosisModel::kBGM);
    const DiagnosisResult single = engine.local_diagnose("hypercube 7", a, 5);
    EXPECT_TRUE(single.used_local_fast_path);
    expect_same(single, EngineRequest{"hypercube 7", nullptr, &b, 5});
  }
  {
    SCOPED_TRACE("bgm local, global fallback");
    const DirectedTableOracle a(inst.graph, all_ones, DiagnosisModel::kBGM),
        b(inst.graph, all_ones, DiagnosisModel::kBGM);
    const DiagnosisResult single = engine.local_diagnose("hypercube 7", a, 0);
    EXPECT_FALSE(single.used_local_fast_path);
    expect_same(single, EngineRequest{"hypercube 7", nullptr, &b, 0});
  }
  {
    SCOPED_TRACE("mismatched graph");
    const TableOracle a(inst.graph, mm_syndrome), b(inst.graph, mm_syndrome);
    const DiagnosisResult single = engine.diagnose("hypercube 8", a);
    EXPECT_TRUE(refused_as_mismatch(single)) << single.failure_reason;
    expect_same(single, EngineRequest{"hypercube 8", &b});
  }
}

TEST(DiagnosisEngine, CohortLaneOverAnotherGraphFailsAlone) {
  // One 64-wide cohort of hypercube 10 requests, one lane of which carries
  // a hypercube 7 table. That lane fails; the other 63 keep the results
  // and look-ups a direct Diagnoser gives them.
  EngineOptions options;
  options.threads = 2;
  DiagnosisEngine engine(options);
  test::Instance big("hypercube 10");
  test::Instance small("hypercube 7");
  constexpr std::size_t kBadLane = 17;
  std::vector<Syndrome> syndromes;
  syndromes.reserve(BitSlicedOracle::kMaxLanes);
  for (std::size_t i = 0; i < BitSlicedOracle::kMaxLanes; ++i) {
    const Graph& graph = i == kBadLane ? small.graph : big.graph;
    Rng rng(100 + i);
    const FaultSet faults(graph.num_nodes(),
                          inject_uniform(graph.num_nodes(), 1 + i % 8, rng));
    syndromes.push_back(
        generate_syndrome(graph, faults, FaultyBehavior::kRandom, i));
  }
  std::vector<TableOracle> tables;
  tables.reserve(syndromes.size());
  std::vector<EngineRequest> requests;
  for (std::size_t i = 0; i < syndromes.size(); ++i) {
    tables.emplace_back(i == kBadLane ? small.graph : big.graph, syndromes[i]);
    requests.push_back(EngineRequest{"hypercube 10", &tables.back()});
  }
  const std::vector<DiagnosisResult> served = engine.serve(requests);
  ASSERT_EQ(served.size(), requests.size());
  Diagnoser direct(*big.topo, big.graph);
  for (std::size_t i = 0; i < served.size(); ++i) {
    SCOPED_TRACE(i);
    if (i == kBadLane) {
      ASSERT_TRUE(refused_as_mismatch(served[i])) << served[i].failure_reason;
      continue;
    }
    ASSERT_TRUE(served[i].success) << served[i].failure_reason;
    ASSERT_EQ(served[i].shards_used, 1u);
    expect_bit_identical(direct.diagnose(tables[i]), served[i], i);
  }
}

TEST(DiagnosisEngine, ServeAnswersRequestsSharingAnOracleInTurn) {
  // Requests that name one oracle share its look-up counter: a 64-wide
  // cohort must not form over one table, and BGM local requests on one
  // syndrome must not race on 4 lanes. Every answer, look-ups included,
  // equals the single-request entry point's on a fresh oracle.
  EngineOptions options;
  options.threads = 4;
  DiagnosisEngine engine(options);
  const test::Instance inst("hypercube 7");
  const FaultSet faults(inst.graph.num_nodes(), {5, 12});
  const Syndrome syndrome =
      generate_syndrome(inst.graph, faults, FaultyBehavior::kRandom, 3);
  const TableOracle table(inst.graph, syndrome);
  const auto bgm = [&] {
    return DirectedLazyOracle(inst.graph, faults, DiagnosisModel::kBGM,
                              FaultyBehavior::kRandom, 3);
  };
  const DirectedLazyOracle shared_bgm = bgm();

  std::vector<EngineRequest> requests(BitSlicedOracle::kMaxLanes + 6,
                                      EngineRequest{"hypercube 7", &table});
  constexpr Node kLocalNodes = 16;
  for (Node v = 0; v < kLocalNodes; ++v) {
    requests.push_back({"hypercube 7", nullptr, &shared_bgm, v});
  }
  requests.push_back({"hypercube 7", nullptr, &shared_bgm, kNoNode});
  const std::vector<DiagnosisResult> served = engine.serve(requests);
  ASSERT_EQ(served.size(), requests.size());

  const TableOracle fresh_table(inst.graph, syndrome);
  const DiagnosisResult mm = engine.diagnose("hypercube 7", fresh_table);
  ASSERT_TRUE(mm.success) << mm.failure_reason;
  for (std::size_t i = 0; i < served.size(); ++i) {
    SCOPED_TRACE(i);
    const EngineRequest& rq = requests[i];
    DiagnosisResult expected;
    if (rq.oracle != nullptr) {
      expected = mm;
    } else {
      const DirectedLazyOracle fresh = bgm();
      expected = rq.local_node == kNoNode
                     ? engine.diagnose_directed("hypercube 7", fresh)
                     : engine.local_diagnose("hypercube 7", fresh,
                                             rq.local_node);
    }
    ASSERT_TRUE(served[i].success) << served[i].failure_reason;
    EXPECT_EQ(expected.faults, served[i].faults);
    EXPECT_EQ(expected.lookups, served[i].lookups);
    EXPECT_EQ(expected.used_local_fast_path, served[i].used_local_fast_path);
  }
}

TEST(DiagnosisEngine, ShardCountsOtherThanOneAreRejected) {
  for (const unsigned shards : {0u, 2u}) {
    EngineOptions options;
    options.shards = shards;
    EXPECT_THROW(DiagnosisEngine{options}, std::invalid_argument) << shards;
  }
  EngineOptions options;
  options.shards = 1;
  EXPECT_NO_THROW(DiagnosisEngine{options});
}

TEST(DiagnosisEngine, CanonicalSpecSharingAcrossSpellings) {
  DiagnosisEngine engine;
  const auto a = engine.calibration("hypercube 7");
  const auto b = engine.calibration("  hypercube \t 07 ");
  EXPECT_EQ(a.get(), b.get()) << "spellings of one instance must share";
  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.entries, 1u);
  // Distinct calibration parameters are distinct entries of the same spec.
  const auto c = engine.calibration("hypercube 7", 3, ParentRule::kSpread);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(engine.counters().misses, 2u);
}

TEST(DiagnosisEngine, CalibratesOncePerKeyUnderRacingMisses) {
  // N pool workers all miss on the same 4 specs at once; the striped build
  // locks must collapse every race to exactly one build per key.
  const char* specs[] = {"hypercube 7", "star 5", "kary_ncube 4 4",
                         "pancake 5"};
  EngineOptions options;
  options.cache_capacity = std::size(specs);
  options.threads = 1;
  DiagnosisEngine engine(options);
  ThreadPool pool(8);
  constexpr std::size_t kCalls = 64;
  std::vector<const Calibration*> seen(kCalls, nullptr);
  std::atomic<std::size_t> failures{0};
  pool.parallel_for(kCalls, [&](unsigned, std::size_t i) {
    try {
      seen[i] = engine.calibration(specs[i % std::size(specs)]).get();
    } catch (const std::exception&) {
      ++failures;
    }
  });
  ASSERT_EQ(failures.load(), 0u);
  // Pointer identity per spec: every call got the one shared bundle.
  std::set<const Calibration*> distinct;
  for (std::size_t i = 0; i < kCalls; ++i) {
    ASSERT_NE(seen[i], nullptr) << "call " << i;
    ASSERT_EQ(seen[i], seen[i % std::size(specs)]) << "call " << i;
    distinct.insert(seen[i]);
  }
  EXPECT_EQ(distinct.size(), std::size(specs));
  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.misses, std::size(specs));
  EXPECT_EQ(counters.hits, kCalls - std::size(specs));
  EXPECT_EQ(counters.evictions, 0u);
  EXPECT_EQ(counters.entries, std::size(specs));
}

/// What a calibration decided, for comparing engines of different widths.
void expect_same_calibration(const Calibration& expected,
                             const Calibration& actual) {
  EXPECT_EQ(expected.partition.plan->description(),
            actual.partition.plan->description());
  EXPECT_EQ(expected.partition.calibration_lookups,
            actual.partition.calibration_lookups);
  EXPECT_EQ(expected.partition.fully_validated,
            actual.partition.fully_validated);
  EXPECT_EQ(expected.graph.memory_bytes(), actual.graph.memory_bytes());
}

TEST(DiagnosisEngine, ColdCalibrationInsideServeLanesMatchesOneLane) {
  // Both specs are cold when serve() starts, so their calibrations are
  // built inside pool lanes — a 64-wide cohort lane for hypercube 10 and
  // scalar lanes for star 6 — where the pool is already busy. They must
  // complete inline and agree with a 1-lane engine bit for bit.
  test::Instance cube("hypercube 10");
  test::Instance star("star 6");
  std::vector<Syndrome> syndromes;
  syndromes.reserve(BitSlicedOracle::kMaxLanes);
  for (std::size_t i = 0; i < BitSlicedOracle::kMaxLanes; ++i) {
    Rng rng(500 + i);
    const FaultSet faults(cube.graph.num_nodes(),
                          inject_uniform(cube.graph.num_nodes(), i % 10, rng));
    syndromes.push_back(
        generate_syndrome(cube.graph, faults, FaultyBehavior::kRandom, i));
  }
  std::vector<TableOracle> tables;
  tables.reserve(syndromes.size());
  std::vector<FaultSet> star_faults;
  std::vector<LazyOracle> lazies;
  star_faults.reserve(6);
  lazies.reserve(6);
  std::vector<EngineRequest> requests;
  for (std::size_t i = 0; i < syndromes.size(); ++i) {
    tables.emplace_back(cube.graph, syndromes[i]);
    requests.push_back(EngineRequest{"hypercube 10", &tables.back()});
    if (i % 11 == 0) {
      Rng rng(900 + i);
      star_faults.emplace_back(
          star.graph.num_nodes(),
          inject_uniform(star.graph.num_nodes(), i % 5, rng));
      lazies.emplace_back(star.graph, star_faults.back(),
                          FaultyBehavior::kRandom, i);
      requests.push_back(EngineRequest{"star 6", &lazies.back()});
    }
  }

  EngineOptions options;
  options.threads = 1;
  DiagnosisEngine single(options);
  options.threads = 4;
  DiagnosisEngine wide(options);
  const std::vector<DiagnosisResult> expected = single.serve(requests);
  const std::vector<DiagnosisResult> served = wide.serve(requests);
  EXPECT_EQ(wide.counters().misses, 2u);
  ASSERT_EQ(served.size(), expected.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    ASSERT_TRUE(expected[i].success) << expected[i].failure_reason;
    expect_bit_identical(expected[i], served[i], i);
  }
  for (const char* spec : {"hypercube 10", "star 6"}) {
    SCOPED_TRACE(spec);
    expect_same_calibration(*single.calibration(spec), *wide.calibration(spec));
  }
}

TEST(DiagnosisEngine, ConcurrentColdDiagnosesMatchOneLane) {
  // Four threads each miss a different cold spec at once. One calibration
  // gets the pool's lanes and the others run inline on their own threads;
  // results, look-ups and calibrations equal a 1-lane engine's.
  const char* specs[] = {"hypercube 9", "star 6", "kary_ncube 4 4",
                         "pancake 6"};
  constexpr std::size_t kSpecs = std::size(specs);
  std::vector<std::unique_ptr<test::Instance>> insts;
  std::vector<FaultSet> faults;
  std::vector<LazyOracle> oracles;
  faults.reserve(kSpecs);
  oracles.reserve(kSpecs);
  for (std::size_t k = 0; k < kSpecs; ++k) {
    insts.push_back(std::make_unique<test::Instance>(specs[k]));
    const std::size_t n = insts.back()->graph.num_nodes();
    Rng rng(70 + k);
    faults.emplace_back(n, inject_uniform(n, 3, rng));
    oracles.emplace_back(insts.back()->graph, faults.back(),
                         FaultyBehavior::kRandom, k);
  }
  EngineOptions options;
  options.threads = 1;
  DiagnosisEngine single(options);
  options.threads = 4;
  DiagnosisEngine wide(options);

  std::vector<DiagnosisResult> served(kSpecs);
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> callers;
  for (std::size_t k = 0; k < kSpecs; ++k) {
    callers.emplace_back([&, k] {
      ++ready;
      while (ready.load() < kSpecs) std::this_thread::yield();
      served[k] = wide.diagnose(specs[k], oracles[k]);
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(wide.counters().misses, kSpecs);
  for (std::size_t k = 0; k < kSpecs; ++k) {
    SCOPED_TRACE(specs[k]);
    const DiagnosisResult expected = single.diagnose(specs[k], oracles[k]);
    ASSERT_TRUE(expected.success) << expected.failure_reason;
    EXPECT_FALSE(served[k].calibration_reused);
    expect_bit_identical(expected, served[k], k);
    expect_same_calibration(*single.calibration(specs[k]),
                            *wide.calibration(specs[k]));
  }
}

TEST(DiagnosisEngine, LruEvictionOrderAndRebuild) {
  const std::string a = "hypercube 7", b = "star 5", c = "kary_ncube 4 4";
  EngineOptions options;
  options.cache_capacity = 2;
  options.threads = 1;
  DiagnosisEngine engine(options);
  const auto cal_a = engine.calibration(a);  // miss: {a}
  (void)engine.calibration(b);               // miss: {b, a}
  (void)engine.calibration(a);               // hit:  {a, b}
  (void)engine.calibration(c);               // miss, evicts b: {c, a}
  EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.misses, 3u);
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.evictions, 1u);
  EXPECT_EQ(counters.entries, 2u);
  // a stayed resident (it was freshened by its hit), b must rebuild.
  EXPECT_EQ(engine.calibration(a).get(), cal_a.get());
  (void)engine.calibration(b);
  counters = engine.counters();
  EXPECT_EQ(counters.misses, 4u);
  EXPECT_EQ(counters.evictions, 2u);
  EXPECT_EQ(counters.entries, 2u);
}

TEST(DiagnosisEngine, TwoEntryLruOverFourSpecsHammeredByWorkers) {
  // The adversarial shape: 4 specs racing through a 2-entry LRU from 8 pool
  // workers. Whatever interleaving happens, every calibration handed out
  // must be the right instance, counters must balance, and the engine must
  // end with at most 2 resident entries.
  const FamilyCase hammer[] = {{"hypercube 5", 3},
                               {"crossed_cube 5", 3},
                               {"star 4", 3},
                               {"pancake 4", 3}};
  EngineOptions options;
  options.cache_capacity = 2;
  options.threads = 1;
  DiagnosisEngine engine(options);
  ThreadPool pool(8);
  constexpr std::size_t kCalls = 96;
  std::atomic<std::size_t> wrong{0}, failures{0};
  std::vector<std::shared_ptr<const Calibration>> held(kCalls);
  pool.parallel_for(kCalls, [&](unsigned, std::size_t i) {
    const FamilyCase& fc = hammer[(i * 2654435761u) % std::size(hammer)];
    try {
      auto cal = engine.calibration(fc.spec, fc.delta, ParentRule::kSpread);
      if (cal->spec != fc.spec || cal->delta() != fc.delta) ++wrong;
      held[i] = std::move(cal);  // outlive any eviction
    } catch (const std::exception&) {
      ++failures;
    }
  });
  ASSERT_EQ(failures.load(), 0u);
  EXPECT_EQ(wrong.load(), 0u);
  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.hits + counters.misses, kCalls);
  EXPECT_GE(counters.misses, std::size(hammer));  // each key built >= once
  EXPECT_GT(counters.evictions, 0u);
  EXPECT_LE(counters.entries, 2u);
  // Eviction safety: every handle held across evictions still diagnoses.
  for (const std::size_t i : {std::size_t{0}, kCalls - 1}) {
    const auto& cal = held[i];
    ASSERT_NE(cal, nullptr);
    Rng rng(17);
    const FaultSet faults(cal->graph.num_nodes(),
                          inject_uniform(cal->graph.num_nodes(), 2, rng));
    const LazyOracle oracle(cal->graph, faults, FaultyBehavior::kRandom, 5);
    Diagnoser diagnoser(graph_handle(cal), cal->partition);
    const DiagnosisResult r = diagnoser.diagnose(oracle);
    ASSERT_TRUE(r.success) << r.failure_reason;
    EXPECT_EQ(test::sorted(r.faults), test::sorted(faults.nodes()));
  }
}

TEST(DiagnosisEngine, SharedOwnershipOutlivesTheEngine) {
  std::unique_ptr<Diagnoser> diagnoser;
  {
    DiagnosisEngine engine;
    diagnoser = engine.make_diagnoser("hypercube 7");
  }  // engine (and its cache) destroyed; the bundle lives on
  test::Instance inst("hypercube 7");
  Rng rng(23);
  const FaultSet faults(inst.graph.num_nodes(),
                        inject_uniform(inst.graph.num_nodes(), 4, rng));
  const LazyOracle a(inst.graph, faults, FaultyBehavior::kAntiDiagnostic, 9);
  const LazyOracle b(inst.graph, faults, FaultyBehavior::kAntiDiagnostic, 9);
  const DiagnosisResult direct = Diagnoser(*inst.topo, inst.graph).diagnose(a);
  expect_bit_identical(direct, diagnoser->diagnose(b), 0);
}

TEST(DiagnosisEngine, DiagnoseFillsTheAmortisationSplit) {
  DiagnosisEngine engine;
  test::Instance inst("star 5");
  Rng rng(3);
  const FaultSet faults(inst.graph.num_nodes(),
                        inject_uniform(inst.graph.num_nodes(), 2, rng));
  const LazyOracle o1(inst.graph, faults, FaultyBehavior::kRandom, 1);
  const LazyOracle o2(inst.graph, faults, FaultyBehavior::kRandom, 1);
  const DiagnosisResult cold = engine.diagnose("star 5", o1);
  const DiagnosisResult warm = engine.diagnose("star 5", o2);
  ASSERT_TRUE(cold.success);
  ASSERT_TRUE(warm.success);
  EXPECT_FALSE(cold.calibration_reused);
  EXPECT_TRUE(warm.calibration_reused);
  EXPECT_GT(cold.setup_seconds, 0.0);
  EXPECT_GT(warm.setup_seconds, 0.0);
  EXPECT_GT(cold.diagnose_seconds, 0.0);
  // The direct path leaves the split untouched.
  const LazyOracle o3(inst.graph, faults, FaultyBehavior::kRandom, 1);
  Diagnoser direct(*inst.topo, inst.graph);
  const DiagnosisResult d = direct.diagnose(o3);
  EXPECT_FALSE(d.calibration_reused);
  EXPECT_EQ(d.setup_seconds, 0.0);
  EXPECT_GT(d.diagnose_seconds, 0.0);
}

TEST(DiagnosisEngine, UnsupportedBoundsAndBadSpecsThrow) {
  DiagnosisEngine engine;
  // Q5 at its default bound 5 cannot certify (the seed's failure_test
  // regime); the engine must surface the same DiagnosisUnsupportedError the
  // direct Diagnoser gives, and must not cache a broken entry.
  EXPECT_THROW((void)engine.calibration("hypercube 5"),
               DiagnosisUnsupportedError);
  EXPECT_THROW((void)engine.calibration("no_such_family 4"),
               std::invalid_argument);
  EXPECT_THROW((void)engine.calibration("hypercube junk"),
               std::invalid_argument);
  EXPECT_EQ(engine.counters().entries, 0u);
  EXPECT_EQ(engine.counters().misses, 0u);
  // The same instance still calibrates at a supported explicit bound.
  EXPECT_NO_THROW((void)engine.calibration("hypercube 5", 3,
                                           ParentRule::kSpread));
}

TEST(DiagnosisEngine, DefaultEngineServesTablesOnCsr) {
  // Hypercube 17 has 2^17 nodes: a default engine lays its calibration on
  // the CSR graph and solves an in-memory table exactly as a direct
  // Diagnoser over the same graph does.
  DiagnosisEngine engine{EngineOptions{}};
  const char* spec = "hypercube 17";
  const auto cal = engine.calibration(spec);
  EXPECT_EQ(cal->graph.num_nodes(), 131072u);

  const test::Instance inst(spec);
  const std::size_t n = inst.graph.num_nodes();
  Rng rng(17);
  const FaultSet faults(n, inject_uniform(n, 9, rng));
  const Syndrome syndrome =
      generate_syndrome(inst.graph, faults, FaultyBehavior::kRandom, 17);
  const TableOracle table(inst.graph, syndrome);
  const DiagnosisResult served = engine.diagnose(spec, table);
  ASSERT_TRUE(served.success) << served.failure_reason;
  Diagnoser direct(*inst.topo, inst.graph, DiagnoserOptions{});
  expect_bit_identical(direct.diagnose(table), served, 0);
}

// ---- Explicit invalidation -------------------------------------------------

TEST(DiagnosisEngine, InvalidateRetiresEveryVariantOfASpec) {
  DiagnosisEngine engine;
  // Two calibration variants of one spec (distinct cache keys) plus an
  // unrelated spec that must survive the targeted invalidation.
  (void)engine.calibration("hypercube 5", 3, ParentRule::kSpread, true);
  (void)engine.calibration("hypercube 5", 3, ParentRule::kSpread, false);
  (void)engine.calibration("star 4", 3, ParentRule::kSpread);
  EXPECT_EQ(engine.counters().entries, 3u);

  // Canonicalisation: an odd spelling retires the same stem, all variants.
  EXPECT_EQ(engine.invalidate(" hypercube  05"), 2u);
  EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.entries, 1u);
  EXPECT_EQ(counters.evictions_explicit, 2u);
  EXPECT_EQ(counters.evictions_lru, 0u);
  EXPECT_EQ(counters.evictions, 2u);

  // Unknown specs throw instead of silently matching nothing.
  EXPECT_THROW((void)engine.invalidate("not_a_topology 3"),
               std::invalid_argument);

  EXPECT_EQ(engine.invalidate_all(), 1u);
  counters = engine.counters();
  EXPECT_EQ(counters.entries, 0u);
  EXPECT_EQ(counters.evictions_explicit, 3u);

  // The next request is a plain rebuild, not an error.
  EXPECT_NE(engine.calibration("hypercube 5", 3, ParentRule::kSpread), nullptr);
}

TEST(DiagnosisEngine, EvictionCountersSplitLruFromExplicit) {
  EngineOptions options;
  options.cache_capacity = 1;
  DiagnosisEngine engine(options);
  (void)engine.calibration("hypercube 5", 3, ParentRule::kSpread);
  (void)engine.calibration("star 4", 3, ParentRule::kSpread);  // LRU evicts
  EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.evictions_lru, 1u);
  EXPECT_EQ(counters.evictions_explicit, 0u);

  EXPECT_EQ(engine.invalidate_all(), 1u);
  counters = engine.counters();
  EXPECT_EQ(counters.evictions_lru, 1u);
  EXPECT_EQ(counters.evictions_explicit, 1u);
  EXPECT_EQ(counters.evictions,
            counters.evictions_lru + counters.evictions_explicit);
  EXPECT_EQ(counters.entries, 0u);
}

TEST(DiagnosisEngine, ServeKeepsNoCalibrationAliveAfterInvalidation) {
  // The cache is the only owner a served calibration has once the stream
  // is answered: no lane keeps a driver (and with it the bundle) behind,
  // so invalidation really retires it.
  EngineOptions options;
  options.threads = 2;
  DiagnosisEngine engine(options);
  std::weak_ptr<const Calibration> retired;
  {
    const std::shared_ptr<const Calibration> cal =
        engine.calibration("hypercube 10");
    retired = cal;
    const Syndrome syndrome(cal->graph);
    const TableOracle table(cal->graph, syndrome);
    const std::vector<DiagnosisResult> served = engine.serve(
        {{"hypercube 10", &table, nullptr, kNoNode},
         {"hypercube 10", &table, nullptr, kNoNode}});
    ASSERT_EQ(served.size(), 2u);
    for (const DiagnosisResult& r : served) {
      ASSERT_TRUE(r.success) << r.failure_reason;
      EXPECT_TRUE(r.faults.empty());
      EXPECT_TRUE(r.calibration_reused);
    }
  }
  EXPECT_EQ(engine.invalidate_all(), 1u);
  EXPECT_TRUE(retired.expired());
}

TEST(DiagnosisEngine, InvalidationRacingServeStaysBitIdentical) {
  // serve() under a hammering invalidate_all(): eviction only decides where
  // calibrations live (shared_ptr holders keep evicted bundles alive), so
  // every served result must stay bit-identical to the direct diagnosis.
  EngineOptions options;
  options.threads = 2;
  options.diagnoser.delta = 3;
  DiagnosisEngine engine(options);
  const std::shared_ptr<const Calibration> cal =
      engine.calibration("hypercube 5");
  const std::size_t n = cal->graph.num_nodes();
  Rng rng(0xCAFE);
  const FaultSet faults(n, inject_uniform(n, 2, rng));

  std::vector<std::unique_ptr<LazyOracle>> oracles;
  std::vector<EngineRequest> requests;
  for (int i = 0; i < 12; ++i) {
    oracles.push_back(std::make_unique<LazyOracle>(
        cal->graph, faults, FaultyBehavior::kRandom, 9));
    requests.push_back({"hypercube 5", oracles.back().get(), nullptr, kNoNode});
  }
  Diagnoser direct(cal->graph, cal->partition, options.diagnoser);
  const LazyOracle reference_oracle(cal->graph, faults, FaultyBehavior::kRandom,
                                    9);
  const DiagnosisResult expected = direct.diagnose(reference_oracle);

  std::atomic<bool> stop{false};
  std::thread invalidator([&] {
    while (!stop.load()) {
      (void)engine.invalidate_all();
    }
  });
  // A fixed number of rounds can finish before the invalidator thread is
  // ever scheduled, so keep serving (at least 8 rounds) until an explicit
  // eviction proves the two overlapped; the deadline only bounds a hang.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  int round = 0;
  for (; round < 8 || (engine.counters().evictions_explicit == 0 &&
                       std::chrono::steady_clock::now() < deadline);
       ++round) {
    const std::vector<DiagnosisResult> results = engine.serve(requests);
    ASSERT_EQ(results.size(), requests.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      expect_bit_identical(expected, results[i], i);
    }
  }
  stop.store(true);
  invalidator.join();
  EXPECT_GT(engine.counters().evictions_explicit, 0u)
      << "no explicit eviction after " << round << " serve rounds";
}

TEST(ParentRuleNames, RoundTripAndAliases) {
  for (const ParentRule rule : kAllParentRules) {
    EXPECT_EQ(parent_rule_from_string(parent_rule_to_string(rule)), rule);
  }
  EXPECT_EQ(parent_rule_from_string("least_first"), ParentRule::kLeastFirst);
  EXPECT_EQ(parent_rule_from_string("hash_spread"), ParentRule::kHashSpread);
  EXPECT_THROW((void)parent_rule_from_string("fastest"),
               std::invalid_argument);
}

}  // namespace
}  // namespace mmdiag
