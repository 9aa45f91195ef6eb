// The batch path, DiagnosisEngine::serve: thread-pool correctness and
// bit-identical equivalence with the sequential Diagnoser across topology
// families, batch sizes, bitsliced cohort widths and lane counts.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/diagnoser.hpp"
#include "engine/engine.hpp"
#include "mm/injector.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mmdiag {
namespace {

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  constexpr std::size_t kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  std::vector<unsigned> lane_of(kCount, ~0u);
  pool.parallel_for(kCount, [&](unsigned lane, std::size_t i) {
    // No gtest calls on worker threads; record and assert afterwards.
    lane_of[i] = lane;
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    ASSERT_LT(lane_of[i], pool.size()) << "index " << i;
  }
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<std::size_t> order;
  pool.parallel_for(16, [&](unsigned lane, std::size_t i) {
    EXPECT_EQ(lane, 0u);
    order.push_back(i);  // no synchronisation needed: inline execution
  });
  std::vector<std::size_t> expected(16);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, ZeroCountIsANoOp) {
  ThreadPool pool(3);
  pool.parallel_for(0, [&](unsigned, std::size_t) { FAIL(); });
}

TEST(ThreadPool, FewerItemsThanLanes) {
  // Lanes beyond the item count must park without touching any index and
  // without deadlocking the join.
  ThreadPool pool(8);
  for (const std::size_t count : {std::size_t{1}, std::size_t{3},
                                  std::size_t{7}}) {
    std::vector<std::atomic<int>> hits(count);
    pool.parallel_for(count, [&](unsigned lane, std::size_t i) {
      (void)lane;
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "count=" << count << " i=" << i;
    }
  }
}

TEST(ThreadPool, SingleItemManyLanes) {
  ThreadPool pool(6);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> hits{0};
    pool.parallel_for(1, [&](unsigned, std::size_t i) {
      ASSERT_EQ(i, 0u);
      ++hits;
    });
    ASSERT_EQ(hits.load(), 1);
  }
}

TEST(ThreadPool, ExceptionsPropagateToTheCaller) {
  ThreadPool pool(4);
  const auto boom = [](unsigned, std::size_t i) {
    if (i == 37) throw std::runtime_error("lane exploded");
  };
  EXPECT_THROW(pool.parallel_for(100, boom), std::runtime_error);
  // The pool must stay usable after an exceptional job.
  std::atomic<std::size_t> done{0};
  pool.parallel_for(50, [&](unsigned, std::size_t) { ++done; });
  EXPECT_EQ(done.load(), 50u);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(2);
  for (int round = 0; round < 25; ++round) {
    std::atomic<std::uint64_t> sum{0};
    pool.parallel_for(101, [&](unsigned, std::size_t i) { sum += i; });
    ASSERT_EQ(sum.load(), 101u * 100u / 2u);
  }
}

TEST(ThreadPool, NestedCallFromALaneRunsInline) {
  // A lane that calls parallel_for on its own pool finds the job slot held
  // and runs the inner loop on its own thread instead of deadlocking.
  ThreadPool pool(4);
  constexpr std::size_t kOuter = 16, kInner = 50;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  std::atomic<int> inner_off_thread{0};
  pool.parallel_for(kOuter, [&](unsigned, std::size_t i) {
    const std::thread::id me = std::this_thread::get_id();
    pool.parallel_for(kInner, [&](unsigned lane, std::size_t j) {
      if (lane != 0 || std::this_thread::get_id() != me) ++inner_off_thread;
      hits[i * kInner + j].fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_off_thread.load(), 0);
  for (std::size_t k = 0; k < hits.size(); ++k) {
    ASSERT_EQ(hits[k].load(), 1) << "index " << k;
  }
}

TEST(ThreadPool, ConcurrentCallersBothFinish) {
  // Two threads share one pool: one gets the lanes, the other runs inline
  // (or gets the lanes after the first releases them). Either way both
  // finish and every index of both jobs runs exactly once.
  ThreadPool pool(4);
  constexpr std::size_t kCount = 20000;
  constexpr int kRounds = 20;
  std::vector<std::atomic<int>> hits[2] = {
      std::vector<std::atomic<int>>(kCount),
      std::vector<std::atomic<int>>(kCount)};
  std::atomic<int> ready{0};
  const auto caller = [&](int who) {
    ++ready;
    while (ready.load() < 2) std::this_thread::yield();
    for (int round = 0; round < kRounds; ++round) {
      pool.parallel_for(kCount, [&](unsigned, std::size_t i) {
        hits[who][i].fetch_add(1, std::memory_order_relaxed);
      });
    }
  };
  std::thread a(caller, 0), b(caller, 1);
  a.join();
  b.join();
  for (const auto& job : hits) {
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(job[i].load(), kRounds) << "index " << i;
    }
  }
}

// ---------------------------------------------------------------------------

/// A deterministic mixed batch over `spec`: fault counts 0..delta cycling,
/// all four faulty-tester behaviours.
struct TestBatch {
  std::vector<FaultSet> faults;
  std::vector<LazyOracle> oracles;
  std::vector<const SyndromeOracle*> ptrs;
};

TestBatch make_batch(const test::Instance& inst, unsigned delta,
                     std::size_t count) {
  TestBatch batch;
  batch.faults.reserve(count);
  batch.oracles.reserve(count);
  constexpr FaultyBehavior kBehaviors[] = {
      FaultyBehavior::kRandom, FaultyBehavior::kAllZero,
      FaultyBehavior::kAllOne, FaultyBehavior::kAntiDiagnostic};
  for (std::size_t i = 0; i < count; ++i) {
    Rng rng(1000 + i);
    batch.faults.emplace_back(
        inst.graph.num_nodes(),
        inject_uniform(inst.graph.num_nodes(), i % (delta + 1), rng));
  }
  for (std::size_t i = 0; i < count; ++i) {
    batch.oracles.emplace_back(inst.graph, batch.faults[i], kBehaviors[i % 4],
                               i);
  }
  for (const LazyOracle& o : batch.oracles) batch.ptrs.push_back(&o);
  return batch;
}

void expect_equivalent(const DiagnosisResult& seq, const DiagnosisResult& bat,
                       std::size_t item) {
  ASSERT_EQ(seq.success, bat.success) << "item " << item;
  ASSERT_EQ(seq.faults, bat.faults) << "item " << item;
  ASSERT_EQ(seq.failure_reason, bat.failure_reason) << "item " << item;
  ASSERT_EQ(seq.lookups, bat.lookups) << "item " << item;
  ASSERT_EQ(seq.probes, bat.probes) << "item " << item;
  ASSERT_EQ(seq.certified_component, bat.certified_component)
      << "item " << item;
}

/// Every oracle as one request for `spec`, served by `engine`.
std::vector<DiagnosisResult> serve_all(
    DiagnosisEngine& engine, const std::string& spec,
    const std::vector<const SyndromeOracle*>& oracles) {
  std::vector<EngineRequest> requests;
  requests.reserve(oracles.size());
  for (const SyndromeOracle* oracle : oracles) {
    requests.push_back(EngineRequest{spec, oracle});
  }
  return engine.serve(requests);
}

EngineOptions lanes(unsigned threads) {
  EngineOptions options;
  options.threads = threads;
  return options;
}

TEST(ServeBatch, BitIdenticalToSequentialAcrossFamilies) {
  for (const char* spec : {"hypercube 7", "star 5", "kary_ncube 4 4"}) {
    SCOPED_TRACE(spec);
    test::Instance inst(spec);
    Diagnoser sequential(*inst.topo, inst.graph);
    const TestBatch batch = make_batch(inst, sequential.delta(), 12);

    std::vector<DiagnosisResult> truth;
    for (const SyndromeOracle* oracle : batch.ptrs) {
      truth.push_back(sequential.diagnose(*oracle));
    }

    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(threads);
      DiagnosisEngine engine(lanes(threads));
      EXPECT_EQ(engine.threads(), threads);
      EXPECT_EQ(engine.calibration(spec)->delta(), sequential.delta());
      const std::vector<DiagnosisResult> served =
          serve_all(engine, spec, batch.ptrs);
      ASSERT_EQ(served.size(), batch.ptrs.size());
      for (std::size_t i = 0; i < truth.size(); ++i) {
        expect_equivalent(truth[i], served[i], i);
      }
    }
  }
}

TEST(ServeBatch, EmptyAndSingletonBatches) {
  test::Instance inst("hypercube 7");
  DiagnosisEngine engine(lanes(3));
  EXPECT_TRUE(engine.serve({}).empty());

  Rng rng(7);
  const FaultSet faults(inst.graph.num_nodes(),
                        inject_uniform(inst.graph.num_nodes(), 3, rng));
  const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kRandom, 1);
  const std::vector<DiagnosisResult> one =
      serve_all(engine, "hypercube 7", {&oracle});
  ASSERT_EQ(one.size(), 1u);
  ASSERT_TRUE(one[0].success) << one[0].failure_reason;
  EXPECT_EQ(test::sorted(one[0].faults), test::sorted(faults.nodes()));
  EXPECT_GT(one[0].lookups, 0u);
}

TEST(ServeBatch, FailedItemsKeepTheirCostAndDoNotPoisonTheBatch) {
  // One undiagnosable syndrome (every probed seed faulty, all-one testers)
  // mixed into healthy traffic: its slot reports failure with nonzero
  // look-ups, every other slot is unaffected.
  test::Instance inst("hypercube 7");
  Diagnoser sequential(*inst.topo, inst.graph);
  const PartitionPlan& plan = *sequential.partition().plan;
  std::vector<Node> seeds;
  for (std::uint32_t c = 0; c < 8; ++c) seeds.push_back(plan.seed_of(c));
  const FaultSet poisoned(inst.graph.num_nodes(), seeds);  // |F| = 8 > 7
  Rng rng(3);
  const FaultSet healthy(inst.graph.num_nodes(),
                         inject_uniform(inst.graph.num_nodes(), 2, rng));

  const LazyOracle bad(inst.graph, poisoned, FaultyBehavior::kAllOne, 0);
  // Two distinct oracles over the same fault set: each oracle may be
  // consulted by exactly one lane (the look-up counter is unsynchronised).
  const LazyOracle good_a(inst.graph, healthy, FaultyBehavior::kRandom, 1);
  const LazyOracle good_b(inst.graph, healthy, FaultyBehavior::kRandom, 1);
  DiagnosisEngine engine(lanes(2));
  const std::vector<DiagnosisResult> served =
      serve_all(engine, "hypercube 7", {&good_a, &bad, &good_b});

  ASSERT_EQ(served.size(), 3u);
  EXPECT_FALSE(served[1].success);
  EXPECT_GT(served[1].lookups, 0u);
  expect_equivalent(sequential.diagnose(bad), served[1], 1);
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    ASSERT_TRUE(served[i].success);
    EXPECT_EQ(test::sorted(served[i].faults), test::sorted(healthy.nodes()));
  }
}

/// The same deterministic workload as make_batch, materialised as
/// syndrome tables so the bitsliced cohort path engages.
struct TableTestBatch {
  std::vector<FaultSet> faults;
  std::vector<Syndrome> syndromes;
  std::vector<TableOracle> oracles;
  std::vector<const SyndromeOracle*> ptrs;
};

TableTestBatch make_table_batch(const test::Instance& inst, unsigned delta,
                                std::size_t count) {
  TableTestBatch batch;
  batch.faults.reserve(count);
  batch.syndromes.reserve(count);
  batch.oracles.reserve(count);
  constexpr FaultyBehavior kBehaviors[] = {
      FaultyBehavior::kRandom, FaultyBehavior::kAllZero,
      FaultyBehavior::kAllOne, FaultyBehavior::kAntiDiagnostic};
  for (std::size_t i = 0; i < count; ++i) {
    Rng rng(1000 + i);
    batch.faults.emplace_back(
        inst.graph.num_nodes(),
        inject_uniform(inst.graph.num_nodes(), i % (delta + 1), rng));
  }
  for (std::size_t i = 0; i < count; ++i) {
    batch.syndromes.push_back(generate_syndrome(inst.graph, batch.faults[i],
                                                kBehaviors[i % 4], i));
    batch.oracles.emplace_back(inst.graph, batch.syndromes.back());
  }
  for (const TableOracle& o : batch.oracles) batch.ptrs.push_back(&o);
  return batch;
}

TEST(ServeBatch, BitslicedCohortsMatchScalarAtEveryWidth) {
  // Widths straddling the 64-lane cohort boundary: 63 (no cohort forms),
  // 64 (exactly one), 65 (one cohort + one scalar straggler), 128 (two
  // cohorts). Each width is checked against the sequential Diagnoser, the
  // scalar path every table syndrome would otherwise take.
  test::Instance inst("hypercube 7");
  Diagnoser sequential(*inst.topo, inst.graph);
  DiagnosisEngine engine(lanes(2));
  for (const std::size_t count : {std::size_t{63}, std::size_t{64},
                                  std::size_t{65}, std::size_t{128}}) {
    SCOPED_TRACE(count);
    const TableTestBatch batch =
        make_table_batch(inst, sequential.delta(), count);

    std::vector<DiagnosisResult> truth;
    for (const SyndromeOracle* oracle : batch.ptrs) {
      truth.push_back(sequential.diagnose(*oracle));
    }
    const std::vector<DiagnosisResult> served =
        serve_all(engine, "hypercube 7", batch.ptrs);
    ASSERT_EQ(served.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
      expect_equivalent(truth[i], served[i], i);
      ASSERT_EQ(truth[i].final_members, served[i].final_members) << i;
      ASSERT_EQ(truth[i].final_rounds, served[i].final_rounds) << i;
    }
  }
}

TEST(ServeBatch, MixedLazyAndTableBatchScattersCorrectly) {
  // 64 tables interleaved with lazy oracles: the tables form one cohort,
  // the lazies stay scalar, and every result lands back at its original
  // index.
  test::Instance inst("hypercube 7");
  Diagnoser sequential(*inst.topo, inst.graph);
  const TableTestBatch tables =
      make_table_batch(inst, sequential.delta(), 64);
  const TestBatch lazies = make_batch(inst, sequential.delta(), 9);

  std::vector<const SyndromeOracle*> mixed;
  std::size_t t = 0, l = 0;
  while (t < tables.ptrs.size() || l < lazies.ptrs.size()) {
    if (t < tables.ptrs.size()) mixed.push_back(tables.ptrs[t++]);
    if (l < lazies.ptrs.size()) mixed.push_back(lazies.ptrs[l++]);
  }

  std::vector<DiagnosisResult> truth;
  for (const SyndromeOracle* oracle : mixed) {
    truth.push_back(sequential.diagnose(*oracle));
  }

  DiagnosisEngine engine(lanes(3));
  const std::vector<DiagnosisResult> served =
      serve_all(engine, "hypercube 7", mixed);
  ASSERT_EQ(served.size(), mixed.size());
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    expect_equivalent(truth[i], served[i], i);
    ASSERT_EQ(truth[i].final_members, served[i].final_members) << i;
  }
}

TEST(ServeBatch, SingleItemCohortlessBatchStillWorks) {
  // One table oracle: far below cohort width, must take the scalar path
  // without stalling the pool.
  test::Instance inst("star 5");
  Diagnoser sequential(*inst.topo, inst.graph);
  const TableTestBatch batch = make_table_batch(inst, sequential.delta(), 1);
  DiagnosisEngine engine(lanes(4));
  const std::vector<DiagnosisResult> served =
      serve_all(engine, "star 5", batch.ptrs);
  ASSERT_EQ(served.size(), 1u);
  expect_equivalent(sequential.diagnose(*batch.ptrs[0]), served[0], 0);
}

}  // namespace
}  // namespace mmdiag
