// Syndrome file format: round trips, malformed-input rejection, and
// diagnosis through the serialisation boundary.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>

#include "core/diagnoser.hpp"
#include "io/syndrome_io.hpp"
#include "mm/injector.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace mmdiag {
namespace {

TEST(SyndromeIo, RoundTripPreservesEveryBit) {
  for (const char* spec : {"hypercube 5", "star 4", "kary_ncube 2 5"}) {
    SCOPED_TRACE(spec);
    test::Instance inst(spec);
    Rng rng(1);
    const FaultSet faults(inst.graph.num_nodes(),
                          inject_uniform(inst.graph.num_nodes(), 3, rng));
    const Syndrome original =
        generate_syndrome(inst.graph, faults, FaultyBehavior::kRandom, 9);
    std::stringstream buffer;
    write_syndrome(buffer, spec, inst.graph, original);
    test::Resolver resolve;
    const ParsedSyndrome loaded = read_syndrome(buffer, std::ref(resolve));
    EXPECT_EQ(loaded.spec, spec);
    ASSERT_EQ(resolve(spec).num_nodes(), inst.graph.num_nodes());
    for (Node u = 0; u < inst.graph.num_nodes(); ++u) {
      const unsigned d = inst.graph.degree(u);
      for (unsigned i = 0; i + 1 < d; ++i) {
        for (unsigned j = i + 1; j < d; ++j) {
          ASSERT_EQ(loaded.syndrome.test(u, i, j), original.test(u, i, j))
              << u << " " << i << " " << j;
        }
      }
    }
  }
}

TEST(SyndromeIo, DiagnosisThroughTheFileBoundary) {
  test::Instance inst("hypercube 7");
  Rng rng(2);
  const FaultSet faults(128, inject_uniform(128, 7, rng));
  const Syndrome syndrome =
      generate_syndrome(inst.graph, faults, FaultyBehavior::kAntiDiagnostic, 4);
  std::stringstream buffer;
  write_syndrome(buffer, "hypercube 7", inst.graph, syndrome);

  test::Resolver resolve;
  const ParsedSyndrome loaded = read_syndrome(buffer, std::ref(resolve));
  const test::Instance& read_back = resolve.instance(loaded.spec);
  Diagnoser diagnoser(*read_back.topo, read_back.graph);
  const TableOracle oracle(read_back.graph, loaded.syndrome);
  const auto result = diagnoser.diagnose(oracle);
  ASSERT_TRUE(result.success) << result.failure_reason;
  EXPECT_EQ(result.faults, faults.nodes());
}

TEST(SyndromeIo, CommentsAndBlankLinesTolerated) {
  test::Instance inst("hypercube 3");
  const Syndrome s(inst.graph);
  std::stringstream buffer;
  write_syndrome(buffer, "hypercube 3", inst.graph, s);
  std::string text = buffer.str();
  text.insert(text.find("node 1"), "# a comment\n\n");
  std::stringstream patched(text);
  test::Resolver resolve;
  EXPECT_NO_THROW((void)read_syndrome(patched, std::ref(resolve)));
}

TEST(SyndromeIo, MalformedInputsRejectedWithLineNumbers) {
  const auto expect_fail = [](const std::string& text,
                              const std::string& fragment) {
    std::stringstream in(text);
    test::Resolver resolve;
    try {
      (void)read_syndrome(in, std::ref(resolve));
      FAIL() << "expected failure for: " << fragment;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("syndrome file, line ", 0), 0u) << what;
      EXPECT_NE(what.find(fragment), std::string::npos) << what;
    }
  };
  expect_fail("garbage\n", "expected header");
  expect_fail("mmdiag-syndrome v1\nnope\n", "expected 'topology");
  expect_fail("mmdiag-syndrome v1\ntopology bogus 3\n",
              "line 2: cannot resolve topology spec 'bogus 3'");
  // Valid header, bad node records.
  test::Instance inst("hypercube 2");
  const Syndrome s(inst.graph);
  std::stringstream good;
  write_syndrome(good, "hypercube 2", inst.graph, s);
  const std::string base = good.str();

  std::string missing = base;
  missing.erase(missing.find("node 3"), missing.find("end") - missing.find("node 3"));
  expect_fail(missing, "missing");

  std::string dup = base;
  dup.replace(dup.find("node 1"), 6, "node 0");
  expect_fail(dup, "duplicate");

  std::string badbits = base;
  badbits.replace(badbits.find("node 0 ") + 7, 1, "X");
  expect_fail(badbits, "bits");

  std::string no_end = base.substr(0, base.find("end"));
  expect_fail(no_end, "end");
}

TEST(NodeListIo, RoundTrip) {
  std::stringstream buffer;
  write_node_list(buffer, {3, 17, 42});
  EXPECT_EQ(read_node_list(buffer), (std::vector<Node>{3, 17, 42}));
  std::stringstream empty("");
  EXPECT_TRUE(read_node_list(empty).empty());
}

TEST(NodeListIo, EmptyListRoundTrip) {
  std::stringstream buffer;
  write_node_list(buffer, {});
  EXPECT_EQ(buffer.str(), "\n");
  EXPECT_TRUE(read_node_list(buffer).empty());
}

TEST(NodeListIo, CommentsAndMultipleLinesTolerated) {
  std::stringstream in("# fault ids\n3 17\n\n42\n");
  EXPECT_EQ(read_node_list(in), (std::vector<Node>{3, 17, 42}));
}

TEST(NodeListIo, GarbageTokensRejectedWithLineNumbers) {
  // Regression: `is >> v` used to stop silently at the first non-numeric
  // token, so "3 17 xyz" read as {3, 17} instead of failing.
  const auto expect_fail = [](const std::string& text,
                              const std::string& fragment) {
    std::stringstream in(text);
    try {
      (void)read_node_list(in);
      FAIL() << "expected failure for: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << e.what();
    }
  };
  expect_fail("3 17 xyz\n", "line 1: expected a node id, got 'xyz'");
  expect_fail("3\n17x\n", "line 2");
  expect_fail("-3\n", "'-3'");
  expect_fail("1e3\n", "'1e3'");
  expect_fail("3 0x17\n", "'0x17'");
  expect_fail("99999999999\n", "out of range");  // exceeds Node (u32)
}

}  // namespace
}  // namespace mmdiag
