// Syndrome file format: round trips, malformed-input rejection, and
// diagnosis through the serialisation boundary.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <stdexcept>

#include "core/diagnoser.hpp"
#include "io/syndrome_io.hpp"
#include "mm/injector.hpp"
#include "topology/registry.hpp"
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

TEST(SyndromeIo, SpecTooLargeForTheFileIsRefusedBeforeResolving) {
  // 45 bytes naming a 2^26-node graph: the size check must refuse it from
  // the registry's node count, before any resolver builds adjacency.
  const auto resolve = [](const std::string& spec) -> const Graph& {
    ADD_FAILURE() << "resolver called for " << spec;
    throw std::logic_error("resolver called");
  };
  const auto expect_refusal = [](const std::string& text, auto read) {
    std::stringstream in(text);
    try {
      (void)read(in);
      FAIL() << "expected a refusal";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("syndrome file, line 2: ", 0), 0u) << what;
      EXPECT_NE(what.find("67108864 nodes"), std::string::npos) << what;
      // "end\n" is all that follows the header.
      EXPECT_NE(what.find(" 4 bytes"), std::string::npos) << what;
    }
  };
  const std::string mm_file =
      "mmdiag-syndrome v1\ntopology hypercube 26\nend\n";
  ASSERT_EQ(mm_file.size(), 45u);
  expect_refusal(mm_file, [&](std::istream& in) {
    return read_syndrome(in, resolve);
  });
  expect_refusal("mmdiag-syndrome v1\ntopology hypercube 26\nmodel bgm\nend\n",
                 [&](std::istream& in) {
                   return read_directed_syndrome(in, resolve);
                 });
}

// ---------------------------------------------------------------------------
// Hostile input: seeded byte-level mutations of real v1 files.
// ---------------------------------------------------------------------------

/// One seeded mutation: flip a bit of one byte, delete 1-4 bytes, duplicate
/// a line, or truncate.
std::string mutate(const std::string& text, Rng& rng) {
  std::string out = text;
  switch (rng.below(4)) {
    case 0: {
      const std::size_t pos = rng.below(out.size());
      out[pos] = static_cast<char>(out[pos] ^ (1u << rng.below(8)));
      break;
    }
    case 1:
      out.erase(rng.below(out.size()), 1 + rng.below(4));
      break;
    case 2: {
      std::size_t begin = rng.below(out.size());
      begin = out.rfind('\n', begin);
      begin = begin == std::string::npos ? 0 : begin + 1;
      const std::size_t end = out.find('\n', begin);
      const std::size_t len =
          (end == std::string::npos ? out.size() : end + 1) - begin;
      out.insert(begin, out.substr(begin, len));
      break;
    }
    default:
      out.resize(rng.below(out.size()));
      break;
  }
  return out;
}

/// Feeds `count` mutants of `text` to `parse`; each must parse (and pass
/// `check`) or be refused with a line-numbered syndrome-file error.
/// Returns how many parsed, so a caller can see both outcomes occurred.
template <typename Parse>
std::size_t survive_mutations(const std::string& text, std::uint64_t seed,
                              std::size_t count, Parse parse) {
  Rng rng(seed);
  std::size_t parsed = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::string mutant = mutate(text, rng);
    SCOPED_TRACE("mutant " + std::to_string(k) + ":\n" + mutant);
    std::stringstream in(mutant);
    try {
      parse(in);
      ++parsed;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("syndrome file, line ", 0), 0u) << what;
    }
  }
  return parsed;
}

/// A mutant may rewrite the topology line; this resolver serves every spec
/// through test::Resolver but refuses one naming more than 4096 nodes, so
/// a flipped digit cannot ask for a huge graph.
class SmallResolver {
 public:
  const Graph& operator()(const std::string& spec) {
    if (make_topology_from_spec(spec)->info().num_nodes > 4096) {
      throw std::invalid_argument("more than 4096 nodes");
    }
    return resolve_(spec);
  }

 private:
  test::Resolver resolve_;
};

TEST(SyndromeIo, MutatedMmStarFilesParseOrFailWithALineNumber) {
  test::Instance inst("hypercube 5");
  Rng rng(3);
  const FaultSet faults(32, inject_uniform(32, 4, rng));
  const Syndrome original =
      generate_syndrome(inst.graph, faults, FaultyBehavior::kRandom, 11);
  std::stringstream buffer;
  write_syndrome(buffer, "hypercube 5", inst.graph, original);

  SmallResolver resolve;
  const std::size_t parsed = survive_mutations(
      buffer.str(), 21, 400, [&resolve](std::istream& in) {
        const ParsedSyndrome loaded = read_syndrome(in, std::ref(resolve));
        const Graph& g = resolve(loaded.spec);
        ASSERT_TRUE(loaded.syndrome.laid_out_for(g));
        std::uint64_t ones = 0;
        for (Node u = 0; u < g.num_nodes(); ++u) {
          for (unsigned i = 0; i + 1 < g.degree(u); ++i) {
            for (unsigned j = i + 1; j < g.degree(u); ++j) {
              ASSERT_EQ(loaded.syndrome.test(u, i, j),
                        loaded.syndrome.test(u, j, i));
              ones += loaded.syndrome.test(u, i, j) ? 1 : 0;
            }
          }
        }
        ASSERT_EQ(ones, loaded.syndrome.ones());
      });
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, 400u);
}

TEST(SyndromeIo, MutatedPmcFilesParseOrFailWithALineNumber) {
  test::Instance inst("star 4");
  Rng rng(4);
  const FaultSet faults(24, inject_uniform(24, 2, rng));
  const DirectedSyndrome original = generate_directed_syndrome(
      inst.graph, faults, DiagnosisModel::kPMC, FaultyBehavior::kRandom, 12);
  std::stringstream buffer;
  write_directed_syndrome(buffer, "star 4", DiagnosisModel::kPMC, inst.graph,
                          original);

  SmallResolver resolve;
  const std::size_t parsed = survive_mutations(
      buffer.str(), 22, 400, [&resolve](std::istream& in) {
        const ParsedDirectedSyndrome loaded =
            read_directed_syndrome(in, std::ref(resolve));
        const Graph& g = resolve(loaded.spec);
        ASSERT_TRUE(loaded.syndrome.laid_out_for(g));
        std::uint64_t ones = 0;
        for (Node u = 0; u < g.num_nodes(); ++u) {
          for (unsigned p = 0; p < g.degree(u); ++p) {
            ones += loaded.syndrome.test(u, p) ? 1 : 0;
          }
        }
        ASSERT_EQ(ones, loaded.syndrome.ones());
      });
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, 400u);
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
