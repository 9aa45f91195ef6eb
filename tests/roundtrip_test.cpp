// Full pipeline round-trip: inject faults, generate a syndrome, serialise it
// with io/syndrome_io, re-read the file, diagnose the reloaded instance, and
// require the recovered fault set to equal the injected one — across three
// structurally different topology families.
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

struct RoundTripCase {
  const char* spec;
  std::size_t fault_count;
};

class RoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(RoundTrip, WriteReadDiagnoseRecoversInjectedFaults) {
  const RoundTripCase& tc = GetParam();
  SCOPED_TRACE(tc.spec);
  test::Instance inst(tc.spec);
  const std::size_t n = inst.graph.num_nodes();

  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const FaultSet faults(n, inject_uniform(n, tc.fault_count, rng));
    const Syndrome original = generate_syndrome(
        inst.graph, faults, FaultyBehavior::kAntiDiagnostic, seed);

    std::stringstream buffer;
    write_syndrome(buffer, tc.spec, inst.graph, original);

    test::Resolver resolve;
    const ParsedSyndrome loaded = read_syndrome(buffer, std::ref(resolve));
    EXPECT_EQ(loaded.spec, tc.spec);
    const test::Instance& read_back = resolve.instance(loaded.spec);
    ASSERT_EQ(read_back.graph.num_nodes(), n);

    Diagnoser diagnoser(*read_back.topo, read_back.graph);
    const TableOracle oracle(read_back.graph, loaded.syndrome);
    const auto result = diagnoser.diagnose(oracle);
    ASSERT_TRUE(result.success) << result.failure_reason;
    EXPECT_EQ(result.faults, faults.nodes());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, RoundTrip,
    ::testing::Values(RoundTripCase{"hypercube 7", 7},
                      RoundTripCase{"crossed_cube 7", 6},
                      RoundTripCase{"star 5", 4}),
    [](const ::testing::TestParamInfo<RoundTripCase>& info) {
      std::string name = info.param.spec;
      for (char& c : name) {
        if (c == ' ') c = '_';
      }
      return name;
    });

// The faults written next to a syndrome file (the node-list side channel)
// survive the same boundary.
TEST(RoundTrip, NodeListSidecarMatchesDiagnosis) {
  test::Instance inst("hypercube 7");
  Rng rng(7);
  const FaultSet faults(128, inject_uniform(128, 4, rng));
  const Syndrome syndrome =
      generate_syndrome(inst.graph, faults, FaultyBehavior::kRandom, 7);

  std::stringstream syndrome_file;
  write_syndrome(syndrome_file, "hypercube 7", inst.graph, syndrome);
  std::stringstream sidecar;
  write_node_list(sidecar, faults.nodes());

  test::Resolver resolve;
  const ParsedSyndrome loaded = read_syndrome(syndrome_file, std::ref(resolve));
  const test::Instance& read_back = resolve.instance(loaded.spec);
  Diagnoser diagnoser(*read_back.topo, read_back.graph);
  const TableOracle oracle(read_back.graph, loaded.syndrome);
  const auto result = diagnoser.diagnose(oracle);
  ASSERT_TRUE(result.success) << result.failure_reason;
  EXPECT_EQ(result.faults, read_node_list(sidecar));
}

}  // namespace
}  // namespace mmdiag
