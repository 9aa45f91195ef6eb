// partition_explorer — inspect how the §5 driver would partition a topology.
//
// Usage: partition_explorer "<family> <n> [k]" [delta]
//
// Prints every partition plan of the topology, whether it certifies the
// requested fault bound (default: the family's paper-supported bound), the
// contributor count a fault-free component achieves under both parent rules,
// and the plan the certified search selects. Useful for understanding the
// calibration correction (core/certified_partition.hpp) on concrete
// instances.
#include <iostream>
#include <string>

#include "core/certified_partition.hpp"
#include "core/set_builder.hpp"
#include "mm/oracle.hpp"
#include "topology/registry.hpp"
#include "util/table.hpp"

using namespace mmdiag;

namespace {

SetBuilderResult probe(const Graph& graph, const PartitionPlan& plan,
                       ParentRule rule) {
  SetBuilder builder(graph, rule);
  const FaultFreeOracle oracle(graph);
  return builder.run_restricted(oracle, plan.seed_of(0), /*delta=*/~0u >> 1,
                                plan, 0);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: " << argv[0] << " \"<family> <n> [k]\" [delta]\n"
              << "families:";
    for (const auto& f : topology_families()) std::cerr << " " << f;
    std::cerr << "\n";
    return 2;
  }
  try {
    const auto topo = make_topology_from_spec(argv[1]);
    const auto info = topo->info();
    const Graph graph = topo->build_graph();
    const unsigned delta =
        argc > 2 ? static_cast<unsigned>(std::stoul(argv[2]))
                 : topo->default_fault_bound();

    std::cout << info.name << ": N=" << info.num_nodes
              << " degree=" << info.degree << " kappa=" << info.connectivity
              << " diagnosability=" << info.diagnosability
              << " fault bound delta=" << delta << "\n\n";

    Table table({"plan", "components", "comp size", "contrib(least)",
                 "contrib(spread)", "covers", "certifies delta"});
    for (const auto& plan : topo->partition_plans()) {
      const auto least = probe(graph, *plan, ParentRule::kLeastFirst);
      const auto spread = probe(graph, *plan, ParentRule::kSpread);
      const bool covers = spread.members.size() == plan->component_size();
      const bool certifies = covers && spread.contributors > delta &&
                             plan->num_components() >= delta + 1;
      table.add_row({plan->description(), Table::num(plan->num_components()),
                     Table::num(plan->component_size()),
                     Table::num(least.contributors),
                     Table::num(spread.contributors),
                     covers ? "yes" : "NO",
                     certifies ? "yes" : "no"});
    }
    table.print(std::cout);

    std::cout << "\ncertified search (spread rule): ";
    try {
      const auto cp = find_certified_partition(*topo, graph, delta,
                                               ParentRule::kSpread, true);
      std::cout << "selected '" << cp.plan->description() << "' ("
                << cp.calibration_lookups << " calibration look-ups)\n";
    } catch (const DiagnosisUnsupportedError& e) {
      std::cout << "UNSUPPORTED\n" << e.what() << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
