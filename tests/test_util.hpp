// Shared helpers for mmdiag tests.
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "mm/fault_set.hpp"
#include "mm/oracle.hpp"
#include "mm/syndrome.hpp"
#include "topology/registry.hpp"
#include "topology/topology.hpp"

namespace mmdiag::test {

/// A topology instance together with its materialised graph.
struct Instance {
  std::unique_ptr<Topology> topo;
  Graph graph;

  explicit Instance(const std::string& spec)
      : topo(make_topology_from_spec(spec)), graph(topo->build_graph()) {}
};

/// A syndrome-file resolver (io/syndrome_io.hpp's GraphResolver, passed
/// as std::ref) that builds and keeps one Instance per spec it is asked
/// for, as the engine's cache keeps one calibrated graph per spec.
class Resolver {
 public:
  const Graph& operator()(const std::string& spec) {
    return instance(spec).graph;
  }
  const Instance& instance(const std::string& spec) {
    std::unique_ptr<Instance>& slot = instances_[spec];
    if (!slot) slot = std::make_unique<Instance>(spec);
    return *slot;
  }

 private:
  std::map<std::string, std::unique_ptr<Instance>> instances_;
};

/// Sorted copy helper for comparing fault lists.
inline std::vector<Node> sorted(std::vector<Node> v) {
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace mmdiag::test
