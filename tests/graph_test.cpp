#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>

#include "graph/builder.hpp"
#include "graph/dot.hpp"
#include "graph/graph.hpp"
#include "graph/traversal.hpp"
#include "topology/registry.hpp"
#include "util/thread_pool.hpp"

namespace mmdiag {
namespace {

Graph path_graph(std::size_t n) {
  std::vector<std::pair<Node, Node>> edges;
  for (Node i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return build_graph_from_edges(n, edges);
}

Graph cycle_graph(std::size_t n) {
  std::vector<std::pair<Node, Node>> edges;
  for (Node i = 0; i < n; ++i) edges.emplace_back(i, static_cast<Node>((i + 1) % n));
  return build_graph_from_edges(n, edges);
}

TEST(GraphBuilder, BasicCsr) {
  const Graph g = build_graph_from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}});
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.max_degree(), 3u);
  EXPECT_EQ(g.min_degree(), 2u);
  const auto adj0 = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(adj0.begin(), adj0.end()));
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(1, 3));
  EXPECT_EQ(g.neighbor_position(0, 2), 1);  // adj(0) = {1,2,3}
  EXPECT_EQ(g.neighbor_position(1, 3), -1);
}

TEST(GraphBuilder, EmptyGraphAdjacencyIsWellDefined) {
  // Regression: neighbors()/degree() used to read offsets_[u + 1] even when
  // no offsets exist, so any query on a default-constructed Graph was an
  // out-of-range read.
  const Graph def;
  EXPECT_EQ(def.num_nodes(), 0u);
  EXPECT_EQ(def.num_edges(), 0u);
  EXPECT_TRUE(def.neighbors(0).empty());
  EXPECT_EQ(def.degree(0), 0u);
  EXPECT_EQ(def.neighbor_position(0, 1), -1);
  EXPECT_FALSE(def.has_edge(0, 1));
  EXPECT_EQ(def.max_degree(), 0u);
  EXPECT_EQ(def.min_degree(), 0u);

  // The explicit zero-node CSR behaves identically.
  const Graph csr(std::vector<EdgeIndex>{0}, std::vector<Node>{});
  EXPECT_EQ(csr.num_nodes(), 0u);
  EXPECT_TRUE(csr.neighbors(0).empty());
  EXPECT_EQ(csr.degree(0), 0u);

  // And the zero-node builder path plus the traversals over it.
  const Graph built = build_graph_from_edges(0, {});
  EXPECT_EQ(built.num_nodes(), 0u);
  EXPECT_TRUE(is_connected(built));  // vacuously
  EXPECT_TRUE(bfs_distances(built, 0).empty());
  EXPECT_EQ(connected_components(built).count, 0u);
  EXPECT_EQ(diameter(built), 0u);
}

TEST(GraphBuilder, RejectsAsymmetricOrOutOfRangeCsr) {
  // The raw CSR constructor must reject what the edge/generator builders
  // already reject: the diagnosis hot path trusts the precomputed mirror
  // table (Graph::mirror_position) where the old neighbor_position search
  // failed safely, so an asymmetric adjacency cannot be allowed to build.
  EXPECT_THROW((void)Graph(std::vector<EdgeIndex>{0, 1, 1},
                           std::vector<Node>{1}),
               std::invalid_argument);
  EXPECT_THROW((void)Graph(std::vector<EdgeIndex>{0, 1},
                           std::vector<Node>{5}),
               std::invalid_argument);
}

TEST(GraphBuilder, MirrorPositionsInvertAdjacency) {
  const Graph g = build_graph_from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}});
  for (Node u = 0; u < 4; ++u) {
    const auto adj = g.neighbors(u);
    for (unsigned p = 0; p < adj.size(); ++p) {
      EXPECT_EQ(static_cast<int>(g.mirror_position(u, p)),
                g.neighbor_position(adj[p], u))
          << "u=" << u << " p=" << p;
    }
  }
}

TEST(GraphBuilder, RejectsSelfLoopsAndDuplicates) {
  EXPECT_THROW((void)build_graph_from_edges(3, {{0, 0}}), std::invalid_argument);
  EXPECT_THROW((void)build_graph_from_edges(3, {{0, 1}, {1, 0}}), std::invalid_argument);
  EXPECT_THROW((void)build_graph_from_edges(2, {{0, 5}}), std::invalid_argument);
}

TEST(GraphBuilder, GeneratorValidatesSymmetry) {
  // Asymmetric generator: 0 -> 1 but 1 -> {}. The Graph constructor's
  // mirror pass is the one symmetry check.
  auto bad = [](Node u, std::vector<Node>& out) {
    if (u == 0) out.push_back(1);
  };
  EXPECT_THROW((void)build_graph_from_generator(2, bad), std::invalid_argument);
  ThreadPool pool(4);
  EXPECT_THROW((void)build_graph_from_generator(2, bad, &pool),
               std::invalid_argument);
}

TEST(GraphBuilder, GeneratorReportsTheLowestBadNodeAtEveryLaneCount) {
  // A 12000-node cycle whose generator repeats a neighbour at node 9000
  // and at node 5000, in different blocks: whichever block fails first in
  // time, the error must name node 5000.
  auto gen = [](Node u, std::vector<Node>& out) {
    constexpr Node kNodes = 12000;
    out.push_back((u + 1) % kNodes);
    out.push_back((u + kNodes - 1) % kNodes);
    if (u == 5000 || u == 9000) out.push_back(out.front());
  };
  ThreadPool one(1), four(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one, &four}) {
    try {
      (void)build_graph_from_generator(12000, gen, pool);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "generator produced duplicate neighbour at node 5000")
          << (pool ? pool->size() : 0) << " lanes";
    }
  }
}

TEST(GraphBuilder, ParallelBuildEqualsSerialBuild) {
  ThreadPool pool(4);
  for (const char* spec : {"star 7", "hypercube 14"}) {
    SCOPED_TRACE(spec);
    const auto topo = make_topology_from_spec(spec);
    const Graph serial = topo->build_graph();
    const Graph parallel = topo->build_graph(&pool);
    ASSERT_EQ(serial.num_nodes(), parallel.num_nodes());
    ASSERT_EQ(serial.memory_bytes(), parallel.memory_bytes());
    for (Node u = 0; u < serial.num_nodes(); ++u) {
      const auto a = serial.neighbors(u);
      const auto b = parallel.neighbors(u);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << u;
      const auto ma = serial.mirror_positions(u);
      const auto mb = parallel.mirror_positions(u);
      ASSERT_TRUE(std::equal(ma.begin(), ma.end(), mb.begin(), mb.end())) << u;
    }
  }
}

TEST(GraphBuilder, RejectsDegreesBeyondTheMirrorWidth) {
  // Mirror positions are 16 bits wide: K_{1,65535} is the largest star the
  // CSR holds, K_{1,65536} is refused before any position could wrap.
  for (const std::size_t leaves : {std::size_t{65535}, std::size_t{65536}}) {
    std::vector<std::pair<Node, Node>> edges;
    for (std::size_t v = 1; v <= leaves; ++v) {
      edges.emplace_back(0, static_cast<Node>(v));
    }
    if (leaves <= Graph::kMaxDegree) {
      const Graph g = build_graph_from_edges(leaves + 1, edges);
      EXPECT_EQ(g.max_degree(), leaves);
      EXPECT_EQ(g.mirror_position(0, static_cast<unsigned>(leaves - 1)), 0u);
      EXPECT_EQ(g.mirror_position(static_cast<Node>(leaves), 0),
                static_cast<unsigned>(leaves - 1));
    } else {
      EXPECT_THROW((void)build_graph_from_edges(leaves + 1, edges),
                   std::invalid_argument);
    }
  }
}

TEST(GraphBuilder, MemoryEstimateMatchesTheMaterialisedCsr) {
  const Graph g = make_topology_from_spec("hypercube 10")->build_graph();
  // The estimate is what the CSR really holds: 8 bytes per offset, 4 per
  // neighbour id and 2 per mirror position.
  EXPECT_EQ(csr_memory_bytes_estimate(1024, 10), g.memory_bytes());
  EXPECT_EQ(csr_memory_bytes_estimate(1024, 10),
            (1024u + 1) * 8 + 1024u * 10 * (4 + 2));
}

TEST(GraphBuilder, GeneratorBuildsCycle) {
  auto gen = [](Node u, std::vector<Node>& out) {
    out.push_back((u + 1) % 6);
    out.push_back((u + 5) % 6);
  };
  const Graph g = build_graph_from_generator(6, gen);
  EXPECT_EQ(g.num_edges(), 6u);
  for (Node v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 2u);
}

TEST(Traversal, BfsDistancesOnPath) {
  const Graph g = path_graph(5);
  const auto d = bfs_distances(g, 0);
  for (Node v = 0; v < 5; ++v) EXPECT_EQ(d[v], v);
}

TEST(Traversal, ComponentsOnDisconnected) {
  const Graph g = build_graph_from_edges(5, {{0, 1}, {2, 3}});
  const auto comps = connected_components(g);
  EXPECT_EQ(comps.count, 3u);
  EXPECT_EQ(comps.id[0], comps.id[1]);
  EXPECT_EQ(comps.id[2], comps.id[3]);
  EXPECT_NE(comps.id[0], comps.id[2]);
  EXPECT_NE(comps.id[0], comps.id[4]);
  EXPECT_FALSE(is_connected(g));
  EXPECT_TRUE(is_connected(path_graph(4)));
}

TEST(Traversal, InducedSubgraphConnected) {
  const Graph g = cycle_graph(6);
  EXPECT_TRUE(induced_subgraph_connected(g, {0, 1, 2}));
  EXPECT_FALSE(induced_subgraph_connected(g, {0, 2, 4}));
  EXPECT_TRUE(induced_subgraph_connected(g, {3}));
}

TEST(Traversal, DiameterAndEccentricity) {
  EXPECT_EQ(diameter(path_graph(5)), 4u);
  EXPECT_EQ(diameter(cycle_graph(6)), 3u);
  EXPECT_EQ(eccentricity(path_graph(5), 2), 2u);
  EXPECT_THROW((void)eccentricity(build_graph_from_edges(3, {{0, 1}}), 0),
               std::logic_error);
}

TEST(Dot, WritesNodesEdgesAndStyles) {
  const Graph g = cycle_graph(4);
  DotStyle style;
  style.highlighted = {2};
  style.bold_edges = {{0, 1}};
  style.label = [](Node v) {
    return std::string("v").append(std::to_string(v));
  };
  std::ostringstream os;
  write_dot(os, g, style);
  const std::string out = os.str();
  EXPECT_NE(out.find("graph G {"), std::string::npos);
  EXPECT_NE(out.find("label=\"v2\""), std::string::npos);
  EXPECT_NE(out.find("fillcolor"), std::string::npos);
  EXPECT_NE(out.find("penwidth"), std::string::npos);
  // Each undirected edge appears once.
  EXPECT_EQ(std::count(out.begin(), out.end(), '-') % 2, 0);
}

}  // namespace
}  // namespace mmdiag
