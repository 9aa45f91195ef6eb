#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
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

// The builder's row generator for a per-node one.
RowGenerator per_node(std::function<void(Node, std::vector<Node>&)> gen) {
  return [gen = std::move(gen)](Node first, Node last, const RowSink& sink) {
    std::vector<Node> row;
    for (Node u = first; u < last; ++u) {
      row.clear();
      gen(u, row);
      sink(row);
    }
  };
}

// The edge-list build of the graph a per-node generator describes.
Graph edge_list_graph(std::size_t num_nodes,
                      const std::function<void(Node, std::vector<Node>&)>& gen) {
  std::vector<std::pair<Node, Node>> edges;
  std::vector<Node> row;
  for (Node u = 0; u < num_nodes; ++u) {
    row.clear();
    gen(u, row);
    for (const Node v : row) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  return build_graph_from_edges(num_nodes, edges);
}

void expect_same_graph(const Graph& expected, const Graph& actual) {
  ASSERT_EQ(expected.num_nodes(), actual.num_nodes());
  ASSERT_EQ(expected.memory_bytes(), actual.memory_bytes());
  for (Node u = 0; u < expected.num_nodes(); ++u) {
    const auto a = expected.neighbors(u);
    const auto b = actual.neighbors(u);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << u;
    const auto ma = expected.mirror_positions(u);
    const auto mb = actual.mirror_positions(u);
    ASSERT_TRUE(std::equal(ma.begin(), ma.end(), mb.begin(), mb.end())) << u;
  }
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
  EXPECT_THROW((void)build_graph_from_generator(2, 1, per_node(bad)),
               std::invalid_argument);
  ThreadPool pool(4);
  EXPECT_THROW((void)build_graph_from_generator(2, 1, per_node(bad), &pool),
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
      (void)build_graph_from_generator(12000, 3, per_node(gen), pool);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "generator produced duplicate neighbour at node 5000")
          << (pool ? pool->size() : 0) << " lanes";
    }
  }
}

TEST(GraphBuilder, RowAboveTheBoundIsRefusedAtTheLowestNode) {
  // The 12000-node cycle again, with bound 2: nodes 9000 and 5000 emit a
  // third neighbour. Node 5000's row is refused, not written past its
  // slot, at every lane count.
  auto gen = [](Node u, std::vector<Node>& out) {
    constexpr Node kNodes = 12000;
    out.push_back((u + 1) % kNodes);
    out.push_back((u + kNodes - 1) % kNodes);
    if (u == 5000 || u == 9000) out.push_back(u + 2);
  };
  ThreadPool one(1), four(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one, &four}) {
    try {
      (void)build_graph_from_generator(12000, 2, per_node(gen), pool);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "generator row exceeds the degree bound at node 5000")
          << (pool ? pool->size() : 0) << " lanes";
    }
  }
}

TEST(GraphBuilder, ShortRowsBuildTheEdgeListGraph) {
  // An irregular 12000-node graph (a path, plus chords u ~ u+3 between
  // multiples of 3) has rows of 1 to 4 neighbours. Under a bound of 4 and
  // a loose one of 7, the compacted CSR equals the edge-list build.
  constexpr Node kNodes = 12000;
  auto gen = [](Node u, std::vector<Node>& out) {
    if (u + 1 < kNodes) out.push_back(u + 1);
    if (u > 0) out.push_back(u - 1);
    if (u % 3 == 0 && u + 3 < kNodes) out.push_back(u + 3);
    if (u % 3 == 0 && u >= 3) out.push_back(u - 3);
  };
  const Graph expected = edge_list_graph(kNodes, gen);
  ThreadPool one(1), four(4);
  for (const unsigned bound : {4u, 7u}) {
    for (ThreadPool* pool :
         {static_cast<ThreadPool*>(nullptr), &one, &four}) {
      SCOPED_TRACE("bound " + std::to_string(bound) + ", " +
                   std::to_string(pool ? pool->size() : 0) + " lanes");
      expect_same_graph(
          expected, build_graph_from_generator(kNodes, bound, per_node(gen),
                                               pool));
    }
  }
}

TEST(GraphBuilder, EveryFamilyBuildsItsEdgeListGraphAtEveryLaneCount) {
  // The one-pass build (and, for the permutation families, the odometer
  // walk with incremental ranks) against an edge list made from per-node
  // neighbors(u). Hypercube 14, star 7, pancake 7 and the larger k < n
  // instances span more than one 4096-node block.
  ThreadPool one(1), four(4);
  for (const char* spec :
       {"hypercube 14", "crossed_cube 7", "twisted_cube 7",
        "folded_hypercube 7", "enhanced_hypercube 7 3", "augmented_cube 6",
        "shuffle_cube 6", "twisted_n_cube 7", "kary_ncube 3 5",
        "augmented_kary_ncube 3 4", "star 7", "pancake 7", "nk_star 7 3",
        "nk_star 8 5", "arrangement 7 3", "arrangement 8 5"}) {
    SCOPED_TRACE(spec);
    const auto topo = make_topology_from_spec(spec);
    const Graph expected = edge_list_graph(
        static_cast<std::size_t>(topo->info().num_nodes),
        [&topo](Node u, std::vector<Node>& out) { topo->neighbors(u, out); });
    for (ThreadPool* pool :
         {static_cast<ThreadPool*>(nullptr), &one, &four}) {
      SCOPED_TRACE(std::to_string(pool ? pool->size() : 0) + " lanes");
      expect_same_graph(expected, topo->build_graph(pool));
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

TEST(GraphBuilder, MemoryBytesMatchTheCsrLayout) {
  const Graph g = make_topology_from_spec("hypercube 10")->build_graph();
  // The CSR holds 8 bytes per offset, 4 per neighbour id and 2 per mirror
  // position.
  EXPECT_EQ(g.memory_bytes(), (1024u + 1) * 8 + 1024u * 10 * (4 + 2));
}

TEST(GraphBuilder, GeneratorBuildsCycle) {
  auto gen = [](Node u, std::vector<Node>& out) {
    out.push_back((u + 1) % 6);
    out.push_back((u + 5) % 6);
  };
  const Graph g = build_graph_from_generator(6, 2, per_node(gen));
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
