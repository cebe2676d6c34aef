// Unit tests for src/graph: Graph invariants, Path operations, search
// algorithms, generators, and I/O round-trips.

#include <gtest/gtest.h>

#include <sstream>
#include <tuple>
#include <utility>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/path.hpp"
#include "graph/search.hpp"
#include "util/rng.hpp"

namespace sor {
namespace {

TEST(Graph, BasicConstruction) {
  Graph g(3);
  const EdgeId e0 = g.add_edge(0, 1, 2.0);
  const EdgeId e1 = g.add_edge(1, 2);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.edge(e0).capacity, 2.0);
  EXPECT_EQ(g.edge(e1).capacity, 1.0);
  EXPECT_EQ(g.other_endpoint(e0, 0), 1u);
  EXPECT_EQ(g.other_endpoint(e0, 1), 0u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_DOUBLE_EQ(g.incident_capacity(1), 3.0);
}

TEST(Graph, RejectsBadEdges) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 0), CheckError);       // self loop
  EXPECT_THROW(g.add_edge(0, 5), CheckError);       // out of range
  EXPECT_THROW(g.add_edge(0, 1, 0.0), CheckError);  // zero capacity
  EXPECT_THROW(g.add_edge(0, 1, -1.0), CheckError);
}

TEST(Graph, ParallelEdgesAllowed) {
  Graph g(2);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.degree(0), 2u);
}

TEST(Graph, Connectivity) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(g.is_connected());
  g.add_edge(1, 2);
  EXPECT_TRUE(g.is_connected());
}

TEST(Path, WalkAndSimpleChecks) {
  Graph g(4);
  const EdgeId e01 = g.add_edge(0, 1);
  const EdgeId e12 = g.add_edge(1, 2);
  const EdgeId e23 = g.add_edge(2, 3);
  const EdgeId e03 = g.add_edge(0, 3);

  Path p{0, 3, {e01, e12, e23}};
  EXPECT_TRUE(is_walk(g, p));
  EXPECT_TRUE(is_simple_path(g, p));
  EXPECT_EQ(p.hops(), 3u);

  Path direct{0, 3, {e03}};
  EXPECT_TRUE(is_simple_path(g, direct));

  Path bad{0, 3, {e01, e23}};  // not consecutive
  EXPECT_FALSE(is_walk(g, bad));

  Path loopy{0, 0, {e01, e12, e23, e03}};  // cycle: walk, not simple
  EXPECT_TRUE(is_walk(g, loopy));
  EXPECT_FALSE(is_simple_path(g, loopy));
}

TEST(Path, VerticesAndFromVertices) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const std::vector<Vertex> verts{0, 1, 2, 3};
  const Path p = path_from_vertices(g, verts);
  EXPECT_EQ(path_vertices(g, p), verts);
  EXPECT_EQ(p.src, 0u);
  EXPECT_EQ(p.dst, 3u);

  const std::vector<Vertex> nonadjacent{0, 2};
  EXPECT_THROW(path_from_vertices(g, nonadjacent), CheckError);
}

TEST(Path, SimplifyWalkRemovesLoops) {
  // 0-1-2-0 triangle plus 2-3.
  Graph g(4);
  const EdgeId e01 = g.add_edge(0, 1);
  const EdgeId e12 = g.add_edge(1, 2);
  const EdgeId e20 = g.add_edge(2, 0);
  const EdgeId e23 = g.add_edge(2, 3);

  // Walk 0→1→2→0→... wait, go 0→1→2→0 then 0→1→2→3: loops back to 0.
  Path walk{0, 3, {e01, e12, e20, e01, e12, e23}};
  ASSERT_TRUE(is_walk(g, walk));
  const Path simple = simplify_walk(g, walk);
  EXPECT_TRUE(is_simple_path(g, simple));
  EXPECT_EQ(simple.src, 0u);
  EXPECT_EQ(simple.dst, 3u);
  EXPECT_LE(simple.hops(), walk.hops());
}

TEST(Path, SimplifyPreservesAlreadySimple) {
  Graph g(3);
  const EdgeId e01 = g.add_edge(0, 1);
  const EdgeId e12 = g.add_edge(1, 2);
  const Path p{0, 2, {e01, e12}};
  EXPECT_EQ(simplify_walk(g, p), p);
}

TEST(Path, ConcatenateChecksEndpoints) {
  Graph g(3);
  const EdgeId e01 = g.add_edge(0, 1);
  const EdgeId e12 = g.add_edge(1, 2);
  const Path a{0, 1, {e01}};
  const Path b{1, 2, {e12}};
  const Path joined = concatenate(a, b);
  EXPECT_EQ(joined.src, 0u);
  EXPECT_EQ(joined.dst, 2u);
  EXPECT_EQ(joined.hops(), 2u);
  EXPECT_THROW(concatenate(b, a), CheckError);
}

TEST(Search, BfsDistancesOnGrid) {
  const Graph g = make_grid(3, 3);
  const SpTree tree = bfs(g, 0);
  EXPECT_EQ(tree.hops[0], 0u);
  EXPECT_EQ(tree.hops[8], 4u);  // opposite corner: manhattan distance
  const Path p = tree.extract_path(g, 8);
  EXPECT_TRUE(is_simple_path(g, p));
  EXPECT_EQ(p.hops(), 4u);
}

TEST(Search, DijkstraRespectsLengths) {
  // Triangle where the two-hop route is cheaper than the direct edge.
  Graph g(3);
  g.add_edge(0, 1);  // e0
  g.add_edge(1, 2);  // e1
  g.add_edge(0, 2);  // e2
  const std::vector<double> lengths{1.0, 1.0, 5.0};
  const Path p = shortest_path(g, 0, 2, lengths);
  EXPECT_EQ(p.hops(), 2u);
  const SpTree tree = dijkstra(g, 0, lengths);
  EXPECT_DOUBLE_EQ(tree.dist[2], 2.0);
  EXPECT_EQ(tree.hops[2], 2u);
}

TEST(Search, DijkstraMatchesBfsOnUnitLengths) {
  Rng rng(3);
  const Graph g = make_erdos_renyi(40, 0.15, 7);
  const std::vector<double> unit(g.num_edges(), 1.0);
  for (Vertex s = 0; s < 5; ++s) {
    const SpTree b = bfs(g, s);
    const SpTree d = dijkstra(g, s, unit);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      EXPECT_DOUBLE_EQ(d.dist[v], static_cast<double>(b.hops[v]));
    }
  }
}

TEST(Search, TieBreakIsFirstStrictImprovement) {
  // Two unit routes reach vertex 2: 0-1-2 ends on e3 and 0-3-2 on e2.
  // Vertex 1 arrived by e0 and pops before vertex 3 (e1), so e3 reaches 2
  // first and keeps it, although e2 ties and has the lower id.
  Graph g(4);
  g.add_edge(0, 1);  // e0
  g.add_edge(0, 3);  // e1
  g.add_edge(3, 2);  // e2
  g.add_edge(1, 2);  // e3
  const std::vector<double> unit(g.num_edges(), 1.0);
  EXPECT_EQ(dijkstra(g, 0, unit).parent_edge[2], 3u);
  EXPECT_EQ(shortest_path(g, 0, 2, unit), (Path{0, 2, {0, 3}}));
  DijkstraSearch search(g);
  search.run(0, unit, 2);
  EXPECT_EQ(search.parent_edge(2), 3u);

  // Here the arrival edges (e0 into 2, e1 into 1) and the vertex ids order
  // the two distance-1 pops apart, so the two tie rules pick different
  // edges into 3.
  Graph h(4);
  h.add_edge(0, 2);  // e0
  h.add_edge(0, 1);  // e1
  h.add_edge(1, 3);  // e2
  h.add_edge(2, 3);  // e3
  DijkstraSearch by_edge(h);
  by_edge.run(0, unit, 3);
  EXPECT_EQ(by_edge.parent_edge(3), 3u);
  DijkstraSearch by_vertex(h, DijkstraSearch::Ties::kVertex);
  by_vertex.run(0, unit, 3);
  EXPECT_EQ(by_vertex.parent_edge(3), 2u);
}

TEST(Search, StoppedRunMatchesFullTree) {
  Rng rng(5);
  const Graph torus = make_torus(6, 6);
  Graph multi(6);  // parallel edges at equal and unequal lengths
  for (const auto& [u, v] : {std::pair{0, 1}, {0, 1}, {1, 2}, {1, 2}, {2, 3},
                            {3, 4}, {3, 4}, {4, 5}, {5, 0}, {1, 4}, {2, 5}}) {
    multi.add_edge(static_cast<Vertex>(u), static_cast<Vertex>(v));
  }
  std::vector<double> multi_lengths(multi.num_edges());
  for (double& len : multi_lengths) len = 1.0 + rng.next_u64(2);
  const Graph er = make_erdos_renyi(20, 0.2, 11);
  std::vector<double> er_lengths(er.num_edges());
  for (double& len : er_lengths) len = 0.1 + rng.next_double();

  const std::tuple<const char*, const Graph&, std::vector<double>> cases[] = {
      {"torus", torus, std::vector<double>(torus.num_edges(), 1.0)},
      {"multigraph", multi, multi_lengths},
      {"er", er, er_lengths},
  };
  for (const auto& [name, g, lengths] : cases) {
    SCOPED_TRACE(name);
    DijkstraSearch full(g);
    DijkstraSearch stopped(g);
    for (Vertex s = 0; s < g.num_vertices(); ++s) {
      const SpTree tree = dijkstra(g, s, lengths);
      full.run(s, lengths);
      ASSERT_EQ(full.settle_order().size(), g.num_vertices());
      for (Vertex t = 0; t < g.num_vertices(); ++t) {
        stopped.run(s, lengths, t);
        ASSERT_TRUE(stopped.settled(t));
        EXPECT_EQ(stopped.settle_order().back(), t);
        EXPECT_EQ(stopped.dist(t), full.dist(t));
        EXPECT_EQ(stopped.dist(t), tree.dist[t]);
        const Path path = to_path(stopped.path_to(t));
        EXPECT_EQ(path, to_path(full.path_to(t)));
        EXPECT_EQ(path, tree.extract_path(g, t));
      }
    }
  }
}

TEST(Search, HopBallAndDiameter) {
  const Graph g = make_grid(3, 3);
  const auto ball = hop_ball(g, 4, 1);  // center of the grid
  EXPECT_EQ(ball.size(), 5u);           // center + 4 neighbours
  EXPECT_EQ(hop_diameter(g), 4u);
}

TEST(Generators, Hypercube) {
  const Graph g = make_hypercube(4);
  EXPECT_EQ(g.num_vertices(), 16u);
  EXPECT_EQ(g.num_edges(), 32u);  // n·d/2
  EXPECT_TRUE(g.is_connected());
  for (Vertex v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(g.degree(v), 4u);
  EXPECT_EQ(hop_diameter(g), 4u);
}

TEST(Generators, GridAndTorus) {
  const Graph grid = make_grid(4, 5);
  EXPECT_EQ(grid.num_vertices(), 20u);
  EXPECT_EQ(grid.num_edges(), 4u * 4 + 5u * 3);
  EXPECT_TRUE(grid.is_connected());

  const Graph torus = make_torus(4, 5);
  EXPECT_EQ(torus.num_vertices(), 20u);
  EXPECT_EQ(torus.num_edges(), 40u);  // 2 per vertex
  for (Vertex v = 0; v < torus.num_vertices(); ++v) {
    EXPECT_EQ(torus.degree(v), 4u);
  }
}

TEST(Generators, Complete) {
  const Graph g = make_complete(6);
  EXPECT_EQ(g.num_edges(), 15u);
  EXPECT_EQ(hop_diameter(g), 1u);
}

TEST(Generators, RandomRegularIsRegularAndConnected) {
  const Graph g = make_random_regular(50, 4, 11);
  EXPECT_TRUE(g.is_connected());
  for (Vertex v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(g.degree(v), 4u);
  // Deterministic in the seed.
  const Graph g2 = make_random_regular(50, 4, 11);
  EXPECT_EQ(g.num_edges(), g2.num_edges());
}

TEST(Generators, RandomRegularRejectsOddProduct) {
  EXPECT_THROW(make_random_regular(5, 3, 1), CheckError);
}

TEST(Generators, ErdosRenyiConnected) {
  const Graph g = make_erdos_renyi(60, 0.12, 3);
  EXPECT_TRUE(g.is_connected());
  EXPECT_EQ(g.num_vertices(), 60u);
}

TEST(Generators, FatTreeStructure) {
  const std::uint32_t k = 4;
  const Graph g = make_fat_tree(k);
  // k=4: 4 core + 4 pods × (2 agg + 2 edge) = 20 switches.
  EXPECT_EQ(g.num_vertices(), 20u);
  EXPECT_TRUE(g.is_connected());
  const auto edges = fat_tree_edge_switches(k);
  EXPECT_EQ(edges.size(), 8u);  // k·k/2
  for (Vertex v : edges) {
    EXPECT_LT(v, g.num_vertices());
    EXPECT_EQ(g.degree(v), 2u);  // k/2 uplinks
  }
}

TEST(Generators, PathOfCliquesAndDumbbell) {
  const Graph pc = make_path_of_cliques(3, 4);
  EXPECT_EQ(pc.num_vertices(), 12u);
  EXPECT_TRUE(pc.is_connected());
  EXPECT_EQ(pc.num_edges(), 3u * 6 + 2);

  const Graph db = make_dumbbell(5, 3);
  EXPECT_EQ(db.num_vertices(), 10u);
  EXPECT_EQ(db.num_edges(), 2u * 10 + 3);
  EXPECT_TRUE(db.is_connected());
}

TEST(Generators, TwoStar) {
  const TwoStarGraph ts = make_two_star(6, 4);
  EXPECT_EQ(ts.graph.num_vertices(), 2u + 12 + 4);
  EXPECT_EQ(ts.left_leaves.size(), 6u);
  EXPECT_EQ(ts.right_leaves.size(), 6u);
  EXPECT_EQ(ts.middles.size(), 4u);
  EXPECT_TRUE(ts.graph.is_connected());
  // Every leaf has degree 1, middles degree 2.
  for (Vertex v : ts.left_leaves) EXPECT_EQ(ts.graph.degree(v), 1u);
  for (Vertex v : ts.middles) EXPECT_EQ(ts.graph.degree(v), 2u);
  // min cut between opposite leaves is 1, between the centers it is
  // #middles.
}

TEST(Generators, WanTopologies) {
  const WanTopology abilene = make_abilene();
  EXPECT_EQ(abilene.graph.num_vertices(), 11u);
  EXPECT_EQ(abilene.graph.num_edges(), 14u);
  EXPECT_TRUE(abilene.graph.is_connected());
  EXPECT_EQ(abilene.node_names.size(), 11u);

  const WanTopology b4 = make_b4();
  EXPECT_EQ(b4.graph.num_vertices(), 12u);
  EXPECT_EQ(b4.graph.num_edges(), 19u);
  EXPECT_TRUE(b4.graph.is_connected());

  const WanTopology geant = make_geant();
  EXPECT_EQ(geant.graph.num_vertices(), 22u);
  EXPECT_EQ(geant.graph.num_edges(), 36u);
  EXPECT_TRUE(geant.graph.is_connected());
  EXPECT_EQ(geant.node_names.size(), 22u);
}

TEST(Io, EdgeListRoundTrip) {
  const Graph g = make_grid(3, 4);
  std::stringstream buffer;
  write_edge_list(g, buffer);
  const Graph h = read_edge_list(buffer);
  ASSERT_EQ(h.num_vertices(), g.num_vertices());
  ASSERT_EQ(h.num_edges(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(h.edge(e).u, g.edge(e).u);
    EXPECT_EQ(h.edge(e).v, g.edge(e).v);
    EXPECT_DOUBLE_EQ(h.edge(e).capacity, g.edge(e).capacity);
  }
}

TEST(Io, SkipsCommentsAndDefaultsCapacity) {
  std::stringstream in(
      "# comment\n"
      "3\n"
      "\n"
      "0 1\n"
      "# another\n"
      "1 2 2.5\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_DOUBLE_EQ(g.edge(0).capacity, 1.0);
  EXPECT_DOUBLE_EQ(g.edge(1).capacity, 2.5);
}

TEST(Io, RejectsMalformedCapacities) {
  for (const char* cap : {"nan", "1e999", "abc", "2.5abc", "inf", "0", "-1",
                          "2 3"}) {
    std::stringstream in(std::string("2\n0 1 ") + cap + "\n");
    EXPECT_THROW(read_edge_list(in), CheckError) << "capacity " << cap;
  }
  // Trailing whitespace (a CRLF file) is not garbage.
  std::stringstream in("2\n0 1 2.5 \t\r\n");
  EXPECT_DOUBLE_EQ(read_edge_list(in).edge(0).capacity, 2.5);
}

TEST(Io, RejectsNegativeVertexIds) {
  // An istream reads "-4294967295" into a uint32 as 1 (mod 2^32).
  std::stringstream in("3\n0 -4294967295\n1 2\n");
  EXPECT_THROW(read_edge_list(in), CheckError);
}

TEST(Io, RejectsTrailingGarbageAfterVertexCount) {
  for (const char* header : {"3abc", "1e2", "3 4"}) {
    std::stringstream in(std::string(header) + "\n0 1\n");
    EXPECT_THROW(read_edge_list(in), CheckError) << "header " << header;
  }
}

TEST(Io, RejectsVertexCountAtOrAboveInvalidVertex) {
  // Checked before Graph(n) allocates n adjacency lists.
  for (const char* header : {"4294967295", "4294967297"}) {
    std::stringstream in(std::string(header) + "\n0 1\n");
    EXPECT_THROW(read_edge_list(in), CheckError) << "header " << header;
  }
}

TEST(Io, MutatedFilesLoadOrRaiseCheckError) {
  // Flip, truncate and insert bytes in a valid file: every result must be
  // a Graph or a CheckError. The one-digit header and the '.' in every
  // capacity keep a mutated vertex count small (at most three mutations).
  const std::string valid =
      "# ring with a chord\n"
      "6\n"
      "0 1 2.5\n1 2 1.5\n2 3 2.5\n3 4 1.5\n4 5 2.5\n5 0 1.5\n0 3 0.5\n";
  const std::string interesting = "0123456789 -+.e#\n\r\t";
  Rng rng(16);
  std::size_t loaded = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string text = valid;
    const std::uint64_t mutations = 1 + rng.next_u64(3);
    for (std::uint64_t m = 0; m < mutations; ++m) {
      const std::size_t at = rng.next_u64(text.size() + 1);
      const char byte =
          rng.next_u64(2) == 0
              ? interesting[rng.next_u64(interesting.size())]
              : static_cast<char>(rng.next_u64(256));
      switch (rng.next_u64(3)) {
        case 0:
          if (at < text.size()) text[at] = byte;
          break;
        case 1:
          text.resize(at);
          break;
        default:
          text.insert(at, 1, byte);
      }
    }
    std::stringstream in(text);
    try {
      const Graph g = read_edge_list(in);
      EXPECT_GE(g.num_vertices(), 1u);
      ++loaded;
    } catch (const CheckError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "input <" << text << "> threw " << e.what();
    }
  }
  EXPECT_GT(loaded, 0u);  // the mutations leave some files valid
}

TEST(Io, DotOutputContainsEdges) {
  const Graph g = make_complete(3);
  std::ostringstream os;
  write_dot(g, os);
  EXPECT_NE(os.str().find("0 -- 1"), std::string::npos);
  EXPECT_NE(os.str().find("graph G"), std::string::npos);
}

TEST(PathHash, DistinguishesPaths) {
  Graph g(3);
  const EdgeId e01 = g.add_edge(0, 1);
  const EdgeId e12 = g.add_edge(1, 2);
  const Path a{0, 2, {e01, e12}};
  const Path b{0, 1, {e01}};
  PathHash h;
  EXPECT_NE(h(a), h(b));
  EXPECT_EQ(h(a), h(Path{0, 2, {e01, e12}}));
}

}  // namespace
}  // namespace sor
