#pragma once

// Gomory–Hu cut tree: all-pairs min cuts from n−1 max-flow computations.
//
// The λ·k-sampler (Definition 5.2) needs λ(s,t) for every pair it
// samples; querying the Gomory–Hu tree turns Θ(n²) Dinic runs into n−1
// builds plus O(n) tree-path minima per query. Implements the standard
// Gusfield simplification (no vertex contraction), which yields a valid
// equivalent flow tree on undirected graphs.
//
// Every tree is stamped with the fingerprint of the graph it was built
// on. A cut tree queried against a different graph returns silently wrong
// λ values — the stamp lets consumers (sample_path_system) turn that into
// a CheckError.

#include <cstdint>
#include <vector>

#include "graph/fingerprint.hpp"
#include "graph/graph.hpp"

namespace sor {

class GomoryHuTree {
 public:
  /// Builds the tree with n−1 max-flow calls. Graph must be connected.
  explicit GomoryHuTree(const Graph& g);

  /// Min s-t cut capacity (== max flow) for any pair, from the tree.
  double min_cut(Vertex s, Vertex t) const;

  /// Tree structure access (parent of vertex v and the cut value of the
  /// tree edge v—parent); vertex 0 is the root with parent kInvalidVertex.
  Vertex parent(Vertex v) const { return parent_[v]; }
  double parent_cut(Vertex v) const { return cut_[v]; }

  /// Fingerprint of the graph this tree answers cut queries for.
  const GraphFingerprint& fingerprint() const { return fingerprint_; }

 private:
  void compute_depths();

  GraphFingerprint fingerprint_;
  std::vector<Vertex> parent_;
  std::vector<double> cut_;   // cut value to parent
  std::vector<std::uint32_t> depth_;
};

}  // namespace sor
