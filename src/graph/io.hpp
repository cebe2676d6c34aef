#pragma once

// Graph serialization: a simple edge-list text format and Graphviz export.
//
// Edge-list format:
//   line 1:  "<num_vertices>"
//   then one line per edge: "<u> <v> [capacity]" — an absent capacity
//   means 1, a present one must be a finite positive number
// Lines starting with '#' are comments. Every field must parse in full:
// a negative or out-of-range id, a vertex count of 2^32 − 1 or more, or
// trailing bytes are a CheckError. This round-trips exactly (edge order
// and capacities preserved).

#include <iosfwd>
#include <string>

#include "graph/graph.hpp"

namespace sor {

void write_edge_list(const Graph& g, std::ostream& os);
Graph read_edge_list(std::istream& is);

/// Convenience file wrappers; throw CheckError on I/O failure.
void save_graph(const Graph& g, const std::string& path);
Graph load_graph(const std::string& path);

/// Graphviz "graph { ... }" rendering (for small graphs / debugging).
void write_dot(const Graph& g, std::ostream& os);

}  // namespace sor
