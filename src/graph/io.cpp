#include "graph/io.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace sor {

void write_edge_list(const Graph& g, std::ostream& os) {
  os << g.num_vertices() << "\n";
  for (const Edge& e : g.edges()) {
    os << e.u << " " << e.v << " " << e.capacity << "\n";
  }
}

namespace {

/// Whitespace-separated fields of one line.
std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> fields;
  std::istringstream in(line);
  for (std::string field; in >> field;) fields.push_back(std::move(field));
  return fields;
}

/// Parses the whole of `field` as a T. Fails on a leftover byte, on a
/// sign an unsigned T cannot hold, and on overflow — where an istream
/// would stop early, wrap a negative id, or saturate.
template <class T>
bool parse_field(const std::string& field, T& out) {
  const char* end = field.data() + field.size();
  const auto [parsed, ec] = std::from_chars(field.data(), end, out);
  return ec == std::errc() && parsed == end;
}

}  // namespace

Graph read_edge_list(std::istream& is) {
  std::string line;
  auto next_data_line = [&](std::string& out) -> bool {
    while (std::getline(is, out)) {
      // Skip blanks and comments.
      const auto first = out.find_first_not_of(" \t\r");
      if (first == std::string::npos) continue;
      if (out[first] == '#') continue;
      return true;
    }
    return false;
  };

  SOR_CHECK_MSG(next_data_line(line), "edge list: missing header line");
  std::size_t n = 0;
  {
    const std::vector<std::string> header = split_fields(line);
    SOR_CHECK_MSG(header.size() == 1 && parse_field(header[0], n) &&
                      n >= 1 && n < static_cast<std::size_t>(kInvalidVertex),
                  "edge list: bad vertex count: " << line);
  }
  Graph g(n);
  while (next_data_line(line)) {
    const std::vector<std::string> row = split_fields(line);
    Vertex u = 0, v = 0;
    SOR_CHECK_MSG(row.size() >= 2 && parse_field(row[0], u) &&
                      parse_field(row[1], v),
                  "edge list: bad edge line: " << line);
    // An absent capacity means 1; a present one must be a finite,
    // positive number with nothing after it.
    double cap = 1.0;
    if (row.size() > 2) {
      SOR_CHECK_MSG(row.size() == 3 && parse_field(row[2], cap) &&
                        std::isfinite(cap) && cap > 0,
                    "edge list: bad capacity in line: " << line);
    }
    g.add_edge(u, v, cap);
  }
  return g;
}

void save_graph(const Graph& g, const std::string& path) {
  std::ofstream os(path);
  SOR_CHECK_MSG(os.good(), "cannot open " << path << " for writing");
  write_edge_list(g, os);
  SOR_CHECK_MSG(os.good(), "write to " << path << " failed");
}

Graph load_graph(const std::string& path) {
  std::ifstream is(path);
  SOR_CHECK_MSG(is.good(), "cannot open " << path);
  return read_edge_list(is);
}

void write_dot(const Graph& g, std::ostream& os) {
  os << "graph G {\n";
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    os << "  " << v << ";\n";
  }
  for (const Edge& e : g.edges()) {
    os << "  " << e.u << " -- " << e.v << " [label=\"" << e.capacity
       << "\"];\n";
  }
  os << "}\n";
}

}  // namespace sor
