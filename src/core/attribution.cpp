#include "core/attribution.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/check.hpp"

namespace sor {

CongestionAttribution attribute_congestion(
    const Graph& g, const RestrictedProblem& problem,
    std::span<const double> weights, std::size_t top_k) {
  SOR_CHECK_MSG(problem.graph == &g || problem.graph == nullptr,
                "attribute_congestion: problem built over a different graph");
  SOR_CHECK_MSG(weights.size() == problem.paths.size(),
                "attribute_congestion: weights/candidates size mismatch");

  // Pass 1: per-edge load, recomputed from the weights so that the
  // contributor shares reported below sum to exactly the utilization we
  // report (no dependence on solver-side load bookkeeping).
  std::vector<double> load(g.num_edges(), 0.0);
  for (const RestrictedCommodity& c : problem.commodities) {
    for (PathId id = c.begin; id < c.end; ++id) {
      const double w = weights[id];
      if (w <= 0) continue;
      for (EdgeId e : problem.paths.edges(id)) load[e] += w;
    }
  }

  CongestionAttribution out;
  std::vector<EdgeId> ranked;
  ranked.reserve(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (load[e] > 0) {
      ranked.push_back(e);
      ++out.loaded_links;
    }
  }
  const auto utilization = [&](EdgeId e) { return load[e] / g.edge(e).capacity; };
  std::sort(ranked.begin(), ranked.end(), [&](EdgeId a, EdgeId b) {
    const double ua = utilization(a), ub = utilization(b);
    return ua != ub ? ua > ub : a < b;
  });
  if (!ranked.empty()) out.max_utilization = utilization(ranked.front());
  if (ranked.size() > top_k) ranked.resize(top_k);

  std::unordered_map<EdgeId, std::size_t> slot;
  slot.reserve(ranked.size());
  out.links.reserve(ranked.size());
  for (EdgeId e : ranked) {
    slot.emplace(e, out.links.size());
    const Edge& edge = g.edge(e);
    LinkAttribution link;
    link.edge = e;
    link.u = edge.u;
    link.v = edge.v;
    link.capacity = edge.capacity;
    link.load = load[e];
    link.utilization = load[e] / edge.capacity;
    out.links.push_back(std::move(link));
  }

  // Pass 2: contributor terms, only for the selected links. A walk that
  // traverses a selected edge twice contributes one term with doubled
  // load (matching add_path_load's multiplicity).
  for (std::size_t j = 0; j < problem.commodities.size(); ++j) {
    for (std::size_t p = 0; p < problem.commodities[j].size(); ++p) {
      const double w = weights[problem.commodities[j].begin + p];
      if (w <= 0) continue;
      const PathView path = problem.candidate(j, p);
      std::unordered_map<std::size_t, std::size_t> multiplicity;
      for (EdgeId e : path.edges) {
        const auto it = slot.find(e);
        if (it != slot.end()) ++multiplicity[it->second];
      }
      for (const auto& [s, times] : multiplicity) {
        LinkAttribution& link = out.links[s];
        PathContribution c;
        c.src = path.src;
        c.dst = path.dst;
        c.commodity = j;
        c.path_index = p;
        c.hops = path.hops();
        c.load = w * static_cast<double>(times);
        c.share = c.load / link.capacity;
        link.contributors.push_back(c);
      }
    }
  }
  for (LinkAttribution& link : out.links) {
    std::sort(link.contributors.begin(), link.contributors.end(),
              [](const PathContribution& a, const PathContribution& b) {
                if (a.load != b.load) return a.load > b.load;
                if (a.commodity != b.commodity) return a.commodity < b.commodity;
                return a.path_index < b.path_index;
              });
  }
  return out;
}

telemetry::JsonValue attribution_to_json(const CongestionAttribution& a) {
  using telemetry::JsonValue;
  JsonValue doc = JsonValue::object();
  doc.set("top_k", static_cast<std::uint64_t>(a.links.size()));
  doc.set("loaded_links", static_cast<std::uint64_t>(a.loaded_links));
  doc.set("max_utilization", a.max_utilization);
  JsonValue links = JsonValue::array();
  for (const LinkAttribution& link : a.links) {
    JsonValue l = JsonValue::object();
    l.set("edge", static_cast<std::uint64_t>(link.edge));
    l.set("u", static_cast<std::uint64_t>(link.u));
    l.set("v", static_cast<std::uint64_t>(link.v));
    l.set("capacity", link.capacity);
    l.set("load", link.load);
    l.set("utilization", link.utilization);
    JsonValue contributors = JsonValue::array();
    for (const PathContribution& c : link.contributors) {
      JsonValue e = JsonValue::object();
      e.set("src", static_cast<std::uint64_t>(c.src));
      e.set("dst", static_cast<std::uint64_t>(c.dst));
      e.set("commodity", static_cast<std::uint64_t>(c.commodity));
      e.set("path_index", static_cast<std::uint64_t>(c.path_index));
      e.set("hops", static_cast<std::uint64_t>(c.hops));
      e.set("load", c.load);
      e.set("share", c.share);
      contributors.push(std::move(e));
    }
    l.set("contributors", std::move(contributors));
    links.push(std::move(l));
  }
  doc.set("links", std::move(links));
  return doc;
}

}  // namespace sor
