#include "engine/event_trace.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <istream>
#include <locale>
#include <ostream>
#include <sstream>
#include <string>

#include "demand/generators.hpp"
#include "util/check.hpp"

namespace sor::engine {

double next_gaussian(Rng& rng) {
  const double u1 = std::max(rng.next_double(), 1e-12);
  const double u2 = rng.next_double();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

std::span<const Event> EventTrace::events_at(std::size_t epoch) const {
  const auto lo = std::lower_bound(
      events.begin(), events.end(), epoch,
      [](const Event& e, std::size_t t) { return e.epoch < t; });
  auto hi = lo;
  while (hi != events.end() && hi->epoch == epoch) ++hi;
  return {lo, hi};
}

namespace {

/// Connectivity of the alive subgraph with `candidate` additionally
/// removed (kInvalidEdge to test the alive subgraph as-is).
bool alive_connected(const Graph& g, const std::vector<char>& alive,
                     EdgeId candidate) {
  if (g.num_vertices() == 0) return true;
  std::vector<char> seen(g.num_vertices(), 0);
  std::vector<Vertex> stack = {0};
  seen[0] = 1;
  std::size_t visited = 1;
  while (!stack.empty()) {
    const Vertex v = stack.back();
    stack.pop_back();
    for (const HalfEdge& half : g.neighbors(v)) {
      if (half.id == candidate || !alive[half.id] || seen[half.to]) continue;
      seen[half.to] = 1;
      ++visited;
      stack.push_back(half.to);
    }
  }
  return visited == g.num_vertices();
}

}  // namespace

EventTrace generate_trace(const Graph& g, const TraceOptions& options,
                          std::uint64_t seed) {
  SOR_CHECK(options.p_failure >= 0 && options.p_failure <= 1);
  SOR_CHECK(options.p_drift >= 0 && options.p_drift <= 1);
  SOR_CHECK(options.mean_downtime >= 1);
  SOR_CHECK(options.drift_sigma >= 0);

  EventTrace trace;
  trace.num_epochs = options.num_epochs;
  std::vector<char> alive(g.num_edges(), 1);
  // recovery_at[e] = epoch the failed edge e comes back (0 = not down).
  std::vector<std::size_t> recovery_at(g.num_edges(), 0);
  std::size_t down = 0;

  const Rng base(seed);
  for (std::size_t t = 1; t < options.num_epochs; ++t) {
    Rng rng = base.split(t);

    // Scheduled recoveries first: a link that comes back this epoch is
    // routable again before any new failure is drawn.
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (!alive[e] && recovery_at[e] == t) {
        alive[e] = 1;
        recovery_at[e] = 0;
        --down;
        trace.events.push_back(Event{t, EventKind::kLinkRecovery, e, 0, 0});
      }
    }

    if (down < options.max_concurrent_failures &&
        rng.next_bool(options.p_failure)) {
      // Uniform among alive edges whose removal keeps the surviving
      // subgraph connected; give up after a bounded number of draws
      // (sparse graphs under concurrent failures may have no candidate).
      for (int attempt = 0; attempt < 50; ++attempt) {
        const EdgeId e =
            static_cast<EdgeId>(rng.next_u64(g.num_edges()));
        if (!alive[e] || !alive_connected(g, alive, e)) continue;
        alive[e] = 0;
        ++down;
        const std::size_t span_max =
            static_cast<std::size_t>(2 * options.mean_downtime - 1);
        const std::size_t downtime = 1 + rng.next_u64(std::max<std::uint64_t>(
                                             span_max, 1));
        recovery_at[e] = t + downtime;
        trace.events.push_back(Event{t, EventKind::kLinkFailure, e, 0, 0});
        break;
      }
    }

    if (rng.next_bool(options.p_drift)) {
      trace.events.push_back(Event{t, EventKind::kDemandDrift, kInvalidEdge,
                                   options.drift_sigma, rng()});
    }
  }
  return trace;
}

void save_trace(const EventTrace& trace, std::ostream& os) {
  os << "sor-trace v1\n";
  os << "epochs " << trace.num_epochs << "\n";
  os << "events " << trace.events.size() << "\n";
  os << std::setprecision(17);
  for (const Event& e : trace.events) {
    switch (e.kind) {
      case EventKind::kLinkFailure:
        os << e.epoch << " fail " << e.edge << "\n";
        break;
      case EventKind::kLinkRecovery:
        os << e.epoch << " recover " << e.edge << "\n";
        break;
      case EventKind::kDemandDrift:
        os << e.epoch << " drift " << e.drift_sigma << " " << e.drift_stream
           << "\n";
        break;
    }
  }
  os << "end\n";
}

EventTrace load_trace(std::istream& is) {
  std::string line;
  SOR_CHECK_MSG(std::getline(is, line) && line == "sor-trace v1",
                "bad trace header");
  EventTrace trace;
  std::size_t num_events = 0;
  {
    std::string key;
    SOR_CHECK(std::getline(is, line));
    std::istringstream row(line);
    row.imbue(std::locale::classic());
    SOR_CHECK_MSG(row >> key >> trace.num_epochs && key == "epochs",
                  "bad trace epochs line");
    SOR_CHECK(std::getline(is, line));
    std::istringstream row2(line);
    row2.imbue(std::locale::classic());
    SOR_CHECK_MSG(row2 >> key >> num_events && key == "events",
                  "bad trace events line");
  }
  for (std::size_t i = 0; i < num_events; ++i) {
    SOR_CHECK_MSG(std::getline(is, line), "truncated trace");
    std::istringstream row(line);
    row.imbue(std::locale::classic());
    Event e;
    std::string kind;
    SOR_CHECK_MSG(row >> e.epoch >> kind, "bad trace event line: " << line);
    if (kind == "fail") {
      e.kind = EventKind::kLinkFailure;
      SOR_CHECK(row >> e.edge);
    } else if (kind == "recover") {
      e.kind = EventKind::kLinkRecovery;
      SOR_CHECK(row >> e.edge);
    } else if (kind == "drift") {
      e.kind = EventKind::kDemandDrift;
      SOR_CHECK(row >> e.drift_sigma >> e.drift_stream);
    } else {
      SOR_CHECK_MSG(false, "unknown trace event kind " << kind);
    }
    trace.events.push_back(e);
  }
  SOR_CHECK_MSG(std::getline(is, line) && line == "end",
                "missing trace trailer");
  return trace;
}

DemandStream::DemandStream(const Graph& g, const DemandStreamOptions& options,
                           std::uint64_t seed)
    : options_(options), seed_(seed) {
  SOR_CHECK(options.total > 0);
  SOR_CHECK(options.jitter_sigma >= 0);
  const Demand base = gravity_demand(g, options.total);
  for (const Commodity& c : base.commodities()) {
    entries_.push_back(
        Entry{VertexPair::canonical(c.src, c.dst), c.amount, 1.0});
  }
}

Demand DemandStream::at_epoch(std::size_t epoch) const {
  // Stream id 1 + epoch keeps the jitter streams disjoint from drift
  // streams, which are raw 64-bit draws from the trace generator.
  Rng rng = Rng(seed_).split(1 + epoch);
  Demand out;
  for (const Entry& entry : entries_) {
    const double jitter =
        options_.jitter_sigma > 0
            ? std::exp(options_.jitter_sigma * next_gaussian(rng))
            : 1.0;
    out.add(entry.pair.a, entry.pair.b, entry.base * entry.factor * jitter);
  }
  return out;
}

void DemandStream::apply_drift(double sigma, std::uint64_t stream) {
  SOR_CHECK(sigma >= 0);
  Rng rng = Rng(seed_).split(stream);
  for (Entry& entry : entries_) {
    entry.factor *= std::exp(sigma * next_gaussian(rng));
  }
}

}  // namespace sor::engine
