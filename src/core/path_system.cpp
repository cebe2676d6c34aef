#include "core/path_system.hpp"

#include <algorithm>
#include <unordered_set>

#include "lp/path_lp.hpp"

namespace sor {

Path reversed(PathView p) {
  Path out;
  out.src = p.dst;
  out.dst = p.src;
  out.edges.assign(p.edges.rbegin(), p.edges.rend());
  return out;
}

namespace {

PathId append_canonical(PathTable& table, PathView path) {
  return path.src < path.dst ? table.append(path)
                             : table.append(reversed(path));
}

}  // namespace

void PathSystem::add(PathView path) {
  SOR_CHECK_MSG(path.src != path.dst, "trivial path in path system");
  const VertexPair pair = VertexPair::canonical(path.src, path.dst);
  const auto it = std::lower_bound(pairs_.begin(), pairs_.end(), pair);
  const auto slot = it - pairs_.begin();
  if (it == pairs_.end() || *it != pair) {
    pairs_.insert(it, pair);
    ids_.emplace(ids_.begin() + slot);
  }
  ids_[slot].push_back(append_canonical(table_, path));
}

bool PathSystem::has_pair(Vertex s, Vertex t) const {
  return !ids(s, t).empty();
}

std::span<const PathId> PathSystem::ids(Vertex s, Vertex t) const {
  const VertexPair pair = VertexPair::canonical(s, t);
  const auto it = std::lower_bound(pairs_.begin(), pairs_.end(), pair);
  if (it == pairs_.end() || *it != pair) return {};
  return ids_[it - pairs_.begin()];
}

std::size_t PathSystem::max_sparsity() const {
  std::size_t best = 0;
  for (const auto& list : ids_) best = std::max(best, list.size());
  return best;
}

std::size_t PathSystem::deduplicate() {
  std::size_t removed = 0;
  PathTable unique;
  for (std::vector<PathId>& list : ids_) {
    std::vector<PathId> kept;
    for (const PathId id : list) {
      const PathView p = table_[id];
      if (std::none_of(kept.begin(), kept.end(),
                       [&](PathId k) { return unique[k] == p; })) {
        kept.push_back(unique.append(p));
      }
    }
    removed += list.size() - kept.size();
    list = std::move(kept);
  }
  table_ = std::move(unique);
  return removed;
}

std::size_t PathSystem::max_hops() const {
  std::size_t best = 0;
  for (PathId id = 0; id < table_.size(); ++id) {
    best = std::max(best, table_[id].hops());
  }
  return best;
}

double mean_pairwise_overlap(const PathSystem& system) {
  double total = 0;
  std::size_t counted = 0;
  for (const VertexPair& pair : system.pairs()) {
    const std::span<const PathId> ids = system.ids(pair.a, pair.b);
    if (ids.size() < 2) continue;
    double pair_total = 0;
    std::size_t pair_count = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const std::span<const EdgeId> path_i = system.path(ids[i]).edges;
      const std::unordered_set<EdgeId> edges_i(path_i.begin(), path_i.end());
      for (std::size_t j = i + 1; j < ids.size(); ++j) {
        const std::span<const EdgeId> path_j = system.path(ids[j]).edges;
        std::size_t common = 0;
        for (EdgeId e : path_j) common += edges_i.contains(e);
        const std::size_t unions = edges_i.size() + path_j.size() - common;
        pair_total += unions == 0
                          ? 1.0
                          : static_cast<double>(common) /
                                static_cast<double>(unions);
        ++pair_count;
      }
    }
    total += pair_total / static_cast<double>(pair_count);
    ++counted;
  }
  return counted == 0 ? 0.0 : total / static_cast<double>(counted);
}

PathActivation::PathActivation(const PathSystem& system)
    : system_(&system), active_(system.total_paths(), 1) {}

PathView PathActivation::path(PathId id) const {
  SOR_CHECK(system_ != nullptr && id < active_.size());
  const std::size_t base = system_->total_paths();
  return id < base ? system_->path(id)
                   : extras_[static_cast<PathId>(id - base)];
}

void PathActivation::set_active(PathId id, bool active) {
  SOR_CHECK_MSG(id < active_.size(), "activation id " << id << " out of range");
  active_[id] = active ? 1 : 0;
}

VertexPair PathActivation::pair_of(PathId id) const {
  const PathView p = path(id);
  return {p.src, p.dst};
}

PathId PathActivation::add_extra(PathView path) {
  SOR_CHECK(system_ != nullptr);
  SOR_CHECK_MSG(path.src != path.dst, "trivial fallback path");
  append_canonical(extras_, path);
  const auto id = static_cast<PathId>(active_.size());
  active_.push_back(1);
  const VertexPair pair = VertexPair::canonical(path.src, path.dst);
  const auto pair_of_id = [&](PathId x) { return pair_of(x); };
  by_pair_.insert(std::ranges::upper_bound(by_pair_, pair, {}, pair_of_id), id);
  return id;
}

std::span<const PathId> PathActivation::extras(Vertex s, Vertex t) const {
  return std::ranges::equal_range(by_pair_, VertexPair::canonical(s, t), {},
                                  [&](PathId id) { return pair_of(id); });
}

std::size_t PathActivation::churn_since(std::span<const char> before) const {
  SOR_CHECK(before.size() <= active_.size());
  std::size_t churn = active_.size() - before.size();
  for (std::size_t id = 0; id < before.size(); ++id) {
    churn += before[id] != active_[id];
  }
  return churn;
}

std::size_t PathActivation::num_active(Vertex s, Vertex t) const {
  SOR_CHECK(system_ != nullptr);
  std::size_t count = 0;
  for (const PathId id : system_->ids(s, t)) count += is_active(id);
  for (const PathId id : extras(s, t)) count += is_active(id);
  return count;
}

std::size_t append_commodity(RestrictedProblem& problem, const Commodity& c,
                             const PathSystem& system,
                             const PathActivation* activation) {
  SOR_CHECK_MSG(c.src < c.dst, "commodity (" << c.src << "," << c.dst
                                             << ") is not canonical");
  SOR_CHECK(activation == nullptr || activation->system() == &system);
  problem.add_commodity(c.amount);
  for (const PathId id : system.ids(c.src, c.dst)) {
    if (activation == nullptr || activation->is_active(id)) {
      problem.add_candidate(system.path(id));
    }
  }
  if (activation != nullptr) {
    for (const PathId id : activation->extras(c.src, c.dst)) {
      if (activation->is_active(id)) {
        problem.add_candidate(activation->path(id));
      }
    }
  }
  return problem.commodities.back().size();
}

SplitTable::SplitTable(std::vector<SplitRow> rows) {
  std::erase_if(rows, [](const SplitRow& row) { return row.fraction <= 0; });
  // Stable, so equal paths stay in input order and sum in that order.
  std::stable_sort(rows.begin(), rows.end(),
                   [](const SplitRow& x, const SplitRow& y) {
                     return path_lexicographic_less(x.path, y.path);
                   });
  rows_.reserve(rows.size());
  for (SplitRow& row : rows) {
    SOR_CHECK_MSG(row.path.src < row.path.dst,
                  "split row on a non-canonical path (" << row.path.src << ","
                                                        << row.path.dst << ")");
    if (!rows_.empty() && rows_.back().path == row.path) {
      rows_.back().fraction += row.fraction;
      continue;
    }
    const VertexPair pair{row.path.src, row.path.dst};
    if (pairs_.empty() || !(pairs_.back().pair == pair)) {
      pairs_.push_back({pair, static_cast<std::uint32_t>(rows_.size()), 0});
    }
    ++pairs_.back().count;
    rows_.push_back(std::move(row));
  }
}

namespace {

/// The first of commodity j's candidates whose path equals candidate p's.
std::size_t first_copy(const RestrictedProblem& problem, std::size_t j,
                       std::size_t p) {
  const PathView path = problem.candidate(j, p);
  for (std::size_t q = 0; q < p; ++q) {
    if (problem.candidate(j, q) == path) return q;
  }
  return p;
}

/// Commodity j's installed shares, the one merge rule behind from_weights
/// and merged_fractions: weights[p] / demand for each positive weight,
/// summed in candidate order onto p's first copy (0 on every other
/// candidate).
void merge_shares(const RestrictedProblem& problem, std::size_t j,
                  std::span<const double> weights,
                  std::vector<double>& shares) {
  const RestrictedCommodity& c = problem.commodities[j];
  SOR_CHECK(weights.size() == c.size());
  shares.assign(c.size(), 0.0);
  for (std::size_t p = 0; p < c.size(); ++p) {
    if (weights[p] > 0) {
      shares[first_copy(problem, j, p)] += weights[p] / c.demand;
    }
  }
}

}  // namespace

SplitTable SplitTable::from_weights(
    const RestrictedProblem& problem,
    const std::vector<std::vector<double>>& weights) {
  std::vector<SplitRow> rows;
  std::vector<double> shares;
  for (std::size_t j = 0; j < problem.commodities.size(); ++j) {
    merge_shares(problem, j, weights[j], shares);
    for (std::size_t p = 0; p < shares.size(); ++p) {
      if (shares[p] <= 0) continue;  // no row, or merged into a first copy
      rows.push_back({to_path(problem.candidate(j, p)), shares[p]});
    }
  }
  return SplitTable(std::move(rows));
}

std::vector<double> SplitTable::merged_fractions(
    const RestrictedProblem& problem, std::size_t j,
    std::span<const double> weights) {
  std::vector<double> fractions;
  merge_shares(problem, j, weights, fractions);
  for (std::size_t p = 0; p < fractions.size(); ++p) {
    fractions[p] = fractions[first_copy(problem, j, p)];
  }
  return fractions;
}

std::span<const SplitRow> SplitTable::rows(Vertex s, Vertex t) const {
  const VertexPair key = VertexPair::canonical(s, t);
  const auto it = std::lower_bound(
      pairs_.begin(), pairs_.end(), key,
      [](const SplitPair& e, const VertexPair& k) { return e.pair < k; });
  if (it == pairs_.end() || !(it->pair == key)) return {};
  return rows(*it);
}

PathSystem merge(const PathSystem& a, const PathSystem& b) {
  PathSystem out = a;
  for (const VertexPair& pair : b.pairs()) {
    for (const PathId id : b.ids(pair.a, pair.b)) out.add(b.path(id));
  }
  return out;
}

}  // namespace sor
