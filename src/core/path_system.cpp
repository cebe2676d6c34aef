#include "core/path_system.hpp"

#include <algorithm>
#include <numeric>
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
                             const PathActivation* activation,
                             std::vector<PathId>* ids) {
  SOR_CHECK_MSG(c.src < c.dst, "commodity (" << c.src << "," << c.dst
                                             << ") is not canonical");
  SOR_CHECK(activation == nullptr || activation->system() == &system);
  problem.add_commodity(c.amount);
  const auto append = [&](PathId id, PathView path) {
    problem.add_candidate(path);
    if (ids != nullptr) ids->push_back(id);
  };
  for (const PathId id : system.ids(c.src, c.dst)) {
    if (activation == nullptr || activation->is_active(id)) {
      append(id, system.path(id));
    }
  }
  if (activation != nullptr) {
    for (const PathId id : activation->extras(c.src, c.dst)) {
      if (activation->is_active(id)) append(id, activation->path(id));
    }
  }
  return problem.commodities.back().size();
}

namespace {

/// Walks `order`, indices of rows sorted stably by path, in runs of equal
/// paths: emit(first index of the run, the run's positive fractions
/// summed in input order) — the one merge rule of a SplitTable.
template <typename PathOf, typename FractionOf, typename Emit>
void merge_equal_paths(std::span<const std::uint32_t> order,
                       const PathOf& path_of, const FractionOf& fraction_of,
                       const Emit& emit) {
  for (std::size_t i = 0; i < order.size();) {
    const PathView path = path_of(order[i]);
    double sum = 0;
    std::size_t end = i;
    do {
      const double fraction = fraction_of(order[end]);
      if (fraction > 0) sum += fraction;
      ++end;
    } while (end < order.size() && path_of(order[end]) == path);
    emit(order[i], sum);
    i = end;
  }
}

/// 0, 1, ..., n - 1, sorted stably by path_of: an insertion sort, which
/// allocates nothing, for a commodity's few candidates.
template <typename PathOf>
void sort_few_by_path(std::size_t n, const PathOf& path_of,
                      std::vector<std::uint32_t>& order) {
  order.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint32_t k = i;
    for (; k > 0 && path_lexicographic_less(path_of(i), path_of(order[k - 1]));
         --k) {
      order[k] = order[k - 1];
    }
    order[k] = i;
  }
}

}  // namespace

void SplitTable::append_row(PathView path, double fraction) {
  SOR_CHECK_MSG(path.src < path.dst, "split row on a non-canonical path ("
                                         << path.src << "," << path.dst
                                         << ")");
  const VertexPair pair{path.src, path.dst};
  if (pairs_.empty() || !(pairs_.back().pair == pair)) {
    pairs_.push_back({pair, static_cast<std::uint32_t>(fractions_.size()), 0});
  }
  ++pairs_.back().count;
  paths_.append(path);
  fractions_.push_back(fraction);
}

SplitTable::SplitTable(std::span<const SplitRow> rows) {
  const auto path_of = [&](std::uint32_t r) { return rows[r].path; };
  // path_lexicographic_less orders by pair first, so the rows come out
  // pair by pair.
  std::vector<std::uint32_t> order(rows.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t x, std::uint32_t y) {
                     return path_lexicographic_less(path_of(x), path_of(y));
                   });
  merge_equal_paths(
      order, path_of, [&](std::uint32_t r) { return rows[r].fraction; },
      [&](std::uint32_t first, double sum) {
        if (sum > 0) append_row(rows[first].path, sum);
      });
}

SplitTable SplitTable::from_weights(
    const RestrictedProblem& problem,
    std::span<const double> weights, std::vector<double>* shares) {
  SOR_CHECK(weights.size() == problem.paths.size());
  SplitTable table;
  if (shares != nullptr) shares->assign(problem.paths.size(), 0.0);
  std::vector<std::uint32_t> order;
  for (std::size_t j = 0; j < problem.commodities.size(); ++j) {
    const RestrictedCommodity& c = problem.commodities[j];
    if (c.size() == 0) continue;
    if (j > 0 && problem.commodities[j - 1].size() > 0) {
      const PathView last = problem.candidate(j - 1, 0);
      const PathView first = problem.candidate(j, 0);
      SOR_CHECK_MSG((VertexPair{last.src, last.dst}) <
                        (VertexPair{first.src, first.dst}),
                    "commodity pairs are not sorted and distinct");
    }
    // A commodity has at most k candidates (plus extras): sort them, then
    // merge equal paths, each run in candidate order.
    const auto path_of = [&](std::uint32_t p) {
      return problem.candidate(j, p);
    };
    sort_few_by_path(c.size(), path_of, order);
    merge_equal_paths(
        order, path_of,
        [&](std::uint32_t p) { return weights[c.begin + p] / c.demand; },
        [&](std::uint32_t first, double sum) {
          if (shares != nullptr) (*shares)[c.begin + first] = sum;
          if (sum > 0) table.append_row(problem.candidate(j, first), sum);
        });
  }
  return table;
}

SplitRows SplitTable::rows(Vertex s, Vertex t) const {
  const VertexPair key = VertexPair::canonical(s, t);
  const auto it = std::lower_bound(
      pairs_.begin(), pairs_.end(), key,
      [](const SplitPair& e, const VertexPair& k) { return e.pair < k; });
  if (it == pairs_.end() || !(it->pair == key)) return rows(SplitPair{});
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
