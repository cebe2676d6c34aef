#pragma once

// Path systems (Definition 2.1) — the semi-oblivious routing object.
//
// A path system P associates a multiset of candidate simple paths with
// vertex pairs. Paths are stored once, in canonical orientation (from the
// smaller vertex id), in a PathTable; a pair's candidates are a list of
// PathIds in insertion order. Multiplicities are kept: a (λ·k)-sample
// draws with replacement, and the weak-routing process weights paths per
// sampled instance. A SplitTable records which of those paths carries
// what share of each pair's demand once rates are solved.
//
// Thread-safety contract (see DESIGN.md "Serving layer" for the full
// table): PathSystem and PathActivation are NOT internally synchronized.
// Any number of threads may call const members concurrently provided no
// thread mutates; mutation (add / deduplicate / set_active / add_extra)
// requires exclusive access, and an append (add, add_extra) invalidates
// the views taken from the object. The serving layer never hands either
// object to reader threads — lookups go through immutable RouteSnapshots
// (src/serve) built on the control thread. A SplitTable has no mutators,
// so const access from any thread is safe.

#include <cstdint>
#include <ranges>
#include <span>
#include <vector>

#include "demand/demand.hpp"
#include "graph/graph.hpp"
#include "graph/path.hpp"

namespace sor {

struct RestrictedProblem;  // lp/path_lp.hpp

class PathSystem {
 public:
  PathSystem() = default;

  /// Adds one candidate path (any orientation; canonicalized internally).
  /// The path must not be trivial (src != dst).
  void add(PathView path);

  bool has_pair(Vertex s, Vertex t) const;

  /// The pair {s,t}'s candidate ids, in insertion order; empty if the
  /// pair is absent.
  std::span<const PathId> ids(Vertex s, Vertex t) const;
  /// pairs()[i]'s candidate ids, in insertion order (no search).
  std::span<const PathId> ids_at(std::size_t i) const { return ids_[i]; }
  /// Candidate `id` in canonical orientation.
  PathView path(PathId id) const { return table_[id]; }
  /// The pair {s,t}'s candidates as PathViews, in ids(s, t) order.
  auto paths(Vertex s, Vertex t) const {
    return ids(s, t) |
           std::views::transform([this](PathId id) { return table_[id]; });
  }

  /// All pairs with at least one path, sorted (deterministic iteration).
  const std::vector<VertexPair>& pairs() const { return pairs_; }

  /// k such that the system is k-sparse: max candidates over pairs.
  std::size_t max_sparsity() const;

  std::size_t num_pairs() const { return pairs_.size(); }
  std::size_t total_paths() const { return table_.size(); }

  /// Removes duplicate paths within each pair (keeps first occurrences).
  /// Renumbers the ids. Returns the number of paths removed.
  std::size_t deduplicate();

  /// Largest hop count over all stored paths (0 if empty).
  std::size_t max_hops() const;

 private:
  PathTable table_;
  std::vector<VertexPair> pairs_;         // sorted
  std::vector<std::vector<PathId>> ids_;  // ids_[i]: pairs_[i]'s candidates
};

/// Activation mask over a PathSystem — the control plane's view of which
/// installed candidates are currently usable. Link failures deactivate
/// candidates, recoveries reactivate them, and fallback paths installed
/// at runtime ride along as "extras". Ids [0, system().total_paths()) are
/// the system's candidates; extras take the ids after them, in install
/// order. The mask never mutates the system and extras only append, so an
/// id names the same candidate for the mask's whole life, and two flag
/// vectors of one mask align id by id.
class PathActivation {
 public:
  PathActivation() = default;
  /// Views `system` (not copied; must outlive the mask). All active.
  explicit PathActivation(const PathSystem& system);

  const PathSystem* system() const { return system_; }

  /// Number of ids: the system's candidates plus the extras.
  std::size_t size() const { return active_.size(); }
  /// Candidate `id` in canonical orientation. A view of an extra is
  /// invalidated by the next add_extra.
  PathView path(PathId id) const;

  bool is_active(PathId id) const {
    SOR_DCHECK(id < active_.size());
    return active_[id] != 0;
  }
  void set_active(PathId id, bool active);
  /// One flag per id, 1 = active.
  std::span<const char> flags() const { return active_; }
  /// Mask churn since `before`, an earlier flags() of this mask: the
  /// flags that flipped plus the ids appended since.
  std::size_t churn_since(std::span<const char> before) const;

  /// Installs a fallback path (any orientation; canonicalized) as the
  /// next id, initially active.
  PathId add_extra(PathView path);
  /// The pair {s,t}'s extras, in install order.
  std::span<const PathId> extras(Vertex s, Vertex t) const;

  /// Count of active candidates (base + extras) for the pair.
  std::size_t num_active(Vertex s, Vertex t) const;

 private:
  VertexPair pair_of(PathId id) const;

  const PathSystem* system_ = nullptr;
  PathTable extras_;              // id − system_->total_paths()
  std::vector<PathId> by_pair_;   // extra ids, sorted by (pair, id)
  std::vector<char> active_;
};

/// The append step every restricted-problem builder shares: opens a
/// commodity for `c`, which must be canonical (Demand::commodities()
/// pairs are), and appends its pair's candidates from `system`, in
/// insertion order. With `activation` set (it must view `system`), only
/// the active candidates are appended, the pair's extras after its base
/// candidates. With `ids` set, each appended candidate's id (in the
/// activation when set, else in the system) is pushed onto it. Returns the
/// number appended; on 0 the builder applies its own fallback policy.
std::size_t append_commodity(RestrictedProblem& problem, const Commodity& c,
                             const PathSystem& system,
                             const PathActivation* activation = nullptr,
                             std::vector<PathId>* ids = nullptr);

/// One row of a SplitTable as readers see it: a path in canonical
/// orientation, viewing the table's storage, and the fraction of its
/// pair's demand it carries.
struct SplitRow {
  PathView path;
  double fraction = 0;

  friend bool operator==(const SplitRow&, const SplitRow&) = default;
};

/// A pair's slice of a SplitTable's rows.
struct SplitPair {
  VertexPair pair;
  std::uint32_t begin = 0;
  std::uint32_t count = 0;
};

class SplitTable;

/// Reads row `r` of a table as a SplitRow.
struct SplitRowAt {
  const SplitTable* table = nullptr;
  SplitRow operator()(std::uint32_t r) const;
};

/// A pair's rows, in path order: a random-access range of SplitRow values
/// that view the table object, valid while it lives at that address (the
/// control plane and the snapshots hold tables by shared_ptr).
using SplitRows =
    std::ranges::transform_view<std::ranges::iota_view<std::uint32_t,
                                                       std::uint32_t>,
                                SplitRowAt>;

/// The installed split as one sorted, canonical table: which path carries
/// what share of each pair's demand. Pairs are sorted by (a, b); each
/// pair's rows are contiguous, in path_lexicographic_less order, with
/// equal paths merged and zero-fraction rows (and so empty pairs) dropped.
/// Stored as CSR: one PathTable with every row's path once, the rows'
/// fractions beside it, and the pairs' slices of both.
/// The common currency of the control plane and the serving layer — the
/// engine installs one per epoch, core::split_fractions extracts one from
/// a FractionalRoute, the quality tracker and serve::RouteSnapshot read it
/// directly — so its content alone fixes every byte derived from it.
/// Immutable once built.
class SplitTable {
 public:
  SplitTable() = default;

  /// A hand-built table: every path must be in canonical orientation
  /// (src < dst; checked), rows with fraction <= 0 are dropped, and equal
  /// paths are merged by summing their fractions in input order. The
  /// paths are copied in.
  explicit SplitTable(std::span<const SplitRow> rows);

  /// The split a restricted solve installs: each candidate carries its
  /// weight (one per candidate id of the problem) / demand_j of its pair.
  /// Equal candidates of a commodity share one row, their positive shares
  /// summed in candidate order. Commodities must be canonical with sorted, distinct pairs
  /// (checked; those from Demand::commodities() are). With `shares` set,
  /// it receives each candidate's share, flat by the problem's candidate
  /// id: the first copy of a path carries its row's fraction, every later
  /// copy 0, and a candidate whose path gets no row 0 — so routing the
  /// shares loads each row once.
  static SplitTable from_weights(
      const RestrictedProblem& problem, std::span<const double> weights,
      std::vector<double>* shares = nullptr);

  /// Pairs in sorted order.
  std::span<const SplitPair> pairs() const { return pairs_; }
  /// Row `r`, viewing the table.
  SplitRow row(std::uint32_t r) const { return {paths_[r], fractions_[r]}; }
  /// A pair's rows, in path order.
  SplitRows rows(const SplitPair& pair) const {
    return SplitRows(std::views::iota(pair.begin, pair.begin + pair.count),
                     SplitRowAt{this});
  }
  /// The pair {s,t}'s rows, empty iff the pair is absent (binary search;
  /// allocation-free).
  SplitRows rows(Vertex s, Vertex t) const;

  bool empty() const { return pairs_.empty(); }
  std::size_t num_pairs() const { return pairs_.size(); }
  std::size_t num_rows() const { return fractions_.size(); }

 private:
  /// Appends a row after every row so far; a new pair opens a slice.
  void append_row(PathView path, double fraction);

  std::vector<SplitPair> pairs_;
  PathTable paths_;               // row r's path
  std::vector<double> fractions_;  // row r's fraction
};

inline SplitRow SplitRowAt::operator()(std::uint32_t r) const {
  return table->row(r);
}

/// Reverses a path in place representation (returns the reversed copy).
Path reversed(PathView p);

/// Merges two systems (multiset union).
PathSystem merge(const PathSystem& a, const PathSystem& b);

/// Diversity statistic: the mean, over pairs with >= 2 candidates, of the
/// average pairwise Jaccard edge-overlap of the pair's candidates (0 =
/// fully edge-disjoint, 1 = identical). Correlated candidate sets (e.g.
/// k-shortest paths sharing a corridor) score high; samples from a
/// spread-out oblivious routing score low — the mechanism behind the E8
/// ablation and the E10 robustness gap.
double mean_pairwise_overlap(const PathSystem& system);

}  // namespace sor
