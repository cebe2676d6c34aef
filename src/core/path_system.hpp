#pragma once

// Path systems (Definition 2.1) — the semi-oblivious routing object.
//
// A path system P associates a multiset of candidate simple paths with
// vertex pairs. Paths are stored in canonical orientation (from the
// smaller vertex id); `paths_oriented` rewinds them for a requested
// direction. Multiplicities are kept: a (λ·k)-sample draws with
// replacement, and the weak-routing process weights paths per sampled
// instance. A SplitTable records which of those paths carries what share
// of each pair's demand once rates are solved.
//
// Thread-safety contract (see DESIGN.md "Serving layer" for the full
// table): PathSystem and PathActivation are NOT internally synchronized.
// Any number of threads may call const members concurrently provided no
// thread mutates; mutation (add / deduplicate / set_active / add_extra /
// set_extra_active) requires exclusive access. The serving layer never
// hands either object to reader threads — lookups go through immutable
// RouteSnapshots (src/serve) built on the control thread. A SplitTable
// has no mutators, so const access from any thread is safe.

#include <cstdint>
#include <span>
#include <unordered_map>
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
  void add(Path path);

  bool has_pair(Vertex s, Vertex t) const;

  /// Candidate paths oriented s→t (copies). Empty if the pair is absent.
  std::vector<Path> paths_oriented(Vertex s, Vertex t) const;

  /// Candidate paths in canonical orientation (no copy).
  std::span<const Path> canonical_paths(Vertex s, Vertex t) const;

  /// All pairs with at least one path, sorted (deterministic iteration).
  std::vector<VertexPair> pairs() const;

  /// k such that the system is k-sparse: max candidates over pairs.
  std::size_t max_sparsity() const;

  std::size_t num_pairs() const { return paths_.size(); }
  std::size_t total_paths() const;

  /// Removes duplicate paths within each pair (keeps first occurrences).
  /// Returns the number of paths removed.
  std::size_t deduplicate();

  /// Largest hop count over all stored paths (0 if empty).
  std::size_t max_hops() const;

 private:
  std::unordered_map<VertexPair, std::vector<Path>, VertexPairHash> paths_;
};

/// One candidate's activation flag in a PathActivation snapshot. The key
/// (pair, extra, index) identifies the candidate independently of the
/// flag value; snapshots are emitted sorted by (pair, extra, index).
struct ActivationFlag {
  std::uint64_t pair_key = 0;  // (a << 32) | b, canonical orientation
  std::uint32_t index = 0;     // base candidate index, or extra index
  bool extra = false;
  bool active = true;

  friend bool operator==(const ActivationFlag&,
                         const ActivationFlag&) = default;
};

/// Hamming distance between two flag snapshots of the SAME mask at
/// different epochs: flags that flipped, plus candidates present in only
/// one snapshot (a newly installed fallback counts as churn). Both inputs
/// must be flag_snapshot() outputs (sorted by key).
std::size_t activation_hamming(std::span<const ActivationFlag> before,
                               std::span<const ActivationFlag> after);

/// Activation mask over a PathSystem — the control plane's view of which
/// installed candidates are currently usable. Link failures deactivate
/// candidates, recoveries reactivate them, and fallback paths installed
/// at runtime ride along as "extras" with their own flags. The mask never
/// mutates the underlying system, so per-candidate state keyed by (pair,
/// index) — e.g. the TE engine's warm-start split fractions — stays valid
/// across epochs. Base candidates are addressed by their index into
/// canonical_paths(pair); pairs without an explicit mask are fully active.
class PathActivation {
 public:
  PathActivation() = default;
  /// Views `system` (not copied; must outlive the mask). All active.
  explicit PathActivation(const PathSystem& system);

  const PathSystem* system() const { return system_; }

  /// Flags base candidate `index` of the pair {s,t}.
  void set_active(Vertex s, Vertex t, std::size_t index, bool active);
  bool is_active(Vertex s, Vertex t, std::size_t index) const;

  /// Installs a fallback path (any orientation; canonicalized), initially
  /// active. Returns its extra index within the pair.
  std::size_t add_extra(Path path);
  std::size_t num_extras(Vertex s, Vertex t) const;
  /// The extra path in canonical orientation.
  const Path& extra_path(Vertex s, Vertex t, std::size_t index) const;
  void set_extra_active(Vertex s, Vertex t, std::size_t index, bool active);
  bool is_extra_active(Vertex s, Vertex t, std::size_t index) const;

  /// Active candidates oriented s→t: active base candidates (in canonical
  /// index order) followed by active extras.
  std::vector<Path> active_oriented(Vertex s, Vertex t) const;
  /// Count of active candidates (base + extras) for the pair.
  std::size_t num_active(Vertex s, Vertex t) const;

  /// Deterministic flattened flag vector: base candidates of every pair
  /// in sorted pair / index order, then every extra (sorted pair order,
  /// install order within the pair). Keys are stable across epochs — the
  /// base layout is fixed and extras are append-only — so two snapshots
  /// of the same mask align by key and their Hamming distance (differing
  /// flags plus keys present in only one snapshot) is the mask churn
  /// between epochs. See activation_hamming.
  std::vector<ActivationFlag> flag_snapshot() const;

 private:
  const PathSystem* system_ = nullptr;
  // Lazily materialized per-pair flags; absent entry = all active.
  std::unordered_map<VertexPair, std::vector<char>, VertexPairHash> base_;
  struct Extra {
    Path path;  // canonical orientation
    bool active = true;
  };
  std::unordered_map<VertexPair, std::vector<Extra>, VertexPairHash> extras_;
};

/// One row of a SplitTable: a path in canonical orientation and the
/// fraction of its pair's demand it carries.
struct SplitRow {
  Path path;
  double fraction = 0;

  friend bool operator==(const SplitRow&, const SplitRow&) = default;
};

/// A pair's slice of a SplitTable's rows.
struct SplitPair {
  VertexPair pair;
  std::uint32_t begin = 0;
  std::uint32_t count = 0;
};

/// The installed split as one sorted, canonical table: which path carries
/// what share of each pair's demand. Pairs are sorted by (a, b); each
/// pair's rows are contiguous, in path_lexicographic_less order, with
/// equal paths merged and zero-fraction rows (and so empty pairs) dropped.
/// The common currency of the control plane and the serving layer — the
/// engine installs one per epoch, core::split_fractions extracts one from
/// a FractionalRoute, warm start, the quality tracker and
/// serve::RouteSnapshot read it directly — so its content alone fixes
/// every byte derived from it. Immutable once built.
class SplitTable {
 public:
  SplitTable() = default;

  /// Canonicalizes `rows`: every path must be in canonical orientation
  /// (src < dst; checked), rows with fraction <= 0 are dropped, and equal
  /// paths are merged by summing their fractions in input order.
  explicit SplitTable(std::vector<SplitRow> rows);

  /// The split a restricted solve installs: candidate p of commodity j
  /// carries weights[j][p] / demand_j of its pair. Commodity candidates
  /// must be canonical (commodities from Demand::commodities() are).
  static SplitTable from_weights(
      const RestrictedProblem& problem,
      const std::vector<std::vector<double>>& weights);

  /// Pairs in sorted order.
  std::span<const SplitPair> pairs() const { return pairs_; }
  /// A pair's rows, in path order.
  std::span<const SplitRow> rows(const SplitPair& pair) const {
    return std::span<const SplitRow>(rows_).subspan(pair.begin, pair.count);
  }
  /// The pair {s,t}'s rows, empty iff the pair is absent (binary search;
  /// allocation-free).
  std::span<const SplitRow> rows(Vertex s, Vertex t) const;

  bool empty() const { return pairs_.empty(); }
  std::size_t num_pairs() const { return pairs_.size(); }
  std::size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<SplitPair> pairs_;
  std::vector<SplitRow> rows_;  // pairs_' rows, back to back
};

/// Reverses a path in place representation (returns the reversed copy).
Path reversed(const Path& p);

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
