#pragma once

// RouteSnapshot — one epoch's installed routing table, frozen.
//
// The TE-as-a-service consumer shape: the control loop re-solves split
// fractions once per epoch, but route lookups happen per flow, many
// orders of magnitude more often. A RouteSnapshot is the bridge: one
// epoch's SplitTable (the table EpochController::install builds and
// core::split_fractions extracts from a FractionalRoute) frozen with its
// epoch and digest on the control thread, then queried lock-free by any
// number of reader threads through serve::RouteService.
//
// Immutability is the whole thread-safety story: after build() returns,
// nothing ever mutates the snapshot, so const lookups need no
// synchronization. Readers hold the snapshot alive via shared_ptr (see
// RouteService::lookup); a LookupResult's rows view the snapshot's
// storage and are valid exactly as long as that guard.
//
// Determinism: a SplitTable is canonical — pairs in sorted VertexPair
// order, each pair's rows in path_lexicographic_less order — so
// serialize() and digest() are pure functions of the table's CONTENT,
// independent of thread count and process. Two snapshots built from
// equal tables are byte-identical.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/path_system.hpp"
#include "graph/path.hpp"

namespace sor::serve {

/// Answer to a (src, dst) lookup. `paths` is the pair's slice of the
/// snapshot's table (canonical orientation, path_lexicographic_less
/// order), its rows reading as {PathView path, double fraction}; it is
/// valid as long as the snapshot that produced it — hold
/// RouteService::Answer's guard across any use.
struct LookupResult {
  bool found = false;
  /// True when the queried (src, dst) is the non-canonical orientation;
  /// use oriented_paths() (or reverse manually) for src→dst path objects.
  bool reverse = false;
  /// The epoch of the snapshot that answered.
  std::uint64_t epoch = 0;
  SplitRows paths;

  /// The answer's paths oriented src→dst (copies).
  std::vector<Path> oriented_paths() const;
  /// Σ fractions — 1 (up to solver rounding) for any installed pair.
  double fraction_sum() const;
};

class RouteSnapshot {
 public:
  /// Freezes `table` as the routing table for `epoch`, sharing it (the
  /// controller keeps the same table as its installed split). Runs on
  /// the control thread; the result is immutable and safe to share with
  /// readers.
  static RouteSnapshot build(std::uint64_t epoch,
                             std::shared_ptr<const SplitTable> table);
  static RouteSnapshot build(std::uint64_t epoch, SplitTable table);

  /// Lock-free, allocation-free lookup (binary search over sorted pairs).
  /// Safe from any thread for the snapshot's whole lifetime.
  LookupResult lookup(Vertex s, Vertex t) const;

  std::uint64_t epoch() const { return epoch_; }
  std::size_t num_pairs() const { return table_->num_pairs(); }
  std::size_t num_paths() const { return table_->num_rows(); }

  /// FNV-1a over the serialized table — equal iff serialize() is equal.
  /// Precomputed at build by hashing the writer's bytes as they are
  /// produced (the text itself is never built); readers use it to prove
  /// an answer came from exactly one published epoch.
  std::uint64_t digest() const { return digest_; }

  /// Canonical byte encoding: header, then pairs in sorted VertexPair
  /// order, each pair's rows in path_lexicographic_less order, fractions
  /// as bit-exact hex doubles. Content-determined — see file comment —
  /// and locale-free: numbers are formatted with std::to_chars, so no
  /// global locale can group their digits.
  std::string serialize() const;

 private:
  RouteSnapshot() = default;

  std::uint64_t epoch_ = 0;
  std::uint64_t digest_ = 0;
  std::shared_ptr<const SplitTable> table_;  // never null
};

}  // namespace sor::serve
