#include "serve/snapshot.hpp"

#include <bit>
#include <charconv>
#include <string_view>
#include <utility>

namespace sor::serve {

namespace {

// The one canonical writer, over a byte sink `put(std::string_view)`:
// serialize() appends the bytes to a string, build() folds them straight
// into FNV-1a, so the digest never needs the text. std::to_chars formats
// in the "C" locale whatever the global one, so the bytes cannot pick up
// digit grouping.
template <typename Sink>
void put_number(const Sink& put, std::uint64_t value, int base = 10) {
  char digits[20];  // 2^64 - 1 has 20 decimal digits, so this never fails
  const char* end =
      std::to_chars(digits, digits + sizeof digits, value, base).ptr;
  put(std::string_view(digits, static_cast<std::size_t>(end - digits)));
}

template <typename Sink>
void write_snapshot(std::uint64_t epoch, const SplitTable& table,
                    const Sink& put) {
  put("sor-route-snapshot v1\nepoch ");
  put_number(put, epoch);
  put("\npairs ");
  put_number(put, table.num_pairs());
  put(" paths ");
  put_number(put, table.num_rows());
  put("\n");
  for (const SplitPair& pair : table.pairs()) {
    put("pair ");
    put_number(put, pair.pair.a);
    put(" ");
    put_number(put, pair.pair.b);
    put(" ");
    put_number(put, pair.count);
    put("\n");
    for (const SplitRow row : table.rows(pair)) {
      // Fractions as raw IEEE-754 bits in lowercase hex: bit-exact round
      // trip, no formatting-precision ambiguity in the byte-identity
      // contract.
      put("path ");
      put_number(put, std::bit_cast<std::uint64_t>(row.fraction), 16);
      for (const EdgeId e : row.path.edges) {
        put(" ");
        put_number(put, e);
      }
      put("\n");
    }
  }
}

}  // namespace

std::vector<Path> LookupResult::oriented_paths() const {
  std::vector<Path> out;
  out.reserve(paths.size());
  for (const SplitRow row : paths) {
    out.push_back(reverse ? reversed(row.path) : to_path(row.path));
  }
  return out;
}

double LookupResult::fraction_sum() const {
  double sum = 0;
  for (const SplitRow row : paths) sum += row.fraction;
  return sum;
}

RouteSnapshot RouteSnapshot::build(std::uint64_t epoch, SplitTable table) {
  return build(epoch, std::make_shared<const SplitTable>(std::move(table)));
}

RouteSnapshot RouteSnapshot::build(std::uint64_t epoch,
                                   std::shared_ptr<const SplitTable> table) {
  SOR_CHECK(table != nullptr);
  RouteSnapshot snap;
  snap.epoch_ = epoch;
  snap.table_ = std::move(table);
  // FNV-1a over the canonical encoding: content-determined, so snapshots
  // built from equal tables share a digest, and readers can match answers
  // to published epochs exactly.
  std::uint64_t h = 1469598103934665603ULL;
  write_snapshot(snap.epoch_, *snap.table_, [&h](std::string_view bytes) {
    for (const char c : bytes) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
  });
  snap.digest_ = h;
  return snap;
}

LookupResult RouteSnapshot::lookup(Vertex s, Vertex t) const {
  LookupResult result;
  result.epoch = epoch_;
  result.paths = table_->rows(s, t);
  if (result.paths.empty()) return result;
  result.found = true;
  result.reverse = s > t;
  return result;
}

std::string RouteSnapshot::serialize() const {
  std::string out;
  write_snapshot(epoch_, *table_,
                 [&out](std::string_view bytes) { out.append(bytes); });
  return out;
}

}  // namespace sor::serve
