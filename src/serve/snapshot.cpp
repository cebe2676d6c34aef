#include "serve/snapshot.hpp"

#include <bit>
#include <sstream>
#include <utility>

namespace sor::serve {

std::vector<Path> LookupResult::oriented_paths() const {
  std::vector<Path> out;
  out.reserve(paths.size());
  for (const SplitRow& row : paths) {
    out.push_back(reverse ? reversed(row.path) : row.path);
  }
  return out;
}

double LookupResult::fraction_sum() const {
  double sum = 0;
  for (const SplitRow& row : paths) sum += row.fraction;
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
  for (const char c : snap.serialize()) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
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
  std::ostringstream os;
  os << "sor-route-snapshot v1\n";
  os << "epoch " << epoch_ << "\n";
  os << "pairs " << table_->num_pairs() << " paths " << table_->num_rows()
     << "\n";
  for (const SplitPair& pair : table_->pairs()) {
    os << "pair " << pair.pair.a << " " << pair.pair.b << " " << pair.count
       << "\n";
    for (const SplitRow& row : table_->rows(pair)) {
      // Fractions as raw IEEE-754 bits: bit-exact round trip, no
      // formatting-precision ambiguity in the byte-identity contract.
      os << "path " << std::hex << std::bit_cast<std::uint64_t>(row.fraction)
         << std::dec;
      for (const EdgeId e : row.path.edges) os << " " << e;
      os << "\n";
    }
  }
  return os.str();
}

}  // namespace sor::serve
