#include "core/special.hpp"

#include <algorithm>
#include <cmath>
#include <map>

namespace sor {

namespace {

double pair_ratio(const Commodity& c, const PathSystem& system) {
  const std::size_t paths = system.ids(c.src, c.dst).size();
  SOR_CHECK_MSG(paths > 0, "demanded pair has no candidate paths");
  return c.amount / static_cast<double>(paths);
}

}  // namespace

bool is_special_demand(const Demand& demand, const PathSystem& system,
                       double tolerance) {
  double q = -1;
  for (const Commodity& c : demand.commodities()) {
    const double ratio = pair_ratio(c, system);
    if (q < 0) {
      q = ratio;
    } else if (std::abs(ratio - q) > tolerance * std::max(1.0, q)) {
      return false;
    }
  }
  return true;
}

std::vector<SpecialBucket> split_into_special(const Demand& demand,
                                              const PathSystem& system) {
  // Bucket index = floor(log2(ratio)); ceiling ratio = 2^(index+1).
  std::map<int, SpecialBucket> buckets;
  for (const Commodity& c : demand.commodities()) {
    const double ratio = pair_ratio(c, system);
    const int index = static_cast<int>(std::floor(std::log2(ratio)));
    const double ceiling = std::ldexp(1.0, index + 1);
    SpecialBucket& bucket = buckets[index];
    bucket.ratio = ceiling;
    // Round the pair's demand UP to ceiling · |P(s,t)| (≤ 2× the original
    // entry since ratio ∈ (ceiling/2, ceiling]).
    bucket.demand.add(
        c.src, c.dst,
        ceiling * static_cast<double>(system.ids(c.src, c.dst).size()));
  }
  std::vector<SpecialBucket> out;
  out.reserve(buckets.size());
  for (auto& [index, bucket] : buckets) {
    SOR_DCHECK(is_special_demand(bucket.demand, system));
    out.push_back(std::move(bucket));
  }
  return out;
}

}  // namespace sor
