#pragma once

// Cache (de)serialization of sampled path systems.
//
// The payload preserves exactly what a rebuild would produce: pairs in
// sorted order (PathSystem::pairs() is deterministic), and within each
// pair the canonical paths in insertion order with multiplicities —
// the weak-routing process and the restricted LP both take a pair's
// candidates in that order, so the order is part of the artifact's
// identity.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "core/path_system.hpp"

namespace sor {

std::string serialize_path_system(const PathSystem& system);
PathSystem deserialize_path_system(std::string_view payload);

/// Order-sensitive digest of a pair list — part of the path-system cache
/// key (the sampler assigns RNG streams by pair index, so permuted pair
/// lists are distinct artifacts).
std::uint64_t digest_pairs(std::span<const VertexPair> pairs);

}  // namespace sor
