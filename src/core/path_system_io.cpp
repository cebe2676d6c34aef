#include "core/path_system_io.hpp"

#include "cache/binary.hpp"
#include "graph/fingerprint.hpp"

namespace sor {

std::string serialize_path_system(const PathSystem& system) {
  cache::BinaryWriter w;
  w.u64(system.num_pairs());
  for (const VertexPair& pair : system.pairs()) {
    w.u32(pair.a);
    w.u32(pair.b);
    w.u64(system.ids(pair.a, pair.b).size());
    for (const PathView p : system.paths(pair.a, pair.b)) {
      w.u32(p.src);
      w.u32(p.dst);
      w.u32_vec({p.edges.begin(), p.edges.end()});
    }
  }
  return w.take();
}

PathSystem deserialize_path_system(std::string_view payload) {
  cache::BinaryReader r(payload);
  PathSystem system;
  const std::uint64_t num_pairs = r.u64();
  for (std::uint64_t i = 0; i < num_pairs; ++i) {
    r.u32();  // pair.a — implied by the paths, kept for readability
    r.u32();  // pair.b
    const std::uint64_t num_paths = r.u64();
    for (std::uint64_t j = 0; j < num_paths; ++j) {
      Path p;
      p.src = r.u32();
      p.dst = r.u32();
      p.edges = r.u32_vec();
      // Paths were serialized in canonical orientation, so add() keeps
      // them verbatim and per-pair insertion order survives the trip.
      system.add(std::move(p));
    }
  }
  r.expect_done();
  return system;
}

std::uint64_t digest_pairs(std::span<const VertexPair> pairs) {
  std::uint64_t h = mix_hash(0x50414952u /* "PAIR" */,
                             static_cast<std::uint64_t>(pairs.size()));
  for (const VertexPair& pair : pairs) {
    h = mix_hash(h, (static_cast<std::uint64_t>(pair.a) << 32) |
                        static_cast<std::uint64_t>(pair.b));
  }
  return h;
}

}  // namespace sor
