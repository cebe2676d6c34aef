#include "cache/cache.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "cache/binary.hpp"
#include "util/check.hpp"

namespace sor::cache {

namespace fs = std::filesystem;

namespace {

// Disk entry framing: magic + format version + payload size + FNV-1a of
// the payload, then the payload. Any mismatch (wrong magic, wrong
// version, short file, bad checksum) quarantines the entry.
constexpr std::uint32_t kDiskMagic = 0x43524f53u;  // "SORC"
constexpr std::uint32_t kDiskVersion = 1;

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return std::string(buf);
}

std::atomic<int> g_enabled{-1};  // -1 = read SOR_CACHE lazily

}  // namespace

std::string CacheKey::id() const {
  std::ostringstream os;
  os << klass << '-' << graph.num_vertices << 'x' << graph.num_edges << '-'
     << graph.hex() << '-' << hex64(params);
  return os.str();
}

bool ArtifactCache::enabled() {
  int v = g_enabled.load(std::memory_order_relaxed);
  if (v < 0) {
    const char* env = std::getenv("SOR_CACHE");
    v = (env != nullptr &&
         (std::string_view(env) == "off" || std::string_view(env) == "0"))
            ? 0
            : 1;
    g_enabled.store(v, std::memory_order_relaxed);
  }
  return v != 0;
}

void ArtifactCache::set_enabled(bool on) {
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

ArtifactCache::ArtifactCache(Options options) : options_(std::move(options)) {
  if (!options_.directory.empty()) set_directory(options_.directory);
}

ArtifactCache& ArtifactCache::global() {
  static ArtifactCache* cache = [] {
    Options o;
    if (const char* dir = std::getenv("SOR_CACHE_DIR");
        dir != nullptr && *dir != '\0') {
      o.directory = dir;
    }
    return new ArtifactCache(std::move(o));
  }();
  return *cache;
}

std::shared_ptr<const std::string> ArtifactCache::get(const CacheKey& key) {
  if (!enabled()) return nullptr;
  const std::string id = key.id();
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(id);
    if (it != entries_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      ++stats_.hits;
      return it->second.payload;
    }
  }
  if (auto payload = read_disk(key)) {
    std::lock_guard<std::mutex> lock(mu_);
    // Another thread may have populated the entry while we read the file;
    // insert_locked overwrites, keeping the tiers consistent either way.
    insert_locked(id, payload);
    ++stats_.disk_hits;
    return payload;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
  }
  return nullptr;
}

void ArtifactCache::put(const CacheKey& key, std::string payload) {
  if (!enabled()) return;
  auto blob = std::make_shared<const std::string>(std::move(payload));
  const std::string id = key.id();
  {
    std::lock_guard<std::mutex> lock(mu_);
    insert_locked(id, blob);
    ++stats_.puts;
  }
  write_disk(key, *blob);
}

void ArtifactCache::insert_locked(const std::string& id,
                                  std::shared_ptr<const std::string> payload) {
  auto it = entries_.find(id);
  if (it != entries_.end()) {
    bytes_ -= it->second.payload->size();
    lru_.erase(it->second.lru_it);
    entries_.erase(it);
  }
  if (payload->size() > options_.memory_budget_bytes) {
    // Larger than the whole tier: would evict everything and then be the
    // next eviction itself. Skip the memory tier (disk still holds it).
    return;
  }
  lru_.push_front(id);
  entries_.emplace(id, Entry{std::move(payload), lru_.begin()});
  bytes_ += entries_.at(id).payload->size();
  evict_to_budget_locked();
}

void ArtifactCache::evict_to_budget_locked() {
  while (bytes_ > options_.memory_budget_bytes && !lru_.empty()) {
    const std::string& victim = lru_.back();
    auto it = entries_.find(victim);
    bytes_ -= it->second.payload->size();
    entries_.erase(it);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

CacheStats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheStats s = stats_;
  s.bytes = bytes_;
  s.entries = entries_.size();
  return s;
}

void ArtifactCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  entries_.clear();
  bytes_ = 0;
  stats_ = CacheStats{};
}

void ArtifactCache::set_directory(const std::string& dir) {
  if (!dir.empty()) {
    std::error_code ec;
    fs::create_directories(dir, ec);
    SOR_CHECK_MSG(!ec, "cannot create cache directory " << dir << ": "
                                                        << ec.message());
  }
  std::lock_guard<std::mutex> lock(mu_);
  options_.directory = dir;
}

std::string ArtifactCache::directory() const {
  std::lock_guard<std::mutex> lock(mu_);
  return options_.directory;
}

std::shared_ptr<const std::string> ArtifactCache::read_disk(
    const CacheKey& key) {
  std::string dir = directory();
  if (dir.empty()) return nullptr;
  const std::string path = dir + "/" + key.id() + ".sorc";
  std::ifstream in(path, std::ios::binary);
  if (!in) return nullptr;
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof()) {
    quarantine(path);
    return nullptr;
  }
  const std::string raw = std::move(buf).str();
  try {
    BinaryReader r(raw);
    SOR_CHECK_MSG(r.u32() == kDiskMagic, "bad cache entry magic");
    SOR_CHECK_MSG(r.u32() == kDiskVersion, "unsupported cache entry version");
    const std::uint64_t size = r.u64();
    const std::uint64_t checksum = r.u64();
    const std::uint64_t header = 4 + 4 + 8 + 8;
    SOR_CHECK_MSG(raw.size() == header + size, "cache entry size mismatch");
    std::string payload = raw.substr(static_cast<std::size_t>(header));
    SOR_CHECK_MSG(fnv1a64(payload) == checksum, "cache entry checksum mismatch");
    return std::make_shared<const std::string>(std::move(payload));
  } catch (const CheckError&) {
    quarantine(path);
    return nullptr;
  }
}

void ArtifactCache::write_disk(const CacheKey& key, const std::string& payload) {
  std::string dir = directory();
  if (dir.empty()) return;
  const std::string path = dir + "/" + key.id() + ".sorc";
  BinaryWriter w;
  w.u32(kDiskMagic);
  w.u32(kDiskVersion);
  w.u64(payload.size());
  w.u64(fnv1a64(payload));
  // Write to a per-thread-unique temp name, then rename: readers never see
  // a partially written entry, and concurrent writers of the same key
  // race benignly (identical content).
  std::ostringstream tmp_name;
  tmp_name << path << ".tmp." << std::hash<std::thread::id>{}(
      std::this_thread::get_id());
  const std::string tmp = tmp_name.str();
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return;  // unwritable cache dir: degrade to memory-only
    out.write(w.bytes().data(), static_cast<std::streamsize>(w.bytes().size()));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    if (!out.good()) {
      out.close();
      std::error_code ec;
      fs::remove(tmp, ec);
      return;
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) fs::remove(tmp, ec);
}

void ArtifactCache::quarantine(const std::string& path) {
  std::error_code ec;
  fs::rename(path, path + ".corrupt", ec);
  if (ec) fs::remove(path, ec);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.corrupt;
  }
}

}  // namespace sor::cache
