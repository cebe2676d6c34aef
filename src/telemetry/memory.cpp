#include "telemetry/memory.hpp"

#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace sor::telemetry {

namespace {

/// Parses "VmRSS:    1234 kB" style lines. Returns 0 when the key is
/// absent or malformed.
std::uint64_t parse_status_kb(const char* line, const char* key) {
  const std::size_t key_len = std::strlen(key);
  if (std::strncmp(line, key, key_len) != 0) return 0;
  const char* p = line + key_len;
  while (*p == ' ' || *p == '\t') ++p;
  std::uint64_t kb = 0;
  bool any = false;
  while (*p >= '0' && *p <= '9') {
    kb = kb * 10 + static_cast<std::uint64_t>(*p - '0');
    ++p;
    any = true;
  }
  return any ? kb : 0;
}

}  // namespace

MemoryUsage sample_memory_usage() {
  MemoryUsage usage;
  // Primary source: /proc/self/status gives both the current RSS and the
  // kernel-tracked high-water mark, from one read (so peak >= current).
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (const std::uint64_t kb = parse_status_kb(line, "VmRSS:")) {
        usage.current_rss_bytes = kb * 1024;
      } else if (const std::uint64_t hwm = parse_status_kb(line, "VmHWM:")) {
        usage.peak_rss_bytes = hwm * 1024;
      }
    }
    std::fclose(f);
  }
#if defined(__unix__) || defined(__APPLE__)
  if (usage.peak_rss_bytes == 0) {
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) == 0 && ru.ru_maxrss > 0) {
      // Linux reports ru_maxrss in kilobytes, macOS in bytes.
#if defined(__APPLE__)
      usage.peak_rss_bytes = static_cast<std::uint64_t>(ru.ru_maxrss);
#else
      usage.peak_rss_bytes = static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
#endif
    }
  }
#endif
  if (usage.peak_rss_bytes < usage.current_rss_bytes) {
    usage.peak_rss_bytes = usage.current_rss_bytes;
  }
  return usage;
}

JsonValue memory_to_json() {
  const MemoryUsage usage = sample_memory_usage();
  JsonValue doc = JsonValue::object();
  doc.set("current_rss_bytes", usage.current_rss_bytes);
  doc.set("peak_rss_bytes", usage.peak_rss_bytes);
  return doc;
}

}  // namespace sor::telemetry
