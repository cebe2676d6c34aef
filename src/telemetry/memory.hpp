#pragma once

// Process memory figures: sample_memory_usage() reads the kernel's view
// of the process (VmRSS/VmHWM from /proc/self/status, getrusage
// fallback). It is cheap enough to sample at every epoch boundary, and
// meaningful even with telemetry disabled (it reads the kernel, not the
// registry).
//
// The figures surface in the artifact's "memory" block (memory_to_json),
// the Prometheus exporter (sor_memory_rss_bytes), and the run ledger's
// summary metrics. Bytes a span charges to its own working set are a
// sketch, "<span name>_bytes" (telemetry/telemetry.hpp), not a figure
// here: its sum is the run total and its max the largest single charge.

#include <cstdint>

#include "telemetry/json.hpp"

namespace sor::telemetry {

/// Best-effort process memory figures in bytes; fields read 0 when the
/// platform exposes neither /proc/self/status nor getrusage. On every
/// path peak >= current (both come from one read of the same source).
struct MemoryUsage {
  std::uint64_t current_rss_bytes = 0;
  std::uint64_t peak_rss_bytes = 0;
};

MemoryUsage sample_memory_usage();

/// The artifact "memory" block (schema v11): exactly
/// {"current_rss_bytes", "peak_rss_bytes"}, from one sample. Filled even
/// when telemetry is disabled (kernel state, not registry state).
JsonValue memory_to_json();

}  // namespace sor::telemetry
