#pragma once

// RAII scoped spans building a hierarchical timing tree.
//
//   void solve() {
//     SOR_SPAN("mwu/solve");
//     { SOR_SPAN("mwu/phase"); ... }   // nested: mwu/solve -> mwu/phase
//   }
//
// Repeated spans with the same name under the same parent aggregate into
// one node (invocation count + total seconds), so tight phase loops stay
// O(1) memory. Spans are the one timer: each invocation's seconds also
// land in the registry sketch "<name>_seconds" (looked up once, when the
// node is created), so a span gives the tree, the call count, the total
// time, and the latency quantiles at once. Same-name spans under
// different parents share that sketch.
//
// The current position in the tree is thread-local; sor::parallel_for
// propagates it into pool workers, so spans opened inside parallel
// bodies nest under the span active at the call site.
// Sections timed concurrently by several workers therefore accumulate
// *aggregate* (CPU-like) seconds, which can exceed wall clock — the
// parent span holds the wall-clock figure.
//
// Span tree mutation takes a global mutex at span entry/exit only; spans
// are meant for coarse stages (solver phases, build steps), not per-edge
// work. When telemetry is disabled (SOR_TELEMETRY=off), constructing a
// ScopedSpan is a single atomic-bool load.

#include <cstdint>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

namespace sor::telemetry {

/// Immutable copy of one aggregated span node.
struct SpanSnapshot {
  std::string name;
  std::uint64_t count = 0;  // completed invocations
  double seconds = 0;       // total time across invocations
  std::vector<SpanSnapshot> children;
};

namespace detail {
struct SpanNode;

/// Thread-local cursor into the span tree (null = top level). Exposed so
/// parallel_for can propagate the submitting thread's cursor into pool
/// workers; not meant for direct use elsewhere.
SpanNode* current_span();
void set_current_span(SpanNode* node);
}  // namespace detail

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  detail::SpanNode* node_ = nullptr;  // null when telemetry is disabled
  detail::SpanNode* saved_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

/// Copies the completed span forest (top-level spans in first-seen order).
/// In-flight spans appear with the time accumulated by their finished
/// invocations only.
std::vector<SpanSnapshot> snapshot_spans();

/// Clears the span forest. Must not be called while spans are open (the
/// thread-local cursors would dangle); intended for bench/test isolation
/// between top-level operations.
void reset_spans();

/// Indented one-line-per-node rendering (for --trace style dumps).
std::string span_tree_text();

// --- Timeline mode -------------------------------------------------------
//
// The span tree aggregates (count + total seconds); the timeline keeps the
// individual invocations: every completed span appends one timestamped
// event to a bounded buffer, which telemetry/export.hpp turns into a
// Chrome trace-event document (chrome://tracing / Perfetto). Off by
// default — it costs one buffer append per span exit and memory per
// invocation — and gated on the same SOR_TELEMETRY kill switch (a span
// that was never opened cannot be timed). Enable via set_timeline_enabled
// (sor_cli does so for --trace-out) before the work to be traced.

/// One completed span invocation on the shared monotonic_seconds() base.
struct TimelineEvent {
  std::string name;
  std::uint32_t thread = 0;  // dense per-process thread index
  double start_seconds = 0;
  double duration_seconds = 0;
};

bool timeline_enabled();
void set_timeline_enabled(bool on);

/// Bounds the timeline buffer; once full, further events are dropped (and
/// counted) rather than evicting earlier ones — the head of a trace is
/// what explains the tail. Default 65536 events.
void set_timeline_capacity(std::size_t capacity);

/// Copies the buffered events in completion order.
std::vector<TimelineEvent> snapshot_timeline();
/// Events rejected because the buffer was full.
std::uint64_t timeline_dropped();
void reset_timeline();

}  // namespace sor::telemetry

#define SOR_SPAN_CONCAT_INNER(a, b) a##b
#define SOR_SPAN_CONCAT(a, b) SOR_SPAN_CONCAT_INNER(a, b)
#define SOR_SPAN(name) \
  ::sor::telemetry::ScopedSpan SOR_SPAN_CONCAT(sor_span_, __LINE__)(name)
