#pragma once

// Flight recorder: a bounded, thread-safe ring buffer of structured
// events (monotonic timestamp + category + key→value payload).
//
// Where the metric registry answers "how often / how much" and the span
// tree answers "where did the time go", the recorder answers "what
// happened, in order": the control loop records every repair activation,
// stranded-pair fallback, warm-start accept/reject, and prediction error
// per epoch, and a bad run can be explained from the event stream alone.
//
// The buffer is bounded: when full, the oldest events are evicted and
// counted (`dropped`), so a long run keeps the most recent window rather
// than growing without bound. Recording is behind the same SOR_TELEMETRY
// kill switch as the rest of the library — when disabled, record() is a
// single relaxed atomic-bool load.
//
// Event shape (serialized by telemetry/export.hpp recorder_to_json):
//   {"t": 12.345, "category": "engine/warm",
//    "fields": {"epoch": 7, "accepted": true, "gap": 0.013}}
// Categories follow the metric naming scheme: "<subsystem>/<event>".

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/json.hpp"

namespace sor::telemetry {

/// One recorded event. `seconds` is monotonic time since process start
/// (the shared base of monotonic_seconds()), so recorder events and
/// timeline spans line up on one axis.
struct RecorderEvent {
  double seconds = 0;
  std::string category;
  std::vector<std::pair<std::string, JsonValue>> fields;
};

/// Monotonic seconds since process start — the shared time base for the
/// flight recorder and the span timeline.
double monotonic_seconds();

/// `t` on the monotonic_seconds() base: a stamp taken earlier converts
/// without a second clock read.
double monotonic_seconds(std::chrono::steady_clock::time_point t);

class Recorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  /// The process-wide recorder instrumented call sites write to.
  static Recorder& global();

  explicit Recorder(std::size_t capacity = kDefaultCapacity);

  /// Appends one event (timestamped now). No-op when telemetry is
  /// disabled. Evicts the oldest event when the buffer is full.
  void record(
      std::string_view category,
      std::initializer_list<std::pair<std::string_view, JsonValue>> fields);

  /// Copies the buffered events, oldest first.
  std::vector<RecorderEvent> snapshot() const;

  /// Drops all buffered events and zeroes the counters (capacity kept).
  /// For bench/test isolation between runs.
  void clear();

  /// Changing the capacity evicts oldest events as needed; capacity 0 is
  /// clamped to 1.
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const;

  /// Total events accepted by record() since the last clear().
  std::uint64_t recorded() const;
  /// Events evicted by the ring bound since the last clear().
  std::uint64_t dropped() const;

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  /// Ring storage, oldest at head_. Fixed-size once warm, so record() in
  /// the steady state allocates only the event's own strings.
  std::vector<RecorderEvent> events_;
  std::size_t head_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace sor::telemetry
