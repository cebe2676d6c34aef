#include "telemetry/recorder.hpp"

#include <algorithm>
#include <chrono>

#include "telemetry/telemetry.hpp"

namespace sor::telemetry {

namespace {
// Anchored at static initialization, close enough to process start that
// recorder timestamps read as "seconds into the run".
const std::chrono::steady_clock::time_point g_epoch =
    std::chrono::steady_clock::now();
}  // namespace

double monotonic_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       g_epoch)
      .count();
}

Recorder& Recorder::global() {
  static Recorder* recorder = new Recorder();  // leaked like the registry:
  return *recorder;  // instrumented call sites may fire during static exit
}

Recorder::Recorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void Recorder::record(
    std::string_view category,
    std::initializer_list<std::pair<std::string_view, JsonValue>> fields) {
  if (!enabled()) return;
  RecorderEvent event;
  event.category = std::string(category);
  event.fields.reserve(fields.size());
  for (const auto& [key, value] : fields) {
    event.fields.emplace_back(std::string(key), value);
  }
  std::lock_guard lock(mu_);
  // Timestamped under the lock so buffer order and timestamp order agree
  // (the artifact checker requires non-decreasing "t").
  event.seconds = monotonic_seconds();
  if (events_.size() < capacity_) {
    events_.push_back(std::move(event));
  } else {
    events_[head_] = std::move(event);
    head_ = (head_ + 1) % capacity_;
    // Overflow is not silent: dropped() reaches the artifact health
    // block and every EpochHealth.
    ++dropped_;
  }
  ++recorded_;
}

std::vector<RecorderEvent> Recorder::snapshot() const {
  std::lock_guard lock(mu_);
  std::vector<RecorderEvent> out;
  out.reserve(events_.size());
  for (std::size_t i = 0; i < events_.size(); ++i) {
    out.push_back(events_[(head_ + i) % events_.size()]);
  }
  return out;
}

void Recorder::clear() {
  std::lock_guard lock(mu_);
  events_.clear();
  head_ = 0;
  recorded_ = 0;
  dropped_ = 0;
}

void Recorder::set_capacity(std::size_t capacity) {
  std::lock_guard lock(mu_);
  const std::size_t cap = capacity == 0 ? 1 : capacity;
  // Linearize the ring (head back to 0) so a later grow can append again,
  // evicting the oldest events if the new capacity is smaller.
  const std::size_t keep = std::min(events_.size(), cap);
  const std::size_t drop = events_.size() - keep;
  std::vector<RecorderEvent> kept;
  kept.reserve(keep);
  for (std::size_t i = drop; i < events_.size(); ++i) {
    kept.push_back(std::move(events_[(head_ + i) % events_.size()]));
  }
  dropped_ += drop;
  events_ = std::move(kept);
  head_ = 0;
  capacity_ = cap;
}

std::size_t Recorder::capacity() const {
  std::lock_guard lock(mu_);
  return capacity_;
}

std::uint64_t Recorder::recorded() const {
  std::lock_guard lock(mu_);
  return recorded_;
}

std::uint64_t Recorder::dropped() const {
  std::lock_guard lock(mu_);
  return dropped_;
}

}  // namespace sor::telemetry
