#include "telemetry/telemetry.hpp"

#include <bit>
#include <cstdlib>

namespace sor::telemetry {

namespace {

bool enabled_from_env() {
  const char* env = std::getenv("SOR_TELEMETRY");
  if (env == nullptr) return true;
  const std::string_view v(env);
  return !(v == "off" || v == "0" || v == "false");
}

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{enabled_from_env()};
  return flag;
}

}  // namespace

bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  enabled_flag().store(on, std::memory_order_relaxed);
}

namespace detail {
std::uint64_t to_bits(double v) { return std::bit_cast<std::uint64_t>(v); }
double from_bits(std::uint64_t b) { return std::bit_cast<double>(b); }
}  // namespace detail

Registry& Registry::global() {
  static Registry* registry = new Registry();  // never destroyed: metrics
  return *registry;  // outlive static-destruction-order hazards
}

namespace {

/// Interns `name` in `map`, creating the value on first access.
template <typename Map>
auto& intern(Map& map, std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) it = map.try_emplace(std::string(name)).first;
  return it->second;
}

void bound_window(std::vector<WindowPoint>& window) {
  if (window.size() > Registry::kWindowCapacity) {
    window.erase(window.begin(), window.end() - Registry::kWindowCapacity);
  }
}

}  // namespace

Counter& Registry::counter(std::string_view name) {
  std::lock_guard lock(mu_);
  return *intern(counters_, name).metric;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard lock(mu_);
  return *intern(gauges_, name).metric;
}

Sketch& Registry::sketch(std::string_view name) {
  std::lock_guard lock(mu_);
  auto& sketch = intern(sketches_, name);
  if (sketch == nullptr) sketch = std::make_unique<Sketch>();
  return *sketch;
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::counters() const {
  std::lock_guard lock(mu_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    out.emplace_back(name, c.metric->value());
  }
  return out;
}

std::vector<std::pair<std::string, double>> Registry::gauges() const {
  std::lock_guard lock(mu_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    out.emplace_back(name, g.metric->value());
  }
  return out;
}

std::vector<std::pair<std::string, SketchSnapshot>> Registry::sketches()
    const {
  std::lock_guard lock(mu_);
  std::vector<std::pair<std::string, SketchSnapshot>> out;
  out.reserve(sketches_.size());
  for (const auto& [name, sketch] : sketches_) {
    out.emplace_back(name, sketch->snapshot());
  }
  return out;
}

void Registry::roll_epoch(std::uint64_t epoch) {
  if (!enabled()) return;
  std::lock_guard lock(mu_);
  for (auto& [name, entry] : counters_) {
    Counter& c = *entry.metric;
    const std::uint64_t total = c.value();
    // A reset() since the last roll zeroed the mark too, so total < mark
    // only when a reset races this roll; count from zero then.
    const std::uint64_t mark =
        c.mark_.exchange(total, std::memory_order_relaxed);
    const std::uint64_t delta = total >= mark ? total - mark : total;
    entry.window.push_back({epoch, static_cast<double>(delta)});
    bound_window(entry.window);
  }
  for (auto& [name, entry] : gauges_) {
    entry.window.push_back({epoch, entry.metric->value()});
    bound_window(entry.window);
  }
  ++epochs_rolled_;
}

std::uint64_t Registry::epochs_rolled() const {
  std::lock_guard lock(mu_);
  return epochs_rolled_;
}

namespace {

template <typename Map>
WindowSeries windows_of(const Map& map) {
  WindowSeries out;
  out.reserve(map.size());
  for (const auto& [name, entry] : map) out.emplace_back(name, entry.window);
  return out;
}

}  // namespace

WindowSeries Registry::counter_windows() const {
  std::lock_guard lock(mu_);
  return windows_of(counters_);
}

WindowSeries Registry::gauge_windows() const {
  std::lock_guard lock(mu_);
  return windows_of(gauges_);
}

void Registry::record_breach(const SloBreach& breach) {
  if (!enabled()) return;
  std::lock_guard lock(mu_);
  breaches_.push_back(breach);
}

std::vector<SloBreach> Registry::breaches() const {
  std::lock_guard lock(mu_);
  return breaches_;
}

int Registry::health_status() const {
  std::lock_guard lock(mu_);
  return breaches_.empty() ? 0 : 1;
}

void Registry::reset() {
  std::lock_guard lock(mu_);
  for (auto& [name, entry] : counters_) {
    entry.metric->reset();
    entry.window.clear();
  }
  for (auto& [name, entry] : gauges_) {
    entry.metric->reset();
    entry.window.clear();
  }
  for (auto& [name, sketch] : sketches_) sketch->reset();
  epochs_rolled_ = 0;
  breaches_.clear();
}

}  // namespace sor::telemetry
