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

/// Interns `name` in `map`, creating the metric on first access.
template <typename Metric>
Metric& intern(std::map<std::string, std::unique_ptr<Metric>, std::less<>>& map,
               std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), std::make_unique<Metric>()).first;
  }
  return *it->second;
}

}  // namespace

Counter& Registry::counter(std::string_view name) {
  std::lock_guard lock(mu_);
  return intern(counters_, name);
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard lock(mu_);
  return intern(gauges_, name);
}

Sketch& Registry::sketch(std::string_view name) {
  std::lock_guard lock(mu_);
  return intern(sketches_, name);
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::counters() const {
  std::lock_guard lock(mu_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    out.emplace_back(name, c->value());
  }
  return out;
}

std::vector<std::pair<std::string, double>> Registry::gauges() const {
  std::lock_guard lock(mu_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    out.emplace_back(name, g->value());
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
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, sketch] : sketches_) sketch->reset();
  breaches_.clear();
}

}  // namespace sor::telemetry
