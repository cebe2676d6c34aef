#include "telemetry/telemetry.hpp"

#include <atomic>
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

Registry& Registry::global() {
  static Registry* registry = new Registry();  // never destroyed: metrics
  return *registry;  // outlive static-destruction-order hazards
}

Sketch& Registry::sketch(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = sketches_.find(name);
  if (it == sketches_.end()) {
    it = sketches_.emplace(std::string(name), std::make_unique<Sketch>()).first;
  }
  return *it->second;
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
  for (auto& [name, sketch] : sketches_) sketch->reset();
  breaches_.clear();
}

}  // namespace sor::telemetry
