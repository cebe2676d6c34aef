#include "telemetry/span.hpp"

#include <atomic>
#include <mutex>
#include <sstream>

#include "telemetry/recorder.hpp"
#include "telemetry/telemetry.hpp"

namespace sor::telemetry {

namespace detail {

struct SpanNode {
  std::string name;
  std::uint64_t count = 0;
  double seconds = 0;
  Sketch* sketch = nullptr;  // registry sketch "<name>_seconds"
  SpanNode* parent = nullptr;
  std::vector<std::unique_ptr<SpanNode>> children;
};

namespace {

struct SpanForest {
  std::mutex mu;
  std::vector<std::unique_ptr<SpanNode>> roots;
};

SpanForest& forest() {
  static SpanForest* f = new SpanForest();  // intentionally leaked, like
  return *f;                                // the metric registry
}

thread_local SpanNode* t_current = nullptr;

// Timeline buffer: individual span invocations, completion order. Kept
// separate from the aggregate forest so the default (timeline off) pays
// nothing but one relaxed atomic load per span exit.
std::atomic<bool> g_timeline_on{false};

struct Timeline {
  std::mutex mu;
  std::vector<TimelineEvent> events;
  std::size_t capacity = 65536;
  std::uint64_t dropped = 0;
};

Timeline& timeline() {
  static Timeline* t = new Timeline();  // leaked, like the forest
  return *t;
}

std::uint32_t timeline_thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

SpanNode* find_or_create(std::vector<std::unique_ptr<SpanNode>>& siblings,
                         SpanNode* parent, const char* name) {
  for (const auto& node : siblings) {
    if (node->name == name) return node.get();
  }
  auto node = std::make_unique<SpanNode>();
  node->name = name;
  node->sketch = &Registry::global().sketch(node->name + "_seconds");
  node->parent = parent;
  siblings.push_back(std::move(node));
  return siblings.back().get();
}

}  // namespace

SpanNode* current_span() { return t_current; }
void set_current_span(SpanNode* node) { t_current = node; }

}  // namespace detail

ScopedSpan::ScopedSpan(const char* name) {
  if (!enabled()) return;
  auto& f = detail::forest();
  std::lock_guard lock(f.mu);
  detail::SpanNode* parent = detail::t_current;
  auto& siblings = parent != nullptr ? parent->children : f.roots;
  node_ = detail::find_or_create(siblings, parent, name);
  saved_ = parent;
  detail::t_current = node_;
  start_ = std::chrono::steady_clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (node_ == nullptr) return;
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  {
    auto& f = detail::forest();
    std::lock_guard lock(f.mu);
    node_->count += 1;
    node_->seconds += elapsed;
    detail::t_current = saved_;
  }
  node_->sketch->observe(elapsed);
  if (detail::g_timeline_on.load(std::memory_order_relaxed)) {
    TimelineEvent event;
    event.name = node_->name;
    event.thread = detail::timeline_thread_index();
    event.start_seconds = monotonic_seconds() - elapsed;
    event.duration_seconds = elapsed;
    auto& t = detail::timeline();
    std::lock_guard lock(t.mu);
    if (t.events.size() < t.capacity) {
      t.events.push_back(std::move(event));
    } else {
      ++t.dropped;
    }
  }
}

bool timeline_enabled() {
  return detail::g_timeline_on.load(std::memory_order_relaxed);
}

void set_timeline_enabled(bool on) {
  detail::g_timeline_on.store(on, std::memory_order_relaxed);
}

void set_timeline_capacity(std::size_t capacity) {
  auto& t = detail::timeline();
  std::lock_guard lock(t.mu);
  t.capacity = capacity;
  if (t.events.size() > capacity) {
    t.dropped += t.events.size() - capacity;
    t.events.resize(capacity);
  }
}

std::vector<TimelineEvent> snapshot_timeline() {
  auto& t = detail::timeline();
  std::lock_guard lock(t.mu);
  return t.events;
}

std::uint64_t timeline_dropped() {
  auto& t = detail::timeline();
  std::lock_guard lock(t.mu);
  return t.dropped;
}

void reset_timeline() {
  auto& t = detail::timeline();
  std::lock_guard lock(t.mu);
  t.events.clear();
  t.dropped = 0;
}

namespace {

SpanSnapshot copy_node(const detail::SpanNode& node) {
  SpanSnapshot s;
  s.name = node.name;
  s.count = node.count;
  s.seconds = node.seconds;
  s.children.reserve(node.children.size());
  for (const auto& child : node.children) {
    s.children.push_back(copy_node(*child));
  }
  return s;
}

void render(const SpanSnapshot& node, int depth, std::ostringstream& os) {
  for (int i = 0; i < depth; ++i) os << "  ";
  os << node.name << ": " << node.seconds * 1e3 << " ms";
  if (node.count != 1) os << " (x" << node.count << ")";
  os << "\n";
  for (const SpanSnapshot& child : node.children) {
    render(child, depth + 1, os);
  }
}

}  // namespace

std::vector<SpanSnapshot> snapshot_spans() {
  auto& f = detail::forest();
  std::lock_guard lock(f.mu);
  std::vector<SpanSnapshot> out;
  out.reserve(f.roots.size());
  for (const auto& root : f.roots) out.push_back(copy_node(*root));
  return out;
}

void reset_spans() {
  auto& f = detail::forest();
  std::lock_guard lock(f.mu);
  f.roots.clear();
  detail::t_current = nullptr;
}

std::string span_tree_text() {
  std::ostringstream os;
  for (const SpanSnapshot& root : snapshot_spans()) render(root, 0, os);
  return os.str();
}

}  // namespace sor::telemetry
