// sor_perfbench — the repository benchmark driver.
//
//   sor_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Every workload is one TE deployment driven only through public entry
// points. Set-up builds the topology, samples the path system
// (engine::build_path_system, cold artifact cache) and generates the event
// traces (engine::generate_trace). Then a closed control loop
// (engine::run_control_loop) publishes one RouteSnapshot per epoch into a
// serve::RouteService, while reader threads call lookup() and an open-loop
// writer calls enqueue_update(). The workloads differ in topology, audit
// cadence and load, so a different layer dominates each (see README.md).
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the same seed
// untraced, then traced, and prints the per-layer metrics. The last stdout
// line is {"correct", "attempted", "failed", "metrics"}; the line before it
// is the full report with provenance. Exit status: 0 when every check
// passes, 1 when one fails, 2 on bad arguments, 3 on a sanitizer build.

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <stop_token>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "demand/generators.hpp"
#include "engine/controller.hpp"
#include "engine/event_trace.hpp"
#include "engine/replay.hpp"
#include "graph/generators.hpp"
#include "serve/loadgen.hpp"
#include "serve/service.hpp"
#include "telemetry/buildinfo.hpp"
#include "telemetry/json.hpp"
#include "telemetry/memory.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using sor::telemetry::JsonValue;

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  /// Label echoed in the replay digest's config block.
  const char* topology;
  sor::Graph (*make_graph)();
  /// Shadow-optimal audit cadence (0 = no audit).
  std::size_t shadow_every;
  std::size_t readers;
  double writer_hz;
};

const Workload kWorkloads[] = {
    {"epoch-solve", "torus:12x12", [] { return sor::make_torus(12, 12); },
     0, 1, 50},
    {"epoch-audit", "wan:geant", [] { return sor::make_geant().graph; }, 1,
     1, 50},
    {"serve-churn", "torus:10x10", [] { return sor::make_torus(10, 10); }, 0,
     2, 500},
};

/// Demand each update adds. Updates travel the whole ingestion path
/// (enqueue, drain, fold into the realized matrix) but add nothing, so each
/// realized matrix stays a function of the seed alone: epoch work does not
/// depend on how many updates the machine's speed lets into each epoch, and
/// the replay digests of two runs must match.
constexpr double kUpdateAmount = 0;

/// Independent draws from the seed, each with its own sampled path system
/// and event trace, so that a run's figures average over several inputs.
/// One pass of the control loop per draw makes a cycle: 8 x 16 epochs,
/// more than the ten beyond p90 that the epoch quantiles need.
constexpr std::size_t kDraws = 8;
constexpr std::size_t kTraceEpochs = 16;
/// Every run repeats its cycle at least once, so that the best-of-repeats
/// figures below always have a repeat to choose from.
constexpr std::size_t kMinCycles = 2;
/// Link failures and demand drifts in every trace: the most common counts
/// of a 16-epoch trace with the default rates. Fixing them keeps the amount
/// of disruption a run faces from varying with the seed, while the seed
/// still picks which links fail, for how long, and when.
constexpr std::size_t kTraceFailures = 2;
constexpr std::size_t kTraceDrifts = 3;
/// Set-up runs once per draw, then repeats (discarding the result) until it
/// has taken kSetupMinSeconds, so the median of a fast set-up is steady.
constexpr std::size_t kSetupMaxReps = 200;
constexpr double kSetupMinSeconds = 1.0;
/// Readers file their timings in one-second windows.
constexpr double kWindowSeconds = 1.0;
constexpr std::size_t kMaxWindows = 512;
/// Single-lookup latencies are kept as counts per whole nanosecond; the
/// last bucket holds everything slower.
constexpr std::size_t kLatencyBuckets = 4096;
constexpr std::size_t kQueriesPerReader = 1 << 16;
constexpr int kBatch = 1024;
/// Individually timed lookups after each batch (1 in 129 lookups).
constexpr int kSampledPerBatch = 8;
constexpr double kFractionTolerance = 1e-6;

// ---------------------------------------------------------------------------
// Small statistics helpers

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linearly interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Harrell-Davis quantile: a weighted mean of all order statistics, with
/// the weights of the Beta(q(n+1), (1-q)(n+1)) distribution. Unlike a
/// single order statistic it moves smoothly when the sample has a gap near
/// the quantile, as epoch times do between kinds of epoch.
double harrell_davis(std::vector<double> v, double q) {
  if (v.size() < 2) return quantile(std::move(v), q);
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const double a = q * (n + 1);
  const double b = (1 - q) * (n + 1);
  const double log_norm =
      std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b);
  const auto density = [&](double x) {
    return std::exp(log_norm + (a - 1) * std::log(x) +
                    (b - 1) * std::log1p(-x));
  };
  // Order statistic i weighs the Beta mass on [i/n, (i+1)/n], integrated by
  // the midpoint rule.
  constexpr double kSteps = 64;
  double estimate = 0;
  double weight_sum = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    double weight = 0;
    for (double k = 0.5; k < kSteps; ++k) {
      weight += density((static_cast<double>(i) + k / kSteps) / n);
    }
    estimate += weight * v[i];
    weight_sum += weight;
  }
  return estimate / weight_sum;
}

/// Quantile of whole-nanosecond counts, reading each value v as spread
/// evenly over [v - 0.5, v + 0.5), so that ties do not pin the result to
/// one tick.
double latency_quantile(const std::vector<std::uint64_t>& counts, double q) {
  std::uint64_t total = 0;
  for (const std::uint64_t n : counts) total += n;
  const double rank = q * static_cast<double>(total);
  double below = 0;
  for (std::size_t v = 0; v < counts.size(); ++v) {
    const auto n = static_cast<double>(counts[v]);
    if (below + n > rank) {
      return static_cast<double>(v) - 0.5 + (rank - below) / n;
    }
    below += n;
  }
  return static_cast<double>(counts.size());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return ratio(sum, static_cast<double>(v.size()));
}

// ---------------------------------------------------------------------------
// Set-up

struct Deployment {
  sor::Graph graph;
  sor::engine::EngineRunConfig config;
  sor::PathSystem system;
  sor::engine::EventTrace trace;
  /// Seed of the trace, and of the control loop that runs it.
  std::uint64_t pass_seed = 0;
  double setup_s = 0;
  /// Artifact-cache hits during set-up (memory and disk tier).
  std::uint64_t cache_hits = 0;
};

std::unique_ptr<Deployment> set_up(const Workload& w, std::uint64_t seed) {
  sor::cache::ArtifactCache& cache = sor::cache::ArtifactCache::global();
  cache.clear();
  const Clock::time_point start = Clock::now();
  auto d = std::make_unique<Deployment>(Deployment{w.make_graph()});
  d->config.topology = w.topology;
  d->config.source = "racke";
  d->config.k = 4;
  d->config.seed = seed;
  d->config.engine.quality.shadow_every = w.shadow_every;
  d->config.trace.num_epochs = kTraceEpochs;
  {
    sor::telemetry::ScopedSpan span("bench/build_path_system");
    d->system = sor::engine::build_path_system(d->graph, d->config);
  }
  {
    sor::telemetry::ScopedSpan span("bench/generate_trace");
    std::uint64_t state = seed;
    for (bool found = false; !found;) {
      d->pass_seed = sor::splitmix64(state);
      d->trace = sor::engine::generate_trace(d->graph, d->config.trace,
                                             d->pass_seed);
      std::size_t failures = 0;
      std::size_t drifts = 0;
      for (const sor::engine::Event& e : d->trace.events) {
        failures += e.kind == sor::engine::EventKind::kLinkFailure ? 1 : 0;
        drifts += e.kind == sor::engine::EventKind::kDemandDrift ? 1 : 0;
      }
      found = failures == kTraceFailures && drifts == kTraceDrifts;
    }
  }
  d->setup_s = std::chrono::duration<double>(Clock::now() - start).count();
  const sor::cache::CacheStats stats = cache.stats();
  d->cache_hits = stats.hits + stats.disk_hits;
  cache.clear();
  return d;
}

using Draws = std::vector<std::unique_ptr<Deployment>>;

struct SetUp {
  Draws draws;
  std::vector<double> times_s;
  std::uint64_t cache_hits = 0;
};

SetUp set_up_draws(const Workload& w, std::uint64_t seed) {
  SetUp out;
  std::uint64_t state = seed;
  std::vector<std::uint64_t> draw_seeds;
  for (std::size_t i = 0; i < kDraws; ++i) {
    draw_seeds.push_back(sor::splitmix64(state));
  }
  double total_s = 0;
  while (out.times_s.size() < kSetupMaxReps &&
         (out.draws.size() < kDraws || total_s < kSetupMinSeconds)) {
    std::unique_ptr<Deployment> d =
        set_up(w, draw_seeds[out.times_s.size() % kDraws]);
    out.times_s.push_back(d->setup_s);
    total_s += d->setup_s;
    out.cache_hits += d->cache_hits;
    if (out.draws.size() < kDraws) out.draws.push_back(std::move(d));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Readers and writer

/// Pins the calling thread to one CPU for its lifetime and restores the
/// previous mask on destruction. The control thread, each reader and the
/// writer get a CPU of their own, so runs do not differ in how the
/// scheduler happens to place them.
class CpuPin {
 public:
  explicit CpuPin(std::size_t cpu) {
    pthread_getaffinity_np(pthread_self(), sizeof saved_, &saved_);
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pthread_setaffinity_np(pthread_self(), sizeof one, &one);
  }
  ~CpuPin() { pthread_setaffinity_np(pthread_self(), sizeof saved_, &saved_); }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_;
};

/// Whether the load's threads (control, readers, writer) each fit on a CPU.
bool pin_threads(const Workload& w) {
  return std::thread::hardware_concurrency() >= w.readers + 2;
}

struct Query {
  sor::Vertex src;
  sor::Vertex dst;
};

/// One reader's timings over one window.
struct ReaderWindow {
  std::uint64_t batch_lookups = 0;
  double batch_ns = 0;
  /// Single-lookup latencies: counts per whole nanosecond.
  std::vector<std::uint64_t> latency_ns;
};

struct alignas(64) ReaderStats {
  /// A batch is filed under the window it started in.
  std::vector<ReaderWindow> windows = std::vector<ReaderWindow>(kMaxWindows);
  std::uint64_t lookups = 0;
  /// Misses on installed pairs and fraction sums != 1.
  std::uint64_t failures = 0;
  /// Answers whose result epoch is not their snapshot's epoch.
  std::uint64_t torn = 0;
  /// Every (epoch, digest) this reader was answered from.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> observed;
  std::string error;
};

/// Closed loop: timed batches of lookups, then a few lookups timed one by
/// one. Answers are checked as a client would read them.
void run_reader(std::stop_token stop,
                const sor::serve::RouteService& service,
                Clock::time_point origin, const std::vector<Query>& queries,
                ReaderStats& me) {
  try {
    while (service.publishes() == 0 && !stop.stop_requested()) {
      std::this_thread::yield();
    }
    const sor::serve::RouteSnapshot* last = nullptr;
    std::size_t next = 0;
    const auto check = [&](const sor::serve::RouteService::Answer& answer) {
      ++me.lookups;
      const sor::serve::LookupResult& r = answer.result;
      if (!r.found ||
          std::abs(r.fraction_sum() - 1.0) > kFractionTolerance) {
        ++me.failures;
        return;
      }
      const sor::serve::RouteSnapshot* snap = answer.snapshot.get();
      if (r.epoch != snap->epoch()) ++me.torn;
      if (me.observed.empty() || snap != last ||
          me.observed.back().first != snap->epoch() ||
          me.observed.back().second != snap->digest()) {
        last = snap;
        me.observed.emplace_back(snap->epoch(), snap->digest());
      }
    };
    while (!stop.stop_requested()) {
      ReaderWindow scratch;
      const auto w = static_cast<std::size_t>(
          std::chrono::duration<double>(Clock::now() - origin).count() /
          kWindowSeconds);
      ReaderWindow& window = w < kMaxWindows ? me.windows[w] : scratch;
      if (window.latency_ns.empty()) window.latency_ns.resize(kLatencyBuckets);
      const Clock::time_point t0 = Clock::now();
      for (int i = 0; i < kBatch; ++i) {
        const Query& q = queries[next++ % queries.size()];
        check(service.lookup(q.src, q.dst));
      }
      window.batch_ns += std::chrono::duration<double, std::nano>(
                             Clock::now() - t0).count();
      window.batch_lookups += kBatch;
      for (int i = 0; i < kSampledPerBatch; ++i) {
        const Query& q = queries[next++ % queries.size()];
        const Clock::time_point a = Clock::now();
        const sor::serve::RouteService::Answer answer =
            service.lookup(q.src, q.dst);
        const Clock::time_point b = Clock::now();
        const auto ns = static_cast<std::size_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
                .count());
        ++window.latency_ns[std::min(ns, kLatencyBuckets - 1)];
        check(answer);
      }
    }
  } catch (const std::exception& e) {
    me.error = e.what();
  }
}

struct WriterStats {
  std::vector<double> enqueue_us;
  double lag_ms_max = 0;
  std::string error;
};

Clock::duration as_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// Open loop: update i is due at origin + i·period whatever the service
/// does; lag is how late the generator sent it.
void run_writer(std::stop_token stop, sor::serve::RouteService& service,
                const std::vector<sor::serve::DemandUpdate>& updates,
                Clock::time_point origin, double period_s, WriterStats& me) {
  try {
    for (std::size_t i = 0; i < updates.size() && !stop.stop_requested();
         ++i) {
      const Clock::time_point due =
          origin + as_duration(static_cast<double>(i) * period_s);
      std::this_thread::sleep_until(due);
      const Clock::time_point sent = Clock::now();
      service.enqueue_update(updates[i]);
      me.enqueue_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - sent)
              .count());
      me.lag_ms_max = std::max(me.lag_ms_max, ms_between(due, sent));
    }
  } catch (const std::exception& e) {
    me.error = e.what();
  }
}

// ---------------------------------------------------------------------------
// One measured load: passes of the control loop beside readers and writer

// Load from elsewhere on a shared machine slows whole stretches of a run,
// by 10-20% for tens of seconds. So a run repeats its work, in cycles and
// in one-second windows, and reports the best repeat: the fastest window,
// the quickest cycle. That is the speed of the code with the interference
// filtered out, which is what a comparison of two commits needs.

/// Timings of one cycle. Cycles repeat the same passes, so the epochs at
/// one position of every cycle did the same work.
struct CycleFigures {
  std::vector<double> epoch_ms;
  std::vector<double> freshness_ms;
};

/// The lowest of figure(0), ..., figure(n - 1); 0 when n is 0.
template <typename F>
double lowest(std::size_t n, F figure) {
  double best = 0;
  for (std::size_t i = 0; i < n; ++i) {
    best = i == 0 ? figure(i) : std::min(best, figure(i));
  }
  return best;
}

/// The highest of figure(0), ..., figure(n - 1); 0 when n is 0.
template <typename F>
double highest(std::size_t n, F figure) {
  return -lowest(n, [&](std::size_t i) { return -figure(i); });
}

struct LoadResult {
  std::size_t passes = 0;
  std::vector<CycleFigures> cycles;
  /// From the first cycle.
  std::vector<double> congestion;
  std::vector<double> regret;
  std::vector<std::string> digests;
  std::size_t epochs = 0;
  /// Epochs violating 0 < lower_bound <= solver congestion.
  std::size_t bound_violations = 0;
  std::size_t truncated = 0;
  /// Solver congestion above (1 + epsilon) times the certified bound.
  std::size_t uncertified = 0;
  /// Epochs after which the service did not hold that epoch's table.
  std::size_t publish_mismatches = 0;
  std::size_t warm_attempts = 0;
  std::size_t warm_accepts = 0;
  std::size_t phases = 0;
  double solve_ms_phased = 0;

  std::vector<ReaderStats> readers;
  std::uint64_t torn = 0;
  std::vector<double> publish_interval_ms;
  WriterStats writer;
  std::uint64_t enqueued = 0;
  std::uint64_t drained = 0;
  std::uint64_t publishes = 0;

  std::uint64_t lookups() const {
    std::uint64_t n = 0;
    for (const ReaderStats& r : readers) n += r.lookups;
    return n;
  }
  std::uint64_t lookup_failures() const {
    std::uint64_t n = torn;
    for (const ReaderStats& r : readers) n += r.failures + r.torn;
    return n;
  }
  std::size_t failed_epochs() const {
    return bound_violations + truncated + uncertified + publish_mismatches;
  }
  /// Quantile over the positions of a cycle of each position's quickest
  /// epoch across cycles.
  double epoch_ms_quantile(double q) const {
    std::vector<double> per_position;
    for (std::size_t i = 0; i < cycles.front().epoch_ms.size(); ++i) {
      per_position.push_back(lowest(cycles.size(), [&](std::size_t c) {
        return cycles[c].epoch_ms[i];
      }));
    }
    return harrell_davis(std::move(per_position), q);
  }
  /// The lowest over cycles of each cycle's quantile.
  double freshness_ms_quantile(double q) const {
    return lowest(cycles.size(), [&](std::size_t c) {
      return quantile(cycles[c].freshness_ms, q);
    });
  }
  double epoch_ms_total() const {
    double total = 0;
    for (const CycleFigures& c : cycles) {
      for (const double ms : c.epoch_ms) total += ms;
    }
    return total;
  }
  /// Windows in which every reader timed batches for at least half the
  /// window, so that no window's figure rests on a few batches.
  std::vector<std::size_t> full_windows() const {
    std::vector<std::size_t> full;
    for (std::size_t w = 0; w < kMaxWindows; ++w) {
      bool all = true;
      for (const ReaderStats& r : readers) {
        all = all && r.windows[w].batch_ns >= 0.5e9 * kWindowSeconds;
      }
      if (all) full.push_back(w);
    }
    return full;
  }
  /// All readers together, timed over unsampled batches; the fastest
  /// window.
  double lookups_per_s() const {
    const std::vector<std::size_t> full = full_windows();
    return highest(full.size(), [&](std::size_t i) {
      double sum = 0;
      for (const ReaderStats& r : readers) {
        const ReaderWindow& w = r.windows[full[i]];
        sum += ratio(static_cast<double>(w.batch_lookups), w.batch_ns * 1e-9);
      }
      return sum;
    });
  }
  /// Quantile of the single-lookup latencies of all readers in a window;
  /// the lowest over windows.
  double lookup_us_quantile(double q) const {
    const std::vector<std::size_t> full = full_windows();
    return lowest(full.size(), [&](std::size_t i) {
      std::vector<std::uint64_t> counts(kLatencyBuckets);
      for (const ReaderStats& r : readers) {
        const std::vector<std::uint64_t>& c = r.windows[full[i]].latency_ns;
        for (std::size_t v = 0; v < c.size(); ++v) counts[v] += c[v];
      }
      return latency_quantile(counts, q) / 1e3;
    });
  }
  /// Per-reader totals over the whole run.
  std::vector<ReaderWindow> reader_totals() const {
    std::vector<ReaderWindow> totals(readers.size());
    for (std::size_t i = 0; i < readers.size(); ++i) {
      for (const ReaderWindow& w : readers[i].windows) {
        totals[i].batch_lookups += w.batch_lookups;
        totals[i].batch_ns += w.batch_ns;
      }
    }
    return totals;
  }
  double reader_lookups_per_s_min() const {
    double lowest = 0;
    const std::vector<ReaderWindow> totals = reader_totals();
    for (std::size_t i = 0; i < totals.size(); ++i) {
      const double rate = ratio(static_cast<double>(totals[i].batch_lookups),
                                totals[i].batch_ns * 1e-9);
      lowest = i == 0 ? rate : std::min(lowest, rate);
    }
    return lowest;
  }
  double lookup_ns_mean() const {
    double ns = 0;
    double n = 0;
    for (const ReaderWindow& w : reader_totals()) {
      ns += w.batch_ns;
      n += static_cast<double>(w.batch_lookups);
    }
    return ratio(ns, n);
  }
  std::string thread_errors() const {
    std::string errors = writer.error;
    for (const ReaderStats& r : readers) errors += r.error;
    return errors;
  }
};

/// Runs whole cycles of the control loop (one pass per draw) while the
/// next is expected to end within `seconds`, at least kMinCycles; or
/// exactly `fixed_passes` passes when that is nonzero. Whole cycles hold
/// every draw's epochs equally often, whatever the run's length. The
/// quality figures come from the first cycle alone, so they do not depend
/// on how many cycles fit in the time budget.
LoadResult run_load(const Workload& w, const Draws& draws, std::uint64_t seed,
                    double seconds, std::size_t fixed_passes) {
  LoadResult out;
  sor::serve::RouteService service;
  sor::engine::EngineOptions options = draws.front()->config.engine;
  options.service = &service;

  // Reader query streams and the writer schedule, drawn from the seed up
  // front: both orientations of installed pairs. Every draw samples the
  // same pair set (the gravity support of the one topology).
  const std::vector<sor::VertexPair> pairs = draws.front()->system.pairs();
  const sor::Rng base(seed);
  std::vector<std::vector<Query>> streams(w.readers);
  for (std::size_t r = 0; r < w.readers; ++r) {
    sor::Rng rng = base.split(r);
    for (std::size_t i = 0; i < kQueriesPerReader; ++i) {
      const sor::VertexPair& p = pairs[rng.next_u64(pairs.size())];
      streams[r].push_back(rng.next_u64(2) == 0 ? Query{p.a, p.b}
                                                : Query{p.b, p.a});
    }
  }
  const double period_s = 1.0 / w.writer_hz;
  std::vector<sor::serve::DemandUpdate> updates;
  {
    sor::Rng rng = base.split(w.readers);
    const auto count =
        static_cast<std::size_t>(w.writer_hz * (3 * seconds + 120));
    for (std::size_t i = 0; i < count; ++i) {
      const sor::VertexPair& p = pairs[rng.next_u64(pairs.size())];
      updates.push_back({p.a, p.b, kUpdateAmount});
    }
  }

  out.readers.resize(w.readers);
  std::set<std::pair<std::uint64_t, std::uint64_t>> published;
  std::uint64_t resolved = 0;
  Clock::time_point mark;
  Clock::time_point last_publish;
  std::size_t pass = 0;
  const Clock::time_point origin = Clock::now();
  const auto on_epoch = [&](const sor::engine::EpochReport& report) {
    const Clock::time_point now = Clock::now();
    CycleFigures& figures = out.cycles.back();
    figures.epoch_ms.push_back(ms_between(mark, now));
    ++out.epochs;
    if (!(report.lower_bound > 0 &&
          report.lower_bound <= report.solver_congestion)) {
      ++out.bound_violations;
    }
    if (report.truncated) ++out.truncated;
    if (report.solver_congestion >
        (1.0 + options.epsilon) * report.lower_bound) {
      ++out.uncertified;
    }
    if (report.epoch > 0) ++out.warm_attempts;
    if (report.warm_accepted) ++out.warm_accepts;
    out.phases += report.phases;
    if (report.phases > 0) out.solve_ms_phased += report.solve_ms;
    if (out.cycles.size() == 1) {
      out.congestion.push_back(report.congestion);
      if (report.quality.shadow_sampled) {
        out.regret.push_back(report.quality.regret);
      }
    }
    // publish() ran inside step(), so the service holds this epoch's
    // table, and every update drained for this epoch is now published.
    const std::shared_ptr<const sor::serve::RouteSnapshot> snap =
        service.snapshot();
    if (snap == nullptr || snap->epoch() != report.epoch) {
      ++out.publish_mismatches;
    } else {
      published.emplace(snap->epoch(), snap->digest());
    }
    if (out.epochs > 1) {
      out.publish_interval_ms.push_back(ms_between(last_publish, now));
    }
    last_publish = now;
    for (const std::uint64_t drained = service.updates_drained();
         resolved < drained; ++resolved) {
      const Clock::time_point due =
          origin + as_duration(static_cast<double>(resolved) * period_s);
      figures.freshness_ms.push_back(ms_between(due, now));
    }
    mark = Clock::now();
  };

  {
    // Declared after everything the threads use; each joins on scope exit,
    // exceptions included.
    const bool pin = pin_threads(w);
    std::optional<CpuPin> control_pin;
    if (pin) control_pin.emplace(0);
    std::vector<std::jthread> threads;
    for (std::size_t r = 0; r < w.readers; ++r) {
      threads.emplace_back([&, r](std::stop_token stop) {
        std::optional<CpuPin> reader_pin;
        if (pin) reader_pin.emplace(1 + r);
        run_reader(stop, service, origin, streams[r], out.readers[r]);
      });
    }
    threads.emplace_back([&](std::stop_token stop) {
      std::optional<CpuPin> writer_pin;
      if (pin) writer_pin.emplace(1 + w.readers);
      run_writer(stop, service, updates, origin, period_s, out.writer);
    });

    const Clock::time_point deadline = origin + as_duration(seconds);
    while (true) {
      out.cycles.emplace_back();
      const Clock::time_point cycle_start = Clock::now();
      for (const std::unique_ptr<Deployment>& d : draws) {
        const sor::engine::EngineRunRecord record{d->config, d->trace};
        mark = Clock::now();
        const sor::engine::ControlLoopResult result =
            sor::engine::run_control_loop(d->graph, d->system, d->trace,
                                          d->config.stream, options,
                                          d->pass_seed, on_epoch);
        out.digests.push_back(
            sor::engine::digest_json(record, result).dump());
        ++pass;
      }
      const Clock::time_point end = Clock::now();
      if (fixed_passes > 0
              ? pass >= fixed_passes
              : out.cycles.size() >= kMinCycles &&
                    end + (end - cycle_start) > deadline) {
        break;
      }
    }
    for (std::jthread& t : threads) t.request_stop();
  }
  out.passes = pass;

  // Torn-table audit: every table a reader answered from must be one the
  // control thread published.
  for (const ReaderStats& r : out.readers) {
    for (const auto& seen : r.observed) {
      if (published.count(seen) == 0) ++out.torn;
    }
  }
  out.enqueued = service.updates_enqueued();
  out.drained = service.updates_drained();
  out.publishes = service.publishes();
  return out;
}

// ---------------------------------------------------------------------------
// Span totals (traced run)

void add_span_seconds(const std::vector<sor::telemetry::SpanSnapshot>& forest,
                      std::string_view name, double& total) {
  for (const sor::telemetry::SpanSnapshot& node : forest) {
    if (node.name == name) total += node.seconds;
    add_span_seconds(node.children, name, total);
  }
}

/// Milliseconds spent in spans called `name` anywhere in the forest.
double span_ms(const std::vector<sor::telemetry::SpanSnapshot>& forest,
               std::string_view name) {
  double total = 0;
  add_span_seconds(forest, name, total);
  return total * 1e3;
}

// ---------------------------------------------------------------------------
// Output

struct Metrics {
  JsonValue values = JsonValue::object();

  void add(const char* name, double value, const char* unit) {
    JsonValue m = JsonValue::object();
    m.set("value", value);
    m.set("unit", unit);
    values.set(name, std::move(m));
  }
};

/// A sanitizer in the compiler flags, or one configured through
/// SOR_SANITIZE.
bool sanitizer_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return sor::telemetry::build_info().sanitize != "off";
#endif
}

JsonValue provenance(const Workload& w, const LoadResult& load) {
  const sor::telemetry::BuildInfo& build = sor::telemetry::build_info();
  JsonValue p = JsonValue::object();
  p.set("build_type", build.build_type);
  p.set("compiler", build.compiler_id + " " + build.compiler_version);
  p.set("sanitize", build.sanitize);
  p.set("nproc",
        static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  JsonValue threads = JsonValue::object();
  threads.set("setup_pool",
              static_cast<std::uint64_t>(sor::default_pool().num_threads()));
  threads.set("control", 1);
  threads.set("readers", static_cast<std::uint64_t>(w.readers));
  threads.set("writer", 1);
  p.set("threads", std::move(threads));
  p.set("pinned", pin_threads(w));
  JsonValue loops = JsonValue::object();
  loops.set("control", "closed: each epoch starts when the previous ends");
  loops.set("readers", "closed: each lookup starts when the previous ends");
  loops.set("writer", "open: fixed rate, timed from when each update was due");
  p.set("loops", std::move(loops));
  p.set("writer_hz", w.writer_hz);
  p.set("writer_lag_ms_max", load.writer.lag_ms_max);
  p.set("update_amount", kUpdateAmount);
  return p;
}

int usage(const char* msg) {
  std::cerr << "error: " << msg
            << "\nusage: sor_perfbench --workload epoch-solve|epoch-audit|"
               "serve-churn --seed N --seconds S --trace 0|1\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string_view flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        workload_name = value;
      } else if (flag == "--seed") {
        seed = std::stoull(value);
      } else if (flag == "--seconds") {
        seconds = std::stod(value);
      } else if (flag == "--trace") {
        trace = std::stoi(value);
      } else {
        return usage("unknown flag");
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (argc % 2 == 0) return usage("every flag takes one value");
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (workload_name == candidate.name) w = &candidate;
  }
  if (w == nullptr) return usage("unknown workload");
  if (!(seconds > 0) || (trace != 0 && trace != 1)) {
    return usage("--seconds must be positive and --trace 0 or 1");
  }
  if (sanitizer_build()) {
    std::cerr << "error: refusing to report numbers from a sanitizer build\n";
    return 3;
  }

  // End-to-end numbers are measured untraced and with a cold, memory-only
  // artifact cache.
  sor::telemetry::set_enabled(false);
  sor::cache::ArtifactCache::global().set_directory("");

  std::vector<std::string> failures;
  const SetUp setup = set_up_draws(*w, seed);
  std::uint64_t cache_hits = setup.cache_hits;
  const LoadResult load = run_load(*w, setup.draws, seed, seconds, 0);

  // Replay determinism: a pass that repeats a draw must repeat its digest
  // byte for byte.
  for (std::size_t i = kDraws; i < load.digests.size(); ++i) {
    if (load.digests[i] != load.digests[i - kDraws]) {
      failures.push_back("replay digest differs between repeated passes");
      break;
    }
  }

  Metrics metrics;
  // With --trace 0 the report adds the figures kept out of the gate.
  Metrics reported;
  if (trace == 0) {
    metrics.add("setup_s", quantile(setup.times_s, 0.5), "s");
    metrics.add("epoch_ms_p50", load.epoch_ms_quantile(0.5), "ms");
    metrics.add("epoch_ms_p90", load.epoch_ms_quantile(0.9), "ms");
    metrics.add("congestion_mean", mean(load.congestion), "ratio");
    metrics.add("peak_rss_mb",
                static_cast<double>(
                    sor::telemetry::sample_memory_usage().peak_rss_bytes) /
                    (1 << 20),
                "MiB");
    metrics.add("lookups_per_s", load.lookups_per_s(), "1/s");
    metrics.add("lookup_us_p50", load.lookup_us_quantile(0.5), "us");
    metrics.add("lookup_us_p99", load.lookup_us_quantile(0.99), "us");
    metrics.add("update_to_publish_ms_p50", load.freshness_ms_quantile(0.5),
                "ms");
    metrics.add("update_to_publish_ms_p90", load.freshness_ms_quantile(0.9),
                "ms");
    // Reported but kept out of the regression gate: regret exists only
    // where the workload audits, and the failure ratios are 0 on a correct
    // run (a nonzero one fails the run instead).
    reported = metrics;
    if (!load.regret.empty()) {
      reported.add("regret_p95", quantile(load.regret, 0.95), "ratio");
    }
    reported.add("epoch_fail_ratio",
                 ratio(static_cast<double>(load.truncated + load.uncertified),
                       static_cast<double>(load.epochs)),
                 "ratio");
    reported.add("lookup_fail_ratio",
                 ratio(static_cast<double>(load.lookup_failures()),
                       static_cast<double>(load.lookups())),
                 "ratio");
  } else {
    // Same seed again, traced: the per-layer split, and the replay digests
    // must not notice the tracing.
    sor::telemetry::set_enabled(true);
    sor::telemetry::reset_spans();
    const SetUp traced_setup = set_up_draws(*w, seed);
    cache_hits += traced_setup.cache_hits;
    const std::vector<sor::telemetry::SpanSnapshot> before =
        sor::telemetry::snapshot_spans();
    const LoadResult traced =
        run_load(*w, traced_setup.draws, seed, seconds, load.passes);
    const std::vector<sor::telemetry::SpanSnapshot> after =
        sor::telemetry::snapshot_spans();
    sor::telemetry::set_enabled(false);
    if (traced.digests != load.digests) {
      failures.push_back("replay digest differs between untraced and traced");
    }
    if (traced.failed_epochs() + traced.lookup_failures() > 0 ||
        !traced.thread_errors().empty()) {
      failures.push_back("traced run failed a check");
    }

    // Set-up layers, per set-up.
    const auto setups = static_cast<double>(traced_setup.times_s.size());
    const double build_ms = span_ms(before, "bench/build_path_system");
    const double sample_ms = span_ms(before, "sampler/sample_path_system");
    metrics.add("tree.racke_ms", (build_ms - sample_ms) / setups, "ms");
    metrics.add("core.sample_ms", sample_ms / setups, "ms");
    metrics.add("core.paths",
                static_cast<double>(
                    traced_setup.draws.front()->system.total_paths()),
                "count");
    metrics.add("engine.trace_gen_ms",
                span_ms(before, "bench/generate_trace") / setups, "ms");
    metrics.add("cache.hits", static_cast<double>(cache_hits), "count");

    // Epoch stages: span time per epoch, and its share of the epoch. The
    // untracked remainder makes the shares sum to 1.
    const double epoch_total_ms = traced.epoch_ms_total();
    const auto epochs = static_cast<double>(traced.epochs);
    double tracked_ms = 0;
    const auto stage = [&](const char* span, const char* ms_name,
                           const char* share_name) {
      const double ms = span_ms(after, span) - span_ms(before, span);
      tracked_ms += ms;
      metrics.add(ms_name, ratio(ms, epochs), "ms");
      metrics.add(share_name, ratio(ms, epoch_total_ms), "ratio");
    };
    metrics.add("engine.epoch_ms_mean", ratio(epoch_total_ms, epochs), "ms");
    stage("engine/repair", "engine.repair_ms", "engine.repair_share");
    stage("engine/predict", "engine.predict_ms", "engine.predict_share");
    stage("engine/solve", "lp.solve_ms", "lp.solve_share");
    stage("engine/publish", "engine.publish_ms", "engine.publish_share");
    stage("engine/shadow", "lp.shadow_ms", "lp.shadow_share");
    const double untracked_ms = epoch_total_ms - tracked_ms;
    metrics.add("engine.untracked_ms", ratio(untracked_ms, epochs), "ms");
    metrics.add("engine.untracked_share", ratio(untracked_ms, epoch_total_ms),
                "ratio");
    metrics.add("lp.mwu_phases", ratio(static_cast<double>(traced.phases),
                                       epochs),
                "count");
    metrics.add("lp.ns_per_phase",
                ratio(traced.solve_ms_phased * 1e6,
                      static_cast<double>(traced.phases)),
                "ns");
    metrics.add("lp.warm_accept_ratio",
                ratio(static_cast<double>(traced.warm_accepts),
                      static_cast<double>(traced.warm_attempts)),
                "ratio");
    metrics.add("quality.regret_p95", quantile(traced.regret, 0.95), "ratio");
    metrics.add("serve.publish_interval_ms_p50",
                quantile(traced.publish_interval_ms, 0.5), "ms");
    metrics.add("serve.lookup_ns_mean", traced.lookup_ns_mean(), "ns");
    metrics.add("serve.reader_lookups_per_s_min",
                traced.reader_lookups_per_s_min(), "1/s");
    metrics.add("serve.publishes", static_cast<double>(traced.publishes),
                "count");
    metrics.add("serve.enqueue_us_p99",
                quantile(traced.writer.enqueue_us, 0.99), "us");
    metrics.add("serve.generator_lag_ms_max", traced.writer.lag_ms_max, "ms");
    metrics.add("serve.updates_drained_ratio",
                ratio(static_cast<double>(traced.drained),
                      static_cast<double>(traced.enqueued)),
                "ratio");
    metrics.add("telemetry.overhead_ratio",
                ratio(traced.epoch_ms_quantile(0.5),
                      load.epoch_ms_quantile(0.5)) -
                    1.0,
                "ratio");
  }

  // Correctness gate.
  if (cache_hits != 0) failures.push_back("set-up hit a warm artifact cache");
  if (load.bound_violations > 0) {
    failures.push_back("an epoch broke 0 < lower_bound <= congestion");
  }
  if (load.truncated + load.uncertified > 0) {
    failures.push_back("an epoch was truncated or uncertified");
  }
  if (load.publish_mismatches > 0) {
    failures.push_back("the service did not hold an epoch's table");
  }
  if (load.lookup_failures() > 0) {
    failures.push_back("a lookup was torn, missed or mis-summed");
  }
  if (!load.thread_errors().empty()) {
    failures.push_back("reader or writer failed: " + load.thread_errors());
  }
  const Deployment& first = *setup.draws.front();
  if (!sor::serve::snapshot_matches_route_fractional(
          first.graph, first.system,
          sor::gravity_demand(first.graph, first.config.stream.total))) {
    failures.push_back("published snapshot differs from route_fractional");
  }

  const std::uint64_t attempted = load.epochs + load.lookups() + load.enqueued;
  const std::uint64_t failed = load.failed_epochs() + load.lookup_failures();

  JsonValue report = JsonValue::object();
  report.set("workload", w->name);
  report.set("seed", static_cast<std::uint64_t>(seed));
  report.set("seconds", seconds);
  report.set("trace", trace);
  report.set("topology", w->topology);
  report.set("provenance", provenance(*w, load));
  report.set("setups", static_cast<std::uint64_t>(setup.times_s.size()));
  report.set("passes", static_cast<std::uint64_t>(load.passes));
  report.set("epochs", static_cast<std::uint64_t>(load.epochs));
  report.set("lookups", load.lookups());
  report.set("updates", load.enqueued);
  JsonValue failure_list = JsonValue::array();
  for (const std::string& f : failures) failure_list.push(f);
  report.set("failures", std::move(failure_list));
  report.set(trace == 0 ? "end_to_end" : "per_layer",
             trace == 0 ? std::move(reported.values) : metrics.values);

  JsonValue result = JsonValue::object();
  result.set("correct", failures.empty() && failed == 0);
  result.set("attempted", attempted);
  result.set("failed", failed);
  result.set("metrics", std::move(metrics.values));

  JsonValue wrapped = JsonValue::object();
  wrapped.set("report", std::move(report));
  std::cout << wrapped.dump() << "\n" << result.dump() << std::endl;
  for (const std::string& f : failures) std::cerr << "FAIL: " << f << "\n";
  return failures.empty() && failed == 0 ? 0 : 1;
}
