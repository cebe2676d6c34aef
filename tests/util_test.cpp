// Unit tests for src/util: RNG determinism and distributions, thread pool,
// parallel_for, statistics, table formatting, check macros.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>

#include "telemetry/artifact.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace sor {
namespace {

TEST(Check, ThrowsWithMessage) {
  EXPECT_THROW(SOR_CHECK(false), CheckError);
  try {
    SOR_CHECK_MSG(1 == 2, "context " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

TEST(Check, PassingConditionIsSilent) {
  EXPECT_NO_THROW(SOR_CHECK(true));
  EXPECT_NO_THROW(SOR_CHECK_MSG(2 + 2 == 4, "fine"));
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b());
  EXPECT_LT(equal, 4);
}

TEST(Rng, SplitStreamsAreIndependentOfParentUse) {
  Rng parent(7);
  const Rng child_before = parent.split(5);
  (void)parent.operator()();  // advancing the parent...
  Rng parent2(7);
  Rng child_after = parent2.split(5);  // ...does not change split results
  Rng child_copy = child_before;
  for (int i = 0; i < 16; ++i) EXPECT_EQ(child_copy(), child_after());
}

TEST(Rng, SplitDifferentIdsDiffer) {
  Rng parent(7);
  Rng a = parent.split(0);
  Rng b = parent.split(1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b());
  EXPECT_LT(equal, 4);
}

TEST(Rng, NextU64InRangeAndRoughlyUniform) {
  Rng rng(99);
  std::vector<std::size_t> counts(10, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    const std::uint64_t v = rng.next_u64(10);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  for (std::size_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c), trials / 10.0, trials * 0.01);
  }
}

TEST(Rng, NextU64BoundOne) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.next_u64(1), 0u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, NextI64CoversRangeInclusive) {
  Rng rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_i64(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(Rng, WeightedSamplingMatchesWeights) {
  Rng rng(17);
  const std::vector<double> weights{1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    ++counts[rng.next_weighted(weights)];
  }
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(trials), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(trials), 0.3, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(trials), 0.6, 0.01);
}

TEST(Rng, WeightedSamplingRejectsAllZero) {
  Rng rng(1);
  const std::vector<double> weights{0.0, 0.0};
  EXPECT_THROW(rng.next_weighted(weights), CheckError);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(23);
  const auto p = rng.permutation(100);
  std::set<std::uint32_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(29);
  int heads = 0;
  for (int i = 0; i < 100000; ++i) heads += rng.next_bool(0.25);
  EXPECT_NEAR(heads / 100000.0, 0.25, 0.01);
}

TEST(ThreadPool, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(1000, [&](std::size_t i) { ++hits[i]; }, &pool);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, HandlesZeroAndOne) {
  int calls = 0;
  parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, PropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(
          100,
          [](std::size_t i) {
            if (i == 37) throw std::runtime_error("bad index");
          },
          &pool),
      std::runtime_error);
}

TEST(ParallelReduce, SumsCorrectly) {
  ThreadPool pool(4);
  const long long total = parallel_reduce<long long>(
      1000, 0LL, [](std::size_t i) { return static_cast<long long>(i); },
      [](long long a, long long b) { return a + b; }, &pool);
  EXPECT_EQ(total, 999LL * 1000 / 2);
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyThrows) {
  RunningStats s;
  EXPECT_THROW(s.mean(), CheckError);
  EXPECT_THROW(s.min(), CheckError);
}

TEST(Stats, Quantile) {
  const std::vector<double> data{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(quantile(data, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(data, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(data, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(data, 0.25), 2.0);
}

TEST(Stats, GeometricMean) {
  const std::vector<double> data{1.0, 4.0, 16.0};
  EXPECT_NEAR(geometric_mean(data), 4.0, 1e-12);
  const std::vector<double> with_zero{1.0, 0.0};
  EXPECT_THROW(geometric_mean(with_zero), CheckError);
}

TEST(Table, FormatsRowsAndCsv) {
  Table t({"name", "value"});
  t.add_row({"a", Table::fmt(1.5, 1)});
  t.add_row({"bb", Table::fmt_int(42)});
  EXPECT_EQ(t.num_rows(), 2u);
  std::ostringstream os;
  t.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("1.5"), std::string::npos);
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_NE(csv.str().find("name,value"), std::string::npos);
  EXPECT_NE(csv.str().find("bb,42"), std::string::npos);
}

TEST(Table, FmtRendersNonFiniteAsDash) {
  // Empty sketches and zero-epoch runs surface NaN/inf into column
  // formatting; the tables must show "-" rather than "nan"/"inf".
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Table::fmt(nan, 3), "-");
  EXPECT_EQ(Table::fmt(inf, 3), "-");
  EXPECT_EQ(Table::fmt(-inf, 3), "-");
  EXPECT_EQ(Table::fmt(0.0, 2), "0.00");
}

TEST(Table, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), CheckError);
}

TEST(Stopwatch, MeasuresElapsedTimeMonotonically) {
  Stopwatch sw;
  const double a = sw.seconds();
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i * 0.5;
  const double b = sw.seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  EXPECT_NEAR(sw.milliseconds(), sw.seconds() * 1000, sw.seconds() * 10);
  sw.reset();
  EXPECT_LT(sw.seconds(), b + 1.0);
}

TEST(Log, LevelThresholdGates) {
  const LogLevel previous = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Below-threshold logging must be a no-op (no crash, no output check
  // needed — the call path is what's exercised).
  SOR_LOG(kDebug) << "dropped";
  SOR_LOG(kInfo) << "dropped " << 42;
  set_log_level(previous);
}

TEST(StatsSummary, EmptySampleIsAllZeros) {
  const StatsSummary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.p50, 0.0);
  EXPECT_DOUBLE_EQ(s.p99, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
}

TEST(StatsSummary, SingleSampleIsItsOwnQuantiles) {
  const std::vector<double> one{3.5};
  const StatsSummary s = summarize(one);
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 3.5);
  EXPECT_DOUBLE_EQ(s.p50, 3.5);
  EXPECT_DOUBLE_EQ(s.p95, 3.5);
  EXPECT_DOUBLE_EQ(s.p99, 3.5);
  EXPECT_DOUBLE_EQ(s.max, 3.5);
}

TEST(StatsSummary, QuantilesByNearestRank) {
  std::vector<double> data;
  for (int i = 1; i <= 100; ++i) data.push_back(static_cast<double>(i));
  const StatsSummary s = summarize(data);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_NEAR(s.p50, 50.0, 1.0);
  EXPECT_NEAR(s.p95, 95.0, 1.0);
  EXPECT_NEAR(s.p99, 99.0, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
}

// Satellite: the human-readable formatters meet negative and non-finite
// values when rendering corrupt or sentinel metrics; they must degrade to
// spelled-out text instead of scaling garbage.
TEST(Format, SecondsHandlesNegativeAndNonFinite) {
  using telemetry::format_seconds;
  EXPECT_EQ(format_seconds(2.41), "2.41 s");
  EXPECT_EQ(format_seconds(-2.41), "-2.41 s");
  EXPECT_EQ(format_seconds(-0.0025), "-2.5 ms");
  EXPECT_EQ(format_seconds(0.0), "0 s");
  EXPECT_EQ(format_seconds(std::numeric_limits<double>::quiet_NaN()), "nan");
  EXPECT_EQ(format_seconds(std::numeric_limits<double>::infinity()), "inf s");
  EXPECT_EQ(format_seconds(-std::numeric_limits<double>::infinity()),
            "-inf s");
}

TEST(Format, QuantityHandlesNegativeAndNonFinite) {
  using telemetry::format_quantity;
  EXPECT_EQ(format_quantity(1500.0), "1.5k");
  EXPECT_EQ(format_quantity(-1500.0), "-1.5k");
  EXPECT_EQ(format_quantity(-3.0), "-3");
  EXPECT_EQ(format_quantity(std::numeric_limits<double>::quiet_NaN()), "nan");
  EXPECT_EQ(format_quantity(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(format_quantity(-std::numeric_limits<double>::infinity()),
            "-inf");
}

}  // namespace
}  // namespace sor
