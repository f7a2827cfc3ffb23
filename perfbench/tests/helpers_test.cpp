// Tests of the benchmark's own helpers: the statistics it reports, the
// end-to-end item metrics, the seeded serve_mix inputs, and the per-layer
// self-time reduction.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "bench.hpp"
#include "schedule.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

TEST(Stats, Mean) {
  EXPECT_DOUBLE_EQ(mean({1, 2, 6}), 3);
  EXPECT_DOUBLE_EQ(mean({}), 0);
}

TEST(Stats, MedianOddEvenEmpty) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0);
}

// Expected values are Python's statistics.quantiles(v, n=4).
TEST(Stats, QuartilesMatchPythonExclusiveMethod) {
  Quartiles q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  q = quartiles({3.5, 1.25, 9.0, 4.0});
  EXPECT_DOUBLE_EQ(q.q1, 1.8125);
  EXPECT_DOUBLE_EQ(q.q3, 7.75);
  q = quartiles({2, 8});
  EXPECT_DOUBLE_EQ(q.q1, 0.5);
  EXPECT_DOUBLE_EQ(q.q3, 9.5);
}

TEST(Stats, IqrShareIsSpreadOverMedian) {
  EXPECT_DOUBLE_EQ(iqr_share({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
                   (8.25 - 2.75) / 5.5);
  EXPECT_DOUBLE_EQ(iqr_share({7, 7, 7, 7}), 0);
  EXPECT_DOUBLE_EQ(iqr_share({0, 0, 0}), 0);
}

TEST(Stats, PercentileIsNearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 50);
  EXPECT_DOUBLE_EQ(percentile(v, 90), 90);
  EXPECT_DOUBLE_EQ(percentile(v, 99), 99);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 100);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0);
}

TEST(Stats, TailPercentileKeepsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(100, 90), 10u);
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_DOUBLE_EQ(tail_percentile(19), 0);     // median has 9 beyond
  EXPECT_DOUBLE_EQ(tail_percentile(20), 50);
  EXPECT_DOUBLE_EQ(tail_percentile(99), 50);    // p90 has 9 beyond
  EXPECT_DOUBLE_EQ(tail_percentile(100), 90);
  EXPECT_DOUBLE_EQ(tail_percentile(999), 90);   // p99 has 9 beyond
  EXPECT_DOUBLE_EQ(tail_percentile(1000), 99);
  EXPECT_DOUBLE_EQ(tail_percentile(2000), 99);
  EXPECT_DOUBLE_EQ(tail_percentile(10000), 99.9);
  EXPECT_DOUBLE_EQ(tail_percentile(100000), 99.99);
}

TEST(Stats, Geomean) {
  EXPECT_NEAR(geomean({1, 4, 16}), 4, 1e-12);
  EXPECT_NEAR(geomean({2.5}), 2.5, 1e-12);
  EXPECT_DOUBLE_EQ(geomean({}), 0);
  EXPECT_DOUBLE_EQ(geomean({1, 0, 3}), 0);
  EXPECT_DOUBLE_EQ(geomean({1, -2}), 0);
}

TEST(ItemMetrics, SuiteIsTheSumOfMediansAndThirdsAverageByCost) {
  Result r;
  ItemSamples items;
  for (int i = 1; i <= 12; ++i) {
    // Medians i seconds; the outlier sample must not move them.
    items["p" + std::to_string(i)] = {i * 1.0, i * 1.0, i * 9.0};
  }
  set_item_metrics(r, items);
  EXPECT_DOUBLE_EQ(r.values.at("suite_s"), 78);
  EXPECT_DOUBLE_EQ(r.values.at("fast_third_ms"), 2500);   // 1..4
  EXPECT_DOUBLE_EQ(r.values.at("mid_third_ms"), 6500);    // 5..8
  EXPECT_DOUBLE_EQ(r.values.at("slow_third_ms"), 10500);  // 9..12
}

TEST(ItemMetrics, ThreeAndFourItems) {
  Result three;
  set_item_metrics(three, {{"hit", {0.001}}, {"run", {0.01}}, {"miss", {0.5}}});
  EXPECT_DOUBLE_EQ(three.values.at("fast_third_ms"), 1);
  EXPECT_DOUBLE_EQ(three.values.at("mid_third_ms"), 10);
  EXPECT_DOUBLE_EQ(three.values.at("slow_third_ms"), 500);
  Result four;  // ceil(4/3) = 2 items per group
  set_item_metrics(four, {{"a", {4}}, {"b", {1}}, {"c", {2}}, {"d", {3}}});
  EXPECT_DOUBLE_EQ(four.values.at("fast_third_ms"), 1500);
  EXPECT_DOUBLE_EQ(four.values.at("mid_third_ms"), 2500);
  EXPECT_DOUBLE_EQ(four.values.at("slow_third_ms"), 3500);
  Result two;
  set_item_metrics(two, {{"a", {1}}, {"b", {2}}});
  EXPECT_EQ(two.values.count("fast_third_ms"), 0u);  // reported missing
}

bool same(const std::vector<FastRequest>& a,
          const std::vector<FastRequest>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].due_s != b[i].due_s || a[i].kind != b[i].kind ||
        a[i].program != b[i].program) {
      return false;
    }
  }
  return true;
}

TEST(Schedule, SameSeedSameFastLane) {
  const auto a = fast_lane_schedule(7, 10, 4);
  const auto b = fast_lane_schedule(7, 10, 4);
  EXPECT_TRUE(same(a, b));
  EXPECT_FALSE(same(a, fast_lane_schedule(8, 10, 4)));
}

TEST(Schedule, FastLaneIsOrderedWithPoissonRates) {
  const double seconds = 200;
  const auto s = fast_lane_schedule(3, seconds, 4);
  std::map<FastKind, int> count;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(s[i - 1].due_s, s[i].due_s);
    }
    EXPECT_GE(s[i].due_s, 0);
    EXPECT_LT(s[i].due_s, seconds);
    EXPECT_GE(s[i].program, 0);
    EXPECT_LT(s[i].program, 4);
    ++count[s[i].kind];
  }
  // Poisson counts: mean rate * seconds, standard deviation its root.
  EXPECT_NEAR(count[FastKind::Hit], 100 * seconds, 5 * std::sqrt(100 * seconds));
  EXPECT_NEAR(count[FastKind::Compile], 50 * seconds,
              5 * std::sqrt(50 * seconds));
  EXPECT_NEAR(count[FastKind::Run], 10 * seconds, 5 * std::sqrt(10 * seconds));
}

TEST(Schedule, SameSeedSameColdPrograms) {
  const auto a = cold_programs(11, 30);
  const auto b = cold_programs(11, 30);
  ASSERT_EQ(a.size(), 30u);
  std::set<std::int64_t> extents;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kernel, b[i].kernel);
    EXPECT_EQ(a[i].extent, b[i].extent);
    EXPECT_NE(a[i].extent, kHotExtent);
    EXPECT_GE(a[i].extent, 40);
    EXPECT_LE(a[i].extent, 200);
    extents.insert(a[i].extent);
  }
  EXPECT_EQ(extents.size(), a.size());  // every cold program is new
  const auto c = cold_programs(12, 30);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    differs = differs || a[i].extent != c[i].extent;
  }
  EXPECT_TRUE(differs);
  EXPECT_EQ(cold_programs(1, 1000).size(), 160u);
}

TEST(Schedule, SeededOrderIsAPermutation) {
  const auto a = seeded_order(5, 12);
  EXPECT_EQ(a, seeded_order(5, 12));
  EXPECT_EQ(std::set<std::size_t>(a.begin(), a.end()).size(), 12u);
}

artemis::telemetry::Event span(const char* name, int tid, std::int64_t ts,
                               std::int64_t dur) {
  artemis::telemetry::Event ev;
  ev.phase = artemis::telemetry::Event::Phase::Complete;
  ev.name = name;
  ev.tid = tid;
  ev.ts_ns = ts;
  ev.dur_ns = dur;
  return ev;
}

TEST(Trace, LayerOf) {
  EXPECT_EQ(layer_of("parse"), "dsl");
  EXPECT_EQ(layer_of("tune.stage1"), "autotune");
  EXPECT_EQ(layer_of("driver.optimize"), "driver");
  EXPECT_EQ(layer_of("bench"), "bench");
}

TEST(Trace, SelfTimeSubtractsDirectChildrenOnTheSameThread) {
  const std::vector<artemis::telemetry::Event> events = {
      span("bench.program", 0, 0, 100),
      span("driver.tune", 0, 10, 80),
      span("parse", 0, 10, 5),
      span("driver.optimize", 0, 20, 60),
      span("profile.plan", 1, 30, 40),  // another thread: not a child
  };
  const auto t = layer_self_times(events);
  EXPECT_NEAR(t.at("bench").self_s, 20e-9, 1e-15);
  EXPECT_NEAR(t.at("driver").self_s, (80 - 5 - 60 + 60) * 1e-9, 1e-15);
  EXPECT_NEAR(t.at("dsl").self_s, 5e-9, 1e-15);
  EXPECT_NEAR(t.at("profile").self_s, 40e-9, 1e-15);
  EXPECT_NEAR(span_self_s(events, "driver.optimize"), 60e-9, 1e-15);
  EXPECT_NEAR(span_total_s(events, "driver.tune"), 80e-9, 1e-15);
  EXPECT_NEAR(span_total_within_s(events, "parse", events[1]), 5e-9, 1e-15);
  EXPECT_EQ(span_total_within_s(events, "profile.plan", events[0]), 0);
  EXPECT_NEAR(unattributed_share(events), 0.2, 1e-12);
}

TEST(Trace, HandedOffRootSpansCoverConcurrentRequestsOnce) {
  const std::vector<artemis::telemetry::Event> events = {
      span("bench.request", 0, 0, 100),  // two client lanes
      span("bench.request", 1, 50, 100),
      span("parse", 2, 10, 10),  // daemon threads: roots count
      span("driver.optimize", 2, 25, 65),
      span("tune.stage1", 2, 30, 50),  // nested: already inside its root
      span("parse", 3, 60, 5),
      span("parse", 3, 400, 5),  // outside every request: no cover
  };
  EXPECT_NEAR(unattributed_share(events), (200.0 - 10 - 65 - 5) / 200, 1e-12);
}

}  // namespace
}  // namespace perfbench
