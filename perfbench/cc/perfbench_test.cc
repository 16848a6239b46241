// Tests of the benchmark's own machinery: seeded generation, the tail
// percentile helper, open-loop timing, and per-layer attribution.
#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gen.h"
#include "layers.h"
#include "report.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(Generation, SameSeedSameArrivalsMixAndPrograms) {
  EXPECT_EQ(PoissonArrivals(7, 100, 500), PoissonArrivals(7, 100, 500));
  EXPECT_EQ(MixChoices(7, 500, 16), MixChoices(7, 500, 16));
  for (std::uint64_t job = 0; job < 20; ++job) {
    const ColdProgram a = MakeColdProgram(7, job, {4, 10});
    const ColdProgram b = MakeColdProgram(7, job, {4, 10});
    EXPECT_EQ(a.source, b.source);
    EXPECT_EQ(a.loops, b.loops);
  }
}

TEST(Generation, OtherSeedOtherInputs) {
  EXPECT_NE(PoissonArrivals(7, 100, 500), PoissonArrivals(8, 100, 500));
  EXPECT_NE(MixChoices(7, 500, 16), MixChoices(8, 500, 16));
  int differing_loop_counts = 0;
  for (std::uint64_t job = 0; job < 20; ++job) {
    differing_loop_counts += MakeColdProgram(7, job, {4, 10}).loops !=
                             MakeColdProgram(8, job, {4, 10}).loops;
  }
  EXPECT_GT(differing_loop_counts, 0);
}

TEST(Generation, ArrivalsHaveTheOfferedRate) {
  const std::vector<double> due = PoissonArrivals(3, 200, 20000);
  for (std::size_t i = 1; i < due.size(); ++i) ASSERT_GT(due[i], due[i - 1]);
  EXPECT_NEAR(due.size() / due.back(), 200, 200 * 0.03);
}

TEST(Generation, ColdProgramsAreDistinctAndInRange) {
  std::vector<std::string> sources;
  for (std::uint64_t job = 0; job < 50; ++job) {
    const ColdProgram p = MakeColdProgram(1, job, {4, 10});
    EXPECT_GE(p.loops, 4);
    EXPECT_LE(p.loops, 10);
    for (const std::string& s : sources) ASSERT_NE(s, p.source);
    sources.push_back(p.source);
  }
}

TEST(Generation, ColdProgramsFollowTheLoopMix) {
  const LoopMix mix{2, 4, 0.05, 10};
  EXPECT_EQ(mix.Counts(), (std::vector<int>{2, 3, 4, 10}));
  int big = 0;
  for (std::uint64_t job = 0; job < 2000; ++job) {
    const int loops = MakeColdProgram(1, job, mix).loops;
    if (loops == 10) {
      ++big;
    } else {
      EXPECT_GE(loops, 2);
      EXPECT_LE(loops, 4);
    }
  }
  EXPECT_NEAR(big, 100, 30);
}

TEST(Generation, ColdEvaluationFollowsTheSource) {
  // One loop with constant c: t0 = a/2 + b + c, t_s = t_{s-1} * 1.0625 -
  // b * (s + .5) + (s + .25), a' = t16/8 + t8/4 + t0/2.
  ColdProgram p = MakeColdProgram(1, 3, {1, 1});
  ASSERT_EQ(p.loops, 1);
  std::vector<float> a = {1.0f}, b = {0.5f};
  const float c = p.loop_constants[0];
  EXPECT_EQ(c, 3.0f / 8.0f);
  EXPECT_NE(p.source.find("0.375f"), std::string::npos);
  float t[17];
  t[0] = 1.0f * 0.5f + 0.5f + c;
  for (int s = 1; s <= 16; ++s) {
    t[s] = t[s - 1] * 1.0625f - 0.5f * (s + 0.5f) + (s + 0.25f);
  }
  EvaluateColdProgram(p, a, b);
  EXPECT_EQ(a[0], t[16] * 0.125f + t[8] * 0.25f + t[0] * 0.5f);
}

TEST(Percentiles, HighestPercentileWithTenSamplesBeyond) {
  auto values = [](std::size_t n) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
    return v;  // n, n-1, ..., 1: order must not matter
  };
  const Tail t1000 = HighestTail(values(1000));
  EXPECT_EQ(t1000.percentile, 99);
  EXPECT_EQ(t1000.beyond, 10u);
  EXPECT_EQ(t1000.value, 990);
  EXPECT_EQ(t1000.samples, 1000u);

  const Tail t250 = HighestTail(values(250));
  EXPECT_EQ(t250.percentile, 96);
  EXPECT_EQ(t250.beyond, 10u);

  const Tail t5000 = HighestTail(values(5000));
  EXPECT_EQ(t5000.percentile, 99);  // capped at p99
  EXPECT_EQ(t5000.beyond, 50u);

  const Tail t999 = HighestTail(values(999));
  EXPECT_EQ(t999.percentile, 98);  // p99 of 999 has only 9 beyond
  EXPECT_GE(t999.beyond, 10u);

  const Tail t12 = HighestTail(values(12));
  EXPECT_EQ(t12.percentile, 50);  // too few samples for any real tail
  EXPECT_LT(t12.beyond, 10u);
}

TEST(Percentiles, MedianAndGeoMean) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(GeoMean({2, 8}), 4);
}

TEST(OpenLoop, LatencyIsTimedFromTheDueTimeAndLatenessIsReported) {
  // Jobs due every 2 ms; submitting the first one stalls the generator for
  // 30 ms. Later jobs are submitted late, and their latency (timed from
  // the due time) includes that wait even though the "system" finishes
  // each job the instant it is submitted.
  const std::vector<double> due = {0.000, 0.002, 0.004, 0.006};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  std::vector<Clock::time_point> finished(due.size());
  const std::vector<double> late = RunSchedule(due, start, [&](std::size_t j) {
    if (j == 0) std::this_thread::sleep_for(std::chrono::milliseconds(30));
    finished[j] = Clock::now();
  });
  ASSERT_EQ(late.size(), due.size());
  EXPECT_LT(late[0], 0.020);
  for (std::size_t j = 1; j < due.size(); ++j) {
    EXPECT_GT(late[j], 0.020) << "job " << j;
    const double latency_ms = LatencyFromDueMs(start, due[j], finished[j]);
    EXPECT_GE(latency_ms, 1e3 * late[j]) << "job " << j;
    EXPECT_GT(latency_ms, 20) << "job " << j;
  }
}

accmg::trace::Event WallSpan(const char* name, const char* cat, double start,
                             double end) {
  accmg::trace::Event e;
  e.name = name;
  e.category = cat;
  e.start_us = start;
  e.duration_us = end - start;
  return e;
}

TEST(Layers, SelfTimesAddUpToTheWindow) {
  std::vector<accmg::trace::Event> events = {
      WallSpan("run:f", "host", 10, 90),
      WallSpan("offload:a", "offload", 20, 60),
      WallSpan("load:x", "loader", 20, 25),
      WallSpan("halo:x", "halo", 50, 52),
      WallSpan("offload:b", "offload", 70, 80),
      WallSpan("dirty-merge:y", "dirty-merge", 78, 80),
  };
  const Interval window{0, 100};
  const LayerTimes t = Attribute(EventsInside(events, window), window);
  EXPECT_DOUBLE_EQ(t.outside_us, 20);
  EXPECT_DOUBLE_EQ(t.host_us, 30);
  EXPECT_DOUBLE_EQ(t.kernel_us, 41);
  EXPECT_DOUBLE_EQ(t.loader_us, 5);
  EXPECT_DOUBLE_EQ(t.halo_us, 2);
  EXPECT_DOUBLE_EQ(t.dirty_merge_us, 2);
  EXPECT_EQ(t.run_spans, 1u);
  EXPECT_EQ(t.offload_spans, 2u);
  EXPECT_TRUE(t.Reconciles(1e-12));
}

TEST(Layers, OverlappingPhasesFailToReconcile) {
  std::vector<accmg::trace::Event> events = {
      WallSpan("run:f", "host", 0, 100),
      WallSpan("offload:a", "offload", 0, 100),
      WallSpan("load:x", "loader", 10, 60),
      WallSpan("halo:x", "halo", 40, 90),  // overlaps the load by 20
  };
  const Interval window{0, 100};
  const LayerTimes t = Attribute(EventsInside(events, window), window);
  EXPECT_DOUBLE_EQ(t.SumUs(), 120);
  EXPECT_FALSE(t.Reconciles(0.01));
}

TEST(Layers, EventsOutsideTheWindowAreIgnored) {
  std::vector<accmg::trace::Event> events = {
      WallSpan("run:f", "host", 0, 50),
      WallSpan("run:g", "host", 200, 300),
  };
  const Interval window{0, 60};
  const LayerTimes t = Attribute(EventsInside(events, window), window);
  EXPECT_EQ(t.run_spans, 1u);
  EXPECT_DOUBLE_EQ(t.host_us, 50);
}

/// (name, unit) pairs of one metric list of BENCHMARK.json, in order.
std::vector<std::pair<std::string, std::string>> BenchmarkJsonList(
    const std::string& key) {
  std::ifstream file(PERFBENCH_BENCHMARK_JSON);
  std::stringstream buffer;
  buffer << file.rdbuf();
  std::string text;
  for (const char c : buffer.str()) {
    if (c != ' ' && c != '\n' && c != '\t' && c != '\r') text += c;
  }
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t pos = text.find("\"" + key + "\":[");
  if (pos == std::string::npos) return out;
  const std::size_t end = text.find(']', pos);
  auto field = [&](const std::string& name, std::size_t from) {
    const std::string tag = "\"" + name + "\":\"";
    const std::size_t at = text.find(tag, from);
    if (at == std::string::npos || at > end) return std::string();
    const std::size_t begin = at + tag.size();
    return text.substr(begin, text.find('"', begin) - begin);
  };
  while ((pos = text.find("{\"name\":\"", pos)) != std::string::npos &&
         pos < end) {
    out.push_back({field("name", pos), field("unit", pos)});
    ++pos;
  }
  return out;
}

TEST(Schema, MatchesBenchmarkJson) {
  EXPECT_EQ(EndToEndSchema(), BenchmarkJsonList("end_to_end"));
  EXPECT_EQ(PerLayerSchema(), BenchmarkJsonList("per_layer"));
}

}  // namespace
}  // namespace perfbench
