// Tests of the benchmark itself: every workload passes its gates at tiny
// sizes, the load plan is a pure function of the seed with an exact job
// composition, and the percentile and trace arithmetic is right.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "loadgen.hpp"
#include "report.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

Options tiny(const std::string& workload) {
  Options o;
  o.workload = workload;
  o.seed = 5;
  o.seconds = 0.4;
  o.setups = 2;
  o.cif_width = 64;
  o.cif_height = 48;
  o.cif_frames = 4;
  o.serve_rate = 50.0;
  return o;
}

std::set<std::string> names(const std::vector<Metric>& metrics) {
  std::set<std::string> s;
  for (const Metric& m : metrics) s.insert(m.name);
  return s;
}

const std::set<std::string> kEndToEnd = {"setup_s",        "mcycles_per_s",  "sim_cycles",
                                         "success_ratio",  "peak_rss_mb",    "latency_p50_ms",
                                         "latency_tail_ms", "slo_ratio"};

}  // namespace

TEST(Workloads, DecodePinHolds) { EXPECT_EQ(checkDecodePin(), ""); }

class EveryWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryWorkload, PassesItsGatesAtTinySizes) {
  const Outcome out = runWorkload(tiny(GetParam()));
  for (const std::string& n : out.notes) std::printf("  %s\n", n.c_str());
  EXPECT_TRUE(out.correct);
  EXPECT_GE(out.attempted, 1u);
  EXPECT_EQ(out.failed, 0u);
  EXPECT_FALSE(out.signature.empty());
  EXPECT_EQ(names(out.end_to_end), kEndToEnd);
  EXPECT_EQ(out.per_layer.size(), 40u);
  for (const Metric& m : out.end_to_end) EXPECT_GT(m.value, 0.0) << m.name;
}

TEST_P(EveryWorkload, SimulatedTotalsRepeatAcrossRuns) {
  const Outcome a = runWorkload(tiny(GetParam()));
  const Outcome b = runWorkload(tiny(GetParam()));
  ASSERT_TRUE(a.correct && b.correct);
  EXPECT_EQ(a.signature, b.signature);
  EXPECT_EQ(a.end_to_end[2].value, b.end_to_end[2].value);  // sim_cycles
}

TEST_P(EveryWorkload, TracedRunWritesSpansForEachLayer) {
  Options o = tiny(GetParam());
  o.trace = true;
  o.trace_path =
      (std::filesystem::temp_directory_path() / ("perfbench-" + GetParam() + ".json")).string();
  const Outcome out = runWorkload(o);
  ASSERT_TRUE(out.correct);
  EXPECT_EQ(out.per_layer.size(), 46u);
  std::ifstream in(o.trace_path);
  const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  for (const char* span : {"media.gen", "media.encode", "app.build", "app.configure", "app.run",
                           "app.verify", "app.teardown"}) {
    EXPECT_NE(text.find(std::string("\"") + span + "\""), std::string::npos) << span;
  }
  if (GetParam() == "serve_mix") {
    for (const char* span : {"\"job\"", "serve.admit", "serve.queue", "farm.queue", "farm.run"}) {
      EXPECT_NE(text.find(span), std::string::npos) << span;
    }
  }
  std::filesystem::remove(o.trace_path);
}

INSTANTIATE_TEST_SUITE_P(All, EveryWorkload,
                         ::testing::Values("decode_cif", "transcode_cif", "serve_mix"));

TEST(LoadPlan, IsAPureFunctionOfTheSeed) {
  const LoadPlan a = makeLoadPlan(7, 500, 80.0);
  const LoadPlan b = makeLoadPlan(7, 500, 80.0);
  const LoadPlan c = makeLoadPlan(8, 500, 80.0);
  ASSERT_EQ(a.jobs.size(), 500u);
  EXPECT_EQ(a.specs, b.specs);
  EXPECT_NE(a.specs, c.specs);
  bool differs_seed = false;
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].spec, b.jobs[i].spec);
    EXPECT_EQ(a.jobs[i].tenant, b.jobs[i].tenant);
    EXPECT_EQ(a.jobs[i].due_s, b.jobs[i].due_s);
    differs_seed = differs_seed || a.jobs[i].due_s != c.jobs[i].due_s;
  }
  EXPECT_TRUE(differs_seed);
}

TEST(LoadPlan, HasTheExactJobComposition) {
  const auto comp = composition(1600);
  EXPECT_EQ(comp[0], 992u);  // tiny decodes take the remainder
  EXPECT_EQ(comp[1], 352u);
  EXPECT_EQ(comp[2], 160u);
  EXPECT_EQ(comp[3], 48u);
  EXPECT_EQ(comp[4], 48u);
  for (std::size_t n : {1u, 7u, 99u, 800u, 1601u}) {
    std::size_t sum = 0;
    for (std::size_t c : composition(n)) sum += c;
    EXPECT_EQ(sum, n);
  }
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const LoadPlan p = makeLoadPlan(seed, 1600, 60.0);
    std::array<std::size_t, kJobClasses> seen{};
    double prev = 0.0;
    for (const PlannedJob& j : p.jobs) {
      ++seen[static_cast<std::size_t>(p.spec_class[j.spec])];
      EXPECT_GT(j.due_s, prev);
      EXPECT_TRUE(j.tenant == 0 || j.tenant == 1);
      prev = j.due_s;
    }
    EXPECT_EQ(seen, comp);
    EXPECT_NEAR(prev, 1600 / 60.0, 2.5);  // Poisson arrivals at the offered rate
  }
}

TEST(LoadPlan, WarmupSendsEveryDistinctSpecOnce) {
  const LoadPlan w = warmupPlan(3);
  ASSERT_EQ(w.jobs.size(), w.specs.size());
  for (std::size_t i = 0; i < w.jobs.size(); ++i) EXPECT_EQ(w.jobs[i].spec, i);
  EXPECT_EQ(std::set<std::string>(w.specs.begin(), w.specs.end()).size(), w.specs.size());
}

TEST(Stats, TailIsTheHighestPercentileWithTenSamplesBeyondIt) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(101 - i);  // unsorted on purpose
  Tail t = tailPercentile(v);
  EXPECT_EQ(t.value, 90.0);
  EXPECT_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.samples, 100u);
  EXPECT_EQ(t.beyond, 10u);

  v.resize(11);  // 100..90: one sample with ten above it
  t = tailPercentile(v);
  EXPECT_EQ(t.value, 90.0);
  EXPECT_NEAR(t.percentile, 100.0 / 11.0, 1e-12);

  v.resize(10);  // too few: the maximum, with nothing beyond it
  t = tailPercentile(v);
  EXPECT_EQ(t.value, 100.0);
  EXPECT_EQ(t.beyond, 0u);

  v.assign(1000, 1.0);
  v[995] = 50.0;
  t = tailPercentile(v);  // p99 of 1000: the 990th value
  EXPECT_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.value, 1.0);
}

TEST(Stats, MedianAndQuartilesInterpolate) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.25), 2.0);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren) {
  Span parent{"unit", 0, -1, 0.0, 100.0, 0, false};
  Span a{"app.build", 1, 0, 10.0, 30.0, 0, false};
  Span b{"app.run", 2, 0, 20.0, 50.0, 0, false};     // overlaps a
  Span c{"app.verify", 3, 0, 90.0, 120.0, 0, false};  // sticks out of the parent
  EXPECT_DOUBLE_EQ(selfTimeUs(parent, {&a, &b, &c}), 100.0 - 40.0 - 10.0);
  EXPECT_DOUBLE_EQ(selfTimeUs(parent, {}), 100.0);
  EXPECT_DOUBLE_EQ(selfTimeUs(a, {}), 20.0);

  const auto by_layer = selfTimeByLayerUs({parent, a, b, c});
  EXPECT_DOUBLE_EQ(by_layer.at("bench"), 50.0);
  EXPECT_DOUBLE_EQ(by_layer.at("app"), 20.0 + 30.0 + 30.0);
  EXPECT_EQ(spanLayer("serve.admit"), "serve");
  EXPECT_EQ(spanLayer("job"), "bench");
}

TEST(Report, ExactRepeatRecordCatchesADifference) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "perfbench-record-test.txt").string();
  std::filesystem::remove(path);
  std::string why;
  EXPECT_TRUE(checkRecord(path, "cycles=1 events=2", why));   // first run writes
  EXPECT_TRUE(checkRecord(path, "cycles=1 events=2", why));   // same totals pass
  EXPECT_FALSE(checkRecord(path, "cycles=1 events=3", why));  // any change fails
  EXPECT_NE(why.find("events=3"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Report, ResultJsonKeepsEveryDigit) {
  EXPECT_EQ(jsonNumber(0.1), "0.1");
  EXPECT_EQ(jsonNumber(2747849.0), "2747849");
  EXPECT_EQ(jsonNumber(1.0 / 3.0), "0.3333333333333333");
  EXPECT_EQ(resultJson(true, 3, 0, {{"setup_s", 1.5, "s"}}),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}}}");
}
