//===- tests/obs/obs_slo_test.cpp --------------------------------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// SLO rules over the telemetry window: the spec grammar, the evaluation
// semantics (breach, recovery, no-data-is-not-a-breach), and the exported
// gauge block every scrape carries.
//
//===----------------------------------------------------------------------===//

#include "obs/live/slo.h"

#include "obs/export.h"

#include <gtest/gtest.h>

using namespace dragon4::obs;
using namespace dragon4::obs::live;

namespace {

Snapshot latencySnap(uint64_t Count, uint64_t BaseNanos) {
  Snapshot Snap;
  Snap.addCounter("dragon4_conversions_total", Count);
  Log2Histogram H;
  for (uint64_t I = 0; I < Count; ++I)
    H.record(BaseNanos + I);
  Snap.Histograms.push_back(
      summarize("dragon4_latency_ns", H,
                {{"format", "binary64"}, {"path", "ryu"}}));
  return Snap;
}

TEST(SloParse, FullSpec) {
  std::string Err;
  auto Rule = SloSet::parse(
      "ryu64:dragon4_latency_ns{format=binary64,path=ryu}:p99:2000", &Err);
  ASSERT_TRUE(Rule.has_value()) << Err;
  EXPECT_EQ(Rule->Name, "ryu64");
  EXPECT_EQ(Rule->Family, "dragon4_latency_ns");
  ASSERT_EQ(Rule->Labels.size(), 2u);
  EXPECT_EQ(Rule->Labels[0].first, "format");
  EXPECT_EQ(Rule->Labels[0].second, "binary64");
  EXPECT_EQ(Rule->Labels[1].first, "path");
  EXPECT_EQ(Rule->Labels[1].second, "ryu");
  EXPECT_DOUBLE_EQ(Rule->Percentile, 99);
  EXPECT_DOUBLE_EQ(Rule->MaxValue, 2000);
}

TEST(SloParse, NoLabels) {
  auto Rule = SloSet::parse("lat:dragon4_latency_ns:p50:100");
  ASSERT_TRUE(Rule.has_value());
  EXPECT_TRUE(Rule->Labels.empty());
  EXPECT_DOUBLE_EQ(Rule->Percentile, 50);
}

TEST(SloParse, RejectsMalformedSpecs) {
  std::string Err;
  EXPECT_FALSE(SloSet::parse("", &Err).has_value());
  EXPECT_FALSE(SloSet::parse("nameonly", &Err).has_value());
  EXPECT_FALSE(SloSet::parse("n:fam:p99", &Err).has_value()); // No max.
  EXPECT_FALSE(SloSet::parse("n:fam:99:10", &Err).has_value()); // No 'p'.
  EXPECT_FALSE(SloSet::parse("n:fam:p97:10", &Err).has_value()); // Bad pct.
  EXPECT_FALSE(SloSet::parse("n:fam{k=v:p99:10", &Err).has_value());
  EXPECT_FALSE(SloSet::parse("n:fam{=v}:p99:10", &Err).has_value());
  EXPECT_FALSE(SloSet::parse("n:fam:p99:-5", &Err).has_value());
  EXPECT_FALSE(Err.empty());
  EXPECT_NE(Err.find("NAME:FAMILY"), std::string::npos); // Usage hint.
}

TEST(SloEvaluate, BreachAndRecovery) {
  SloSet Set;
  auto Rule = SloSet::parse(
      "ryu64:dragon4_latency_ns{format=binary64,path=ryu}:p99:1000");
  ASSERT_TRUE(Rule.has_value());
  Set.add(*Rule);

  // Window 1: all latencies far above the 1000ns ceiling -> breach.
  WindowedAggregator Agg(8);
  Agg.push(0, latencySnap(10, 1000000));
  Agg.push(1000000000ull, latencySnap(200, 1000000));
  Set.evaluate(Agg.view());
  ASSERT_EQ(Set.statuses().size(), 1u);
  EXPECT_TRUE(Set.statuses()[0].Breached);
  EXPECT_GT(Set.statuses()[0].Observed, 1000.0);
  EXPECT_EQ(Set.statuses()[0].Breaches, 1u);
  EXPECT_EQ(Set.statuses()[0].Evaluations, 1u);

  // Window 2: traffic recovered to ~100ns -> the SLO recovers with it.
  WindowedAggregator Fast(8);
  Fast.push(0, latencySnap(10, 100));
  Fast.push(1000000000ull, latencySnap(200, 100));
  Set.evaluate(Fast.view());
  EXPECT_FALSE(Set.statuses()[0].Breached);
  EXPECT_EQ(Set.statuses()[0].Breaches, 1u);
  EXPECT_EQ(Set.statuses()[0].Evaluations, 2u);
}

TEST(SloEvaluate, NoDataIsNotABreach) {
  SloSet Set;
  auto Rule = SloSet::parse(
      "quiet:dragon4_latency_ns{path=dragon4,format=binary16}:p99:10");
  ASSERT_TRUE(Rule.has_value());
  Set.add(*Rule);

  // The window has latency data, but none under this rule's selector.
  WindowedAggregator Agg(8);
  Agg.push(0, latencySnap(10, 1000000));
  Agg.push(1000, latencySnap(20, 1000000));
  Set.evaluate(Agg.view());
  EXPECT_FALSE(Set.statuses()[0].Breached);
  EXPECT_FALSE(Set.statuses()[0].Evaluated);
  EXPECT_EQ(Set.statuses()[0].Evaluations, 0u);

  // An invalid (still-filling) view changes nothing either.
  Set.evaluate(WindowView{});
  EXPECT_EQ(Set.statuses()[0].Evaluations, 0u);
}

TEST(SloExport, GaugeBlock) {
  SloSet Set;
  auto A = SloSet::parse("a:dragon4_latency_ns:p99:1");
  auto B = SloSet::parse("b \"x\":dragon4_latency_ns:p99:1000000000");
  ASSERT_TRUE(A.has_value());
  ASSERT_TRUE(B.has_value());
  Set.add(*A);
  Set.add(*B);
  WindowedAggregator Agg(8);
  Agg.push(0, latencySnap(10, 5000));
  Agg.push(1000000000ull, latencySnap(100, 5000));
  Set.evaluate(Agg.view());

  Snapshot Snap;
  Set.exportInto(Snap);
  auto GaugeOf = [&](const std::string &Name) -> uint64_t {
    for (const auto &[K, V] : Snap.Gauges)
      if (K == Name)
        return V;
    ADD_FAILURE() << "missing gauge " << Name;
    return ~0ull;
  };
  // Rule a (ceiling 1ns) is breached, rule b (1s) is not; note the label
  // value escaping on b's name.
  EXPECT_EQ(GaugeOf("dragon4_slo_breached{slo=\"a\"}"), 1u);
  EXPECT_EQ(GaugeOf("dragon4_slo_breached{slo=\"b \\\"x\\\"\"}"), 0u);
  // Families are contiguous in the export so the Prometheus renderer
  // emits one TYPE header per family.
  size_t FirstBreaches = std::string::npos, FirstEvals = std::string::npos;
  for (size_t I = 0; I < Snap.Counters.size(); ++I) {
    const std::string &Name = Snap.Counters[I].first;
    if (Name.rfind("dragon4_slo_breaches_total", 0) == 0 &&
        FirstBreaches == std::string::npos)
      FirstBreaches = I;
    if (Name.rfind("dragon4_slo_evaluations_total", 0) == 0 &&
        FirstEvals == std::string::npos)
      FirstEvals = I;
  }
  ASSERT_NE(FirstBreaches, std::string::npos);
  ASSERT_NE(FirstEvals, std::string::npos);
  EXPECT_EQ(FirstEvals, FirstBreaches + 2); // Both breach counters first.
  // The comparison pair rides in derived.
  bool SawObserved = false, SawThreshold = false;
  for (const auto &[K, V] : Snap.Derived) {
    if (K == "slo_observed{slo=\"a\"}") {
      SawObserved = true;
      EXPECT_GT(V, 1.0);
    }
    if (K == "slo_threshold{slo=\"a\"}") {
      SawThreshold = true;
      EXPECT_DOUBLE_EQ(V, 1.0);
    }
  }
  EXPECT_TRUE(SawObserved);
  EXPECT_TRUE(SawThreshold);
}

} // namespace
