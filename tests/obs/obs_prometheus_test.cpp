//===- tests/obs/obs_prometheus_test.cpp -------------------------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Conformance of the Prometheus text exposition: the full /metrics payload
// is re-parsed line by line and checked against the format rules a real
// scraper enforces -- HELP/TYPE exactly once per family and before its
// samples, families contiguous, label values escaped, histogram buckets
// cumulative with le ascending and +Inf last, labeled _sum/_count present.
// The input snapshot is deliberately hostile: label values containing
// backslashes, quotes, and newlines.
//
//===----------------------------------------------------------------------===//

#include "obs/export.h"

#include "dragon4.h"
#include "obs/exemplar/exemplar.h"
#include "obs/registry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

using namespace dragon4;
using namespace dragon4::obs;

namespace {

struct Sample {
  std::string Family; ///< Metric name with any _bucket/_sum/_count kept.
  std::vector<std::pair<std::string, std::string>> Labels; ///< Unescaped.
  double Value = 0;
};

struct Exposition {
  std::vector<std::string> HelpOrder; ///< Families in HELP order.
  std::map<std::string, std::string> Help;
  std::map<std::string, std::string> Type;
  std::vector<Sample> Samples;
};

/// Parses one escaped label value; fails the test on an invalid escape.
std::string unescapeLabelValue(const std::string &Raw, bool &Ok) {
  std::string Out;
  for (size_t I = 0; I < Raw.size(); ++I) {
    char C = Raw[I];
    if (C == '\n' || C == '"') {
      Ok = false; // Raw newline/quote inside a label value is malformed.
      return Out;
    }
    if (C != '\\') {
      Out += C;
      continue;
    }
    if (++I >= Raw.size()) {
      Ok = false;
      return Out;
    }
    char E = Raw[I];
    if (E == '\\' || E == '"')
      Out += E;
    else if (E == 'n')
      Out += '\n';
    else {
      Ok = false; // Prometheus only defines \\, \", \n in label values.
      return Out;
    }
  }
  Ok = true;
  return Out;
}

bool validMetricName(const std::string &Name) {
  if (Name.empty())
    return false;
  for (size_t I = 0; I < Name.size(); ++I) {
    char C = Name[I];
    bool Alpha = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
                 C == '_' || C == ':';
    bool Digit = C >= '0' && C <= '9';
    if (!(Alpha || (Digit && I > 0)))
      return false;
  }
  return true;
}

/// Line-by-line parser of the text exposition; EXPECTs on every format
/// rule so a violation names the offending line.  Out-param (not a return
/// value) because gtest's ASSERT macros need a void function.
void parseExposition(const std::string &Text, Exposition &E) {
  size_t Pos = 0;
  ASSERT_FALSE(Text.empty());
  EXPECT_EQ(Text.back(), '\n') << "exposition must end with a newline";
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    ASSERT_NE(Eol, std::string::npos);
    std::string Line = Text.substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    ASSERT_FALSE(Line.empty()) << "blank line in exposition";

    if (Line.rfind("# HELP ", 0) == 0 || Line.rfind("# TYPE ", 0) == 0) {
      bool IsHelp = Line[2] == 'H';
      std::string Rest = Line.substr(7);
      size_t Space = Rest.find(' ');
      ASSERT_NE(Space, std::string::npos) << Line;
      std::string Family = Rest.substr(0, Space);
      std::string Payload = Rest.substr(Space + 1);
      EXPECT_TRUE(validMetricName(Family)) << Line;
      if (IsHelp) {
        EXPECT_EQ(E.Help.count(Family), 0u)
            << "duplicate HELP for " << Family;
        EXPECT_FALSE(Payload.empty()) << "empty HELP for " << Family;
        E.Help[Family] = Payload;
        E.HelpOrder.push_back(Family);
      } else {
        EXPECT_EQ(E.Type.count(Family), 0u)
            << "duplicate TYPE for " << Family;
        EXPECT_TRUE(Payload == "counter" || Payload == "gauge" ||
                    Payload == "histogram" || Payload == "summary" ||
                    Payload == "untyped")
            << Line;
        // TYPE must follow its HELP immediately in our exporter's layout
        // (and always precede the family's samples, checked below).
        EXPECT_EQ(E.Help.count(Family), 1u)
            << "TYPE before HELP for " << Family;
        E.Type[Family] = Payload;
      }
      continue;
    }

    ASSERT_NE(Line[0], '#') << "unknown comment line: " << Line;
    Sample S;
    size_t Brace = Line.find('{');
    size_t NameEnd;
    if (Brace != std::string::npos && Brace < Line.find(' ')) {
      NameEnd = Brace;
      size_t Cursor = Brace + 1;
      while (Cursor < Line.size() && Line[Cursor] != '}') {
        size_t Eq = Line.find('=', Cursor);
        ASSERT_NE(Eq, std::string::npos) << Line;
        std::string Key = Line.substr(Cursor, Eq - Cursor);
        EXPECT_TRUE(validMetricName(Key)) << "label key in " << Line;
        ASSERT_EQ(Line[Eq + 1], '"') << Line;
        // Scan to the closing unescaped quote.
        size_t ValEnd = Eq + 2;
        while (ValEnd < Line.size() &&
               !(Line[ValEnd] == '"' && Line[ValEnd - 1] != '\\'))
          ++ValEnd;
        ASSERT_LT(ValEnd, Line.size()) << "unterminated label in " << Line;
        bool Ok = false;
        std::string Value =
            unescapeLabelValue(Line.substr(Eq + 2, ValEnd - Eq - 2), Ok);
        EXPECT_TRUE(Ok) << "bad escape in " << Line;
        S.Labels.emplace_back(std::move(Key), std::move(Value));
        Cursor = ValEnd + 1;
        if (Cursor < Line.size() && Line[Cursor] == ',')
          ++Cursor;
      }
      ASSERT_LT(Cursor, Line.size()) << Line;
      size_t Space = Cursor + 1;
      ASSERT_LT(Space, Line.size()) << Line;
      ASSERT_EQ(Line[Space], ' ') << Line;
      S.Value = std::strtod(Line.c_str() + Space + 1, nullptr);
    } else {
      size_t Space = Line.find(' ');
      ASSERT_NE(Space, std::string::npos) << Line;
      NameEnd = Space;
      S.Value = std::strtod(Line.c_str() + Space + 1, nullptr);
    }
    S.Family = Line.substr(0, NameEnd);
    EXPECT_TRUE(validMetricName(S.Family)) << Line;
    E.Samples.push_back(std::move(S));
  }
  ASSERT_FALSE(E.Samples.empty());
}

/// Strips the histogram suffixes back to the declared family name.
std::string baseFamily(const std::string &Name) {
  for (const char *Suffix : {"_bucket", "_sum", "_count"}) {
    size_t Len = std::strlen(Suffix);
    if (Name.size() > Len && Name.compare(Name.size() - Len, Len, Suffix) == 0) {
      std::string Base = Name.substr(0, Name.size() - Len);
      return Base;
    }
  }
  return Name;
}

/// A snapshot exercising every metric kind plus hostile label values.
Snapshot hostileSnapshot() {
  engine::EngineStats Stats;
  Stats.Conversions = 12345;
  Stats.RyuHits = 12000;
  Stats.SlowPathDirect = 345;
  Stats.Batches = 3;
  Stats.BatchValues = 12345;
  Stats.BatchNanos = 98765432;
  Stats.ArenaHighWaterBytes = 65536;

  Registry Reg;
  for (uint64_t I = 1; I <= 100; ++I)
    Reg.recordPathLatency(FormatId::Binary64, PathClass::Ryu, 500 + I);
  for (uint64_t I = 1; I <= 10; ++I)
    Reg.recordPathLatency(FormatId::Binary32, PathClass::Dragon4,
                          20000 + I * 1000);
  Snapshot Snap = makeSnapshot(Stats, &Reg);

  // Hostile series: label values with every character the escaper must
  // handle, in gauges and in a histogram.
  Snap.addGauge("dragon4_slo_breached{slo=\"back\\\\slash\"}", 1);
  Snap.addGauge("dragon4_slo_breached{slo=\"quo\\\"te\"}", 0);
  Log2Histogram Hostile;
  Hostile.record(10);
  Hostile.record(1000);
  Snap.Histograms.push_back(
      summarize("dragon4_latency_ns", Hostile,
                {{"format", "line\nbreak"}, {"path", "a\\b\"c"}}));
  return Snap;
}

TEST(PrometheusExposition, ParsesBackConformant) {
  Snapshot Snap = hostileSnapshot();
  std::string Text = renderPrometheus(Snap);
  Exposition E;
  parseExposition(Text, E);
  if (HasFatalFailure())
    return;

  // -- Every sample belongs to a declared family, typed correctly for the
  //    suffix it uses.
  for (const Sample &S : E.Samples) {
    std::string Base = baseFamily(S.Family);
    bool Suffixed = Base != S.Family;
    if (Suffixed && E.Type.count(Base) && E.Type.at(Base) == "histogram") {
      // _bucket/_sum/_count of a declared histogram: fine.
      continue;
    }
    ASSERT_EQ(E.Type.count(S.Family), 1u)
        << "sample without TYPE: " << S.Family;
    EXPECT_NE(E.Type.at(S.Family), "histogram")
        << "bare sample of a histogram family: " << S.Family;
  }

  // -- HELP and TYPE come in matched pairs.
  EXPECT_EQ(E.Help.size(), E.Type.size());
  for (const auto &[Family, Unused] : E.Help)
    EXPECT_EQ(E.Type.count(Family), 1u) << "HELP without TYPE: " << Family;

  // -- Families are contiguous: walking the samples, once a family ends
  //    it never reappears.
  std::set<std::string> Closed;
  std::string Current;
  for (const Sample &S : E.Samples) {
    std::string Base = baseFamily(S.Family);
    if (E.Type.count(Base) == 0)
      Base = S.Family;
    if (Base != Current) {
      EXPECT_EQ(Closed.count(Base), 0u)
          << "family split into two blocks: " << Base;
      if (!Current.empty())
        Closed.insert(Current);
      Current = Base;
    }
  }

  // -- The hostile label values round-trip exactly.
  bool SawBackslash = false, SawQuote = false, SawNewline = false;
  for (const Sample &S : E.Samples) {
    for (const auto &[Key, Value] : S.Labels) {
      if (Value == "back\\slash")
        SawBackslash = true;
      if (Value == "quo\"te")
        SawQuote = true;
      if (Value == "line\nbreak")
        SawNewline = true;
    }
  }
  EXPECT_TRUE(SawBackslash);
  EXPECT_TRUE(SawQuote);
  EXPECT_TRUE(SawNewline);

  // -- Histogram structure: per label-set, le ascending, counts
  //    cumulative (non-decreasing), +Inf last and equal to _count, _sum
  //    present with the same labels.
  struct HistSeries {
    std::vector<std::pair<double, double>> Buckets; ///< (le, cumulative).
    bool SawInf = false;
    double InfCount = 0, Count = -1, Sum = -1;
  };
  std::map<std::string, HistSeries> Series;
  auto KeyOf = [](const Sample &S) {
    std::string Key;
    for (const auto &[K, V] : S.Labels)
      if (K != "le") {
        Key += K;
        Key += '=';
        Key += V;
        Key += ';';
      }
    return Key;
  };
  for (const Sample &S : E.Samples) {
    std::string Base = baseFamily(S.Family);
    if (E.Type.count(Base) == 0 || E.Type.at(Base) != "histogram")
      continue;
    HistSeries &H = Series[Base + "|" + KeyOf(S)];
    if (S.Family == Base + "_sum") {
      H.Sum = S.Value;
    } else if (S.Family == Base + "_count") {
      H.Count = S.Value;
    } else {
      const std::string *Le = nullptr;
      for (const auto &[K, V] : S.Labels)
        if (K == "le")
          Le = &V;
      ASSERT_NE(Le, nullptr) << "bucket without le";
      // le must come last so every series in the family shares the
      // label prefix.
      EXPECT_EQ(S.Labels.back().first, "le");
      if (*Le == "+Inf") {
        H.SawInf = true;
        H.InfCount = S.Value;
      } else {
        H.Buckets.emplace_back(std::strtod(Le->c_str(), nullptr), S.Value);
      }
    }
  }
  EXPECT_GE(Series.size(), 3u); // Two latency cells + the hostile one.
  for (const auto &[Key, H] : Series) {
    EXPECT_TRUE(H.SawInf) << Key;
    EXPECT_GE(H.Count, 0) << Key << " missing _count";
    EXPECT_GE(H.Sum, 0) << Key << " missing _sum";
    EXPECT_EQ(H.InfCount, H.Count) << Key;
    for (size_t I = 1; I < H.Buckets.size(); ++I) {
      EXPECT_GT(H.Buckets[I].first, H.Buckets[I - 1].first) << Key;
      EXPECT_GE(H.Buckets[I].second, H.Buckets[I - 1].second)
          << Key << ": buckets must be cumulative";
    }
    if (!H.Buckets.empty()) {
      EXPECT_LE(H.Buckets.back().second, H.InfCount) << Key;
    }
  }

  // -- The known families carry real prose, not the generic fallback.
  ASSERT_EQ(E.Help.count("dragon4_conversions_total"), 1u);
  EXPECT_NE(E.Help.at("dragon4_conversions_total").find("shortest"),
            std::string::npos);
  ASSERT_EQ(E.Help.count("dragon4_latency_ns"), 1u);
  EXPECT_EQ(E.Type.at("dragon4_latency_ns"), "histogram");
}

/// Splits \p Text into lines (no trailing empties).
std::vector<std::string> splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Text.size();
    Lines.push_back(Text.substr(Pos, Eol - Pos));
    Pos = Eol + 1;
  }
  return Lines;
}

TEST(PrometheusExposition, ExemplarAnnotationsParseBack) {
  using exemplar::ExemplarReservoir;
  engine::EngineStats Stats;
  Stats.Conversions = 100;
  Registry Reg;
  for (uint64_t I = 1; I <= 50; ++I)
    Reg.recordPathLatency(FormatId::Binary64, PathClass::Ryu, 100 + I);
  Reg.recordPathLatency(FormatId::Binary32, PathClass::Dragon4, 9000);

  ExemplarReservoir Res(8);
  exemplar::ExemplarRecord R;
  R.BitsLo = 0x7fefffffffffffff;
  R.LatencyNanos = 140;
  R.TimestampNanos = 5000000000; // 5.0 s monotonic.
  R.DigitsEmitted = 17;
  R.Fmt = FormatId::Binary64;
  R.PathC = PathClass::Ryu;
  Res.consider(R, 1);

  std::string Text = renderPrometheus(makeSnapshot(Stats, &Reg, &Res));

  // The whole payload must still parse as a conformant exposition (the
  // parser tolerates trailing exemplar text after a sample value).
  Exposition E;
  parseExposition(Text, E);
  if (HasFatalFailure())
    return;

  size_t ExemplarLines = 0;
  for (const std::string &Line : splitLines(Text)) {
    size_t Hash = Line.find(" # {");
    if (Hash == std::string::npos) {
      // A sample line without an exemplar must not leak stray " # "
      // fragments (comment lines are exempt: they start with '#').
      if (!Line.empty() && Line[0] != '#') {
        EXPECT_EQ(Line.find(" # "), std::string::npos) << Line;
      }
      continue;
    }
    ++ExemplarLines;
    // Exemplars ride bucket samples only, and only the +Inf bucket.
    EXPECT_NE(Line.find("_bucket{"), std::string::npos) << Line;
    EXPECT_NE(Line.find("le=\"+Inf\""), std::string::npos) << Line;
    // Syntax: ... # {k="v",...} VALUE TIMESTAMP
    size_t LabelEnd = Line.find('}', Hash + 4);
    ASSERT_NE(LabelEnd, std::string::npos) << Line;
    std::string Labels = Line.substr(Hash + 4, LabelEnd - Hash - 4);
    EXPECT_NE(Labels.find("bits=\"0x7fefffffffffffff\""), std::string::npos)
        << Line;
    EXPECT_NE(Labels.find("path=\"ryu\""), std::string::npos) << Line;
    // Value + timestamp trail the label set.
    double Value = 0, Ts = 0;
    ASSERT_EQ(std::sscanf(Line.c_str() + LabelEnd + 1, "%lf %lf", &Value,
                          &Ts),
              2)
        << Line;
    EXPECT_EQ(Value, 140.0);
    EXPECT_DOUBLE_EQ(Ts, 5.0);
    // The annotated series is the one the capture belongs to.
    EXPECT_NE(Line.find("format=\"binary64\""), std::string::npos) << Line;
    EXPECT_NE(Line.find("path=\"ryu\",le="), std::string::npos) << Line;
  }
  // Exactly one series captured -> exactly one exemplar line; the
  // binary32/dragon4 series (no capture) carries none.
  EXPECT_EQ(ExemplarLines, 1u);

  // And with no reservoir at all, nothing changes shape: no exemplar
  // fragments anywhere.
  std::string Plain = renderPrometheus(makeSnapshot(Stats, &Reg));
  EXPECT_EQ(Plain.find(" # {"), std::string::npos);
}

TEST(PrometheusExposition, ExemplarLabelValuesEscaped) {
  // A hostile bits/path pair never leaves the quoted exemplar label set
  // unescaped.  The reservoir itself only produces hex and path names,
  // but the escaper is shared -- prove it at this layer anyway.
  Snapshot Snap;
  engine::EngineStats Stats;
  Registry Reg;
  Reg.recordPathLatency(FormatId::Binary64, PathClass::Ryu, 100);
  Snap = makeSnapshot(Stats, &Reg);
  for (SnapshotHistogram &H : Snap.Histograms) {
    if (H.Name != "dragon4_latency_ns")
      continue;
    H.HasExemplar = true;
    H.ExemplarLabels = {{"bits", "a\"b\\c\nd"}, {"path", "ryu"}};
    H.ExemplarValue = 7;
    H.ExemplarTimestamp = 1.5;
  }
  std::string Text = renderPrometheus(Snap);
  size_t Hash = Text.find(" # {");
  ASSERT_NE(Hash, std::string::npos);
  EXPECT_NE(Text.find("bits=\"a\\\"b\\\\c\\nd\"", Hash), std::string::npos);
}

TEST(PrometheusExposition, EscapeLabelValue) {
  EXPECT_EQ(promEscapeLabelValue("plain"), "plain");
  EXPECT_EQ(promEscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(promEscapeLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(promEscapeLabelValue("a\nb"), "a\\nb");
  EXPECT_EQ(promEscapeLabelValue("\\\"\n"), "\\\\\\\"\\n");
}

TEST(PrometheusExposition, PromSeries) {
  EXPECT_EQ(promSeries("m", {}), "m");
  EXPECT_EQ(promSeries("m", {{"a", "1"}, {"b", "x\"y"}}),
            "m{a=\"1\",b=\"x\\\"y\"}");
}

} // namespace
