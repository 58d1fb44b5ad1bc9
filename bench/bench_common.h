//===- bench/bench_common.h - Shared harness helpers -------------*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by every bench_* binary: wall-clock timing on the prof
/// clock, the Schryer workload with optional subsampling (set
/// DRAGON4_BENCH_QUICK=1 for a 1/16 sample on slow machines), a digit sink
/// that defeats the optimizer the same way the paper "printed to /dev/null
/// in order to factor out I/O performance" -- and the one emitter of the
/// dragon4.bench.v1 result schema.
///
/// Every bench accepts two uniform flags:
///
///   --bench-json=FILE     write the run's dragon4.bench.v1 object to FILE
///   --bench-history=FILE  append the run as one JSONL line (the committed
///                         BENCH_history.jsonl format bench_check.py's
///                         trend detector reads)
///
/// Schema: {"schema": "dragon4.bench.v1", "bench": <name>, "context": {..},
/// "metrics": {..}, "derived": {..}}.  "metrics" holds only comparable
/// lower-is-better nanosecond costs (the gated surface); counts, ratios,
/// and rates go in "derived"; "context" describes the run.  Every report's
/// context carries two provenance stamps: "build_type" (the binary's
/// CMAKE_BUILD_TYPE) and "revision" (`git rev-parse HEAD` of the source
/// tree at run time, or "unavailable" outside a work tree), which
/// bench_check.py uses to warn when a baseline no longer describes the
/// code it gates.
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_BENCH_BENCH_COMMON_H
#define DRAGON4_BENCH_BENCH_COMMON_H

#include "core/digits.h"
#include "prof/clock.h"
#include "testgen/schryer.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <utility>
#include <vector>

namespace dragon4::bench {

/// Seconds of wall-clock time spent running \p Body once (the shared prof
/// clock, so bench numbers and obs/phase exports share a timebase).
template <typename Fn> double timeSeconds(Fn &&Body) {
  return prof::timeSeconds(static_cast<Fn &&>(Body));
}

/// The paper's workload (or a 1/16 sample with DRAGON4_BENCH_QUICK=1).
inline std::vector<double> benchWorkload() {
  std::vector<double> Values = schryerDoubles();
  const char *Quick = std::getenv("DRAGON4_BENCH_QUICK");
  if (Quick && Quick[0] == '1') {
    std::vector<double> Sampled;
    Sampled.reserve(Values.size() / 16 + 1);
    for (size_t I = 0; I < Values.size(); I += 16)
      Sampled.push_back(Values[I]);
    Values = std::move(Sampled);
  }
  return Values;
}

/// Accumulates digits so conversions cannot be optimized away; the final
/// value is printed once (the moral equivalent of /dev/null).
struct DigitSink {
  uint64_t Hash = 0;
  void consume(const DigitString &Digits) {
    for (uint8_t Digit : Digits.Digits)
      Hash = Hash * 31 + Digit;
    Hash += static_cast<uint64_t>(Digits.K);
  }
  void consume(const std::string &Text) {
    for (char C : Text)
      Hash = Hash * 31 + static_cast<unsigned char>(C);
  }
  /// Prints the accumulated checksum (keeps the work observable).
  void report() const { std::printf("(sink checksum %016llx)\n",
                                    static_cast<unsigned long long>(Hash)); }
};

//===----------------------------------------------------------------------===//
// The dragon4.bench.v1 emitter
//===----------------------------------------------------------------------===//

namespace detail {

/// Minimal JSON string escaping (keys and context values are plain ASCII;
/// this keeps pathological labels from corrupting the file).
inline std::string jsonEscape(const std::string &In) {
  std::string Out;
  Out.reserve(In.size());
  for (char C : In) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out;
}

inline std::string jsonNumber(double Value) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6g", Value);
  return Buf;
}

/// The binary's CMAKE_BUILD_TYPE (set by bench/CMakeLists.txt).
inline const char *buildType() {
#ifdef DRAGON4_BUILD_TYPE
  return DRAGON4_BUILD_TYPE[0] ? DRAGON4_BUILD_TYPE : "unspecified";
#else
  return "unspecified";
#endif
}

/// `git rev-parse HEAD` of the source tree this binary was built from,
/// read once per process; "unavailable" outside a work tree or without git.
inline const std::string &sourceRevision() {
  static const std::string Revision = [] {
    std::string Command = "git ";
#ifdef DRAGON4_SOURCE_DIR
    Command += "-C '" DRAGON4_SOURCE_DIR "' ";
#endif
    Command += "rev-parse HEAD 2>/dev/null";
    std::string Out;
    if (std::FILE *Pipe = popen(Command.c_str(), "r")) {
      char Buf[128];
      while (std::fgets(Buf, sizeof(Buf), Pipe))
        Out += Buf;
      if (pclose(Pipe) != 0)
        Out.clear();
    }
    while (!Out.empty() && (Out.back() == '\n' || Out.back() == '\r'))
      Out.pop_back();
    return Out.empty() ? std::string("unavailable") : Out;
  }();
  return Revision;
}

} // namespace detail

/// One bench run's results, rendered as dragon4.bench.v1.  Metrics are
/// lower-is-better nanosecond costs (what bench_check.py gates); ratios,
/// counts, and rates belong in derived; context describes the run.
class BenchReport {
public:
  explicit BenchReport(std::string BenchName) : Bench(std::move(BenchName)) {}

  const std::string &name() const { return Bench; }

  void context(const std::string &Key, const std::string &Value) {
    Context.emplace_back(Key, '"' + detail::jsonEscape(Value) + '"');
  }
  void context(const std::string &Key, const char *Value) {
    context(Key, std::string(Value));
  }
  void context(const std::string &Key, uint64_t Value) {
    Context.emplace_back(Key, std::to_string(Value));
  }
  void context(const std::string &Key, bool Value) {
    Context.emplace_back(Key, Value ? "true" : "false");
  }

  /// A gated metric: nanoseconds (per value / per op), lower is better.
  void metric(const std::string &Key, double NanosLowerBetter) {
    Metrics.emplace_back(Key, detail::jsonNumber(NanosLowerBetter));
  }

  /// An informational number (ratio, rate, count) -- reported, not gated.
  void derived(const std::string &Key, double Value) {
    Derived.emplace_back(Key, detail::jsonNumber(Value));
  }

  size_t metricCount() const { return Metrics.size(); }

  /// The full v1 object.  \p Indent selects pretty (multi-line) or the
  /// single-line form used for history records.
  std::string renderJson(bool Pretty = true) const {
    const char *NL = Pretty ? "\n" : "";
    const char *Pad = Pretty ? "  " : "";
    const char *Pad2 = Pretty ? "    " : "";
    std::string Out = "{";
    Out += NL;
    auto Field = [&](const char *Key, const std::string &Rendered,
                     bool Last = false) {
      Out += Pad;
      Out += '"';
      Out += Key;
      Out += "\": ";
      Out += Rendered;
      if (!Last)
        Out += ',';
      Out += NL;
    };
    auto Object =
        [&](const std::vector<std::pair<std::string, std::string>> &KVs) {
          std::string O = "{";
          O += NL;
          for (size_t I = 0; I < KVs.size(); ++I) {
            O += Pad2;
            O += '"';
            O += detail::jsonEscape(KVs[I].first);
            O += "\": ";
            O += KVs[I].second;
            if (I + 1 < KVs.size())
              O += ',';
            O += NL;
          }
          O += Pad;
          O += '}';
          return O;
        };
    Field("schema", "\"dragon4.bench.v1\"");
    Field("bench", '"' + detail::jsonEscape(Bench) + '"');
    if (Timestamp)
      Field("unix_time", std::to_string(Timestamp));
    std::vector<std::pair<std::string, std::string>> Stamped = Context;
    Stamped.emplace_back("build_type",
                         '"' + detail::jsonEscape(detail::buildType()) + '"');
    Stamped.emplace_back(
        "revision", '"' + detail::jsonEscape(detail::sourceRevision()) + '"');
    Field("context", Object(Stamped));
    Field("metrics", Object(Metrics));
    Field("derived", Object(Derived), /*Last=*/true);
    Out += '}';
    if (Pretty)
      Out += '\n';
    return Out;
  }

  bool writeJson(const std::string &Path) const {
    std::FILE *Out = std::fopen(Path.c_str(), "w");
    if (!Out)
      return false;
    std::string Text = renderJson();
    std::fwrite(Text.data(), 1, Text.size(), Out);
    std::fclose(Out);
    return true;
  }

  /// Appends this run as one JSONL line (stamps the current unix time).
  bool appendHistory(const std::string &Path) const {
    std::FILE *Out = std::fopen(Path.c_str(), "a");
    if (!Out)
      return false;
    BenchReport Stamped = *this;
    Stamped.Timestamp = static_cast<uint64_t>(std::time(nullptr));
    std::string Line = Stamped.renderJson(/*Pretty=*/false);
    Line += '\n';
    std::fwrite(Line.data(), 1, Line.size(), Out);
    std::fclose(Out);
    return true;
  }

private:
  std::string Bench;
  uint64_t Timestamp = 0; ///< Set only while rendering a history line.
  std::vector<std::pair<std::string, std::string>> Context;
  std::vector<std::pair<std::string, std::string>> Metrics;
  std::vector<std::pair<std::string, std::string>> Derived;
};

/// The two uniform output flags every bench understands.
struct BenchOutput {
  std::string JsonPath;    ///< --bench-json=FILE
  std::string HistoryPath; ///< --bench-history=FILE

  /// Consumes \p Arg if it is one of the shared flags.
  bool consume(const char *Arg) {
    if (std::strncmp(Arg, "--bench-json=", 13) == 0) {
      JsonPath = Arg + 13;
      return true;
    }
    if (std::strncmp(Arg, "--bench-history=", 16) == 0) {
      HistoryPath = Arg + 16;
      return true;
    }
    return false;
  }
};

/// Writes/appends \p Report per \p Out.  Returns 0, or 1 on I/O failure
/// (benches return this from main so CI catches unwritable paths).
inline int emitBenchReport(BenchReport &Report, const BenchOutput &Out) {
  int Rc = 0;
  if (!Out.JsonPath.empty()) {
    if (Report.writeJson(Out.JsonPath)) {
      std::printf("wrote %s\n", Out.JsonPath.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", Out.JsonPath.c_str());
      Rc = 1;
    }
  }
  if (!Out.HistoryPath.empty()) {
    if (Report.appendHistory(Out.HistoryPath)) {
      std::printf("appended %s to %s\n", Report.name().c_str(),
                  Out.HistoryPath.c_str());
    } else {
      std::fprintf(stderr, "cannot append %s\n", Out.HistoryPath.c_str());
      Rc = 1;
    }
  }
  return Rc;
}

} // namespace dragon4::bench

#endif // DRAGON4_BENCH_BENCH_COMMON_H
