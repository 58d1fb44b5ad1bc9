//===- bench/bench_engine_batch.cpp - Engine vs string API, batch scaling ----===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the engine against the convenience API on uniform-random
/// doubles, and batch conversion across 1/2/4 threads:
///
///   * toShortest (std::string per value, fresh BigInt state per call)
///   * engine::format (char buffer, warm Scratch, arena-backed limbs)
///   * BatchEngine<double>::convert at 1, 2, and 4 threads
///
/// The generic pipeline's other first-class batch formats ride along:
/// BatchEngine<float> over uniform-random binary32 (batch32_* metrics)
/// and BatchEngine<Binary16> over the whole 65536-encoding half space
/// (batch16_* metrics), both on the Ryu rung like binary64.  A
/// default run emits every metric; --format=binary64|binary32|binary16
/// restricts the run to one suite (its metrics keep their names, so
/// bench_check.py compares the subset and warns about the rest).
///
/// Results go to BENCH_engine.json (or argv[1]) in the dragon4.bench.v1
/// schema that tools/bench_check.py compares against a committed baseline;
/// the engine stats block is printed to stdout for the digit-length
/// histogram and fast-path rates.
///
///   ./build/bench/bench_engine_batch [out.json] [count=200000]
///                                    [--format=binary64|binary32|binary16]
///                                    [--surface=to_chars]
///                                    [--corpus=FILE]
///                                    [--stats-json=FILE] [--trace=FILE]
///                                    [--bench-history=FILE]
///                                    [--spin-digit-loop=N]
///
/// --corpus=FILE replaces the random workloads entirely: the verify-corpus
/// records in FILE (e.g. the exemplar corpus tools/exemplar_dump writes
/// from a live service's tail captures) are decoded per format, tiled up
/// to the requested count, and batch-converted as corpus64_*/corpus32_*/
/// corpus16_* metrics -- "how fast are the inputs production found slow".
///
/// The telemetry flags enable 1-in-1 obs sampling, which costs a clock
/// read per conversion -- numbers from such a run are for exploring the
/// telemetry, not for baseline comparisons.  --spin-digit-loop=N plants a
/// synthetic slowdown proportional to the output: N volatile iterations
/// per emitted character, spun by this bench around every timed
/// conversion (batch passes: around each pass, over the whole table).
/// It is the regression the CI self-test plants to prove the
/// bench_check.py trend gate trips; the library itself carries no hook.
///
//===----------------------------------------------------------------------===//

#include "bench_common.h"

#include "dragon4.h"
#include "obs/export.h"
#include "verify/corpus.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace dragon4;
namespace eng = dragon4::engine;

namespace {

/// Each metric is measured once per round and keeps its best round; the
/// rounds run the whole suite in turn, with fresh engines (new pool
/// workers) every time.  Spread over the run this way, a metric survives
/// both hazards of a shared host: a pool worker landing on a slow vCPU for
/// its engine's lifetime (the same binary reads ~70 or ~120 ns/value for
/// binary32 batches on placement alone), and a co-tenant burst that slows
/// every measurement for a second.
constexpr int Rounds = 8;

/// Within a round a metric repeats its pass at least MinPasses times and
/// until MinTimedSeconds / Rounds of passes are timed: a best-of-few over
/// sub-millisecond passes (a small count) sits inside the scheduling noise.
/// Full-size passes reach the floor at once, so it only lengthens small
/// runs.
constexpr int MinPasses = 2;
constexpr int MaxPasses = 1000;
constexpr double MinTimedSeconds = 0.4;

/// True while a round that has timed \p Timed seconds over \p Pass passes
/// must keep going.
bool morePasses(int Pass, double Timed) {
  return Pass < MinPasses ||
         (Timed < MinTimedSeconds / Rounds && Pass < MaxPasses);
}

/// Best wall time of one full pass within one round, in ns per value.
template <typename Fn> double bestNsPerValue(size_t Count, Fn &&Run) {
  double Best = 0, Timed = 0;
  for (int Pass = 0; morePasses(Pass, Timed); ++Pass) {
    const double Seconds = bench::timeSeconds(Run);
    Timed += Seconds;
    if (Pass == 0 || Seconds < Best)
      Best = Seconds;
  }
  return Best * 1e9 / static_cast<double>(Count);
}

/// Per-metric best over the rounds, in first-measured order.
class BestOf {
public:
  void note(const std::string &Key, double Ns) {
    for (auto &[Name, Best] : Metrics) {
      if (Name == Key) {
        if (Ns < Best)
          Best = Ns;
        return;
      }
    }
    Metrics.emplace_back(Key, Ns);
  }

  double operator[](const std::string &Key) const {
    for (const auto &[Name, Best] : Metrics)
      if (Name == Key)
        return Best;
    return 0;
  }

  /// Prints every metric and records it in \p Report.
  void emit(bench::BenchReport &Report) const {
    for (const auto &[Name, Best] : Metrics) {
      std::printf("  %-28s %8.1f ns/value\n", Name.c_str(), Best);
      Report.metric(Name, Best);
    }
  }

private:
  std::vector<std::pair<std::string, double>> Metrics;
};

volatile size_t DceSink; // Defeats dead-code elimination.

/// --spin-digit-loop: volatile iterations per emitted character (0 = off).
unsigned SpinPerChar = 0;

/// The planted regression: a spin proportional to \p Emitted characters,
/// volatile so it survives -O2.
void plantedSpin(size_t Emitted) {
  if (SpinPerChar == 0)
    return;
  const size_t Turns = Emitted * SpinPerChar;
  [[maybe_unused]] volatile size_t Observed = 0;
  for (size_t I = 0; I < Turns; ++I)
    Observed = I;
}

/// Characters a batch pass emitted: the planted spin's size for it.
size_t tableChars(const eng::StringTable &Table, size_t Count) {
  size_t Total = 0;
  for (size_t I = 0; I < Count; ++I)
    Total += Table.length(I);
  return Total;
}

/// Repeats \p V until the workload is \p Count values long (stable timing
/// even when the corpus holds only a handful of captures).
template <typename T>
std::vector<T> tileTo(const std::vector<T> &V, size_t Count) {
  std::vector<T> Out;
  Out.reserve(Count);
  while (Out.size() < Count) {
    size_t Take = V.size() < Count - Out.size() ? V.size()
                                                : Count - Out.size();
    Out.insert(Out.end(), V.begin(), V.begin() + Take);
  }
  return Out;
}

/// One round of BatchEngine<T>::convert at \p Threads threads over
/// \p Values on a fresh engine (warm-up pass first): notes
/// <Prefix>_<Threads>t_ns_per_value in \p Best, then hands the engine to
/// \p After before it is torn down (stats and trace export).
template <typename T, typename Fn>
void benchBatch(const std::vector<T> &Values, unsigned Threads,
                const char *Prefix, BestOf &Best, Fn &&After) {
  eng::BatchEngine<T> Engine(Threads);
  eng::StringTable Table;
  Engine.convert(Values, Table, PrintOptions{}); // Warm-up pass.
  const double Ns = bestNsPerValue(Values.size(), [&] {
    Engine.convert(Values, Table, PrintOptions{});
    DceSink = Table.length(Values.size() - 1);
    if (SpinPerChar)
      plantedSpin(tableChars(Table, Values.size()));
  });
  Best.note(std::string(Prefix) + "_" + std::to_string(Threads) +
                "t_ns_per_value",
            Ns);
  After(Engine);
}

/// One round of the 1- and 4-thread batch metrics over \p Values.
template <typename T>
void benchTypedBatch(const std::vector<T> &Values, const char *Prefix,
                     BestOf &Best) {
  for (unsigned Threads : {1u, 4u})
    benchBatch(Values, Threads, Prefix, Best, [](eng::BatchEngine<T> &) {});
}

/// Prints \p Engine's stats block and writes the requested telemetry
/// exports (--stats-json, --trace).
void exportTelemetry(eng::BatchEngine<double> &Engine,
                     const std::string &StatsJsonPath,
                     const std::string &TracePath) {
  const obs::Registry *Reg = obs::enabled() ? &Engine.registry() : nullptr;
  Engine.stats().print(stdout, Reg);
  if (!StatsJsonPath.empty())
    obs::writeFile(StatsJsonPath, obs::renderStatsJson(obs::makeSnapshot(
                                      Engine.stats(), Reg)));
  if (!TracePath.empty()) {
    std::vector<obs::SpanEvent> Spans = Engine.takeSpans();
    obs::writeFile(TracePath, obs::renderChromeTrace(Spans));
    std::printf("wrote %zu span(s) to %s\n", Spans.size(), TracePath.c_str());
  }
}

} // namespace

int main(int Argc, char **Argv) {
  const char *OutPath = "BENCH_engine.json";
  size_t Count = 200000;
  std::string StatsJsonPath, TracePath, CorpusPath;
  std::string Format = "all";
  std::string Surface = "all";
  bench::BenchOutput Output;
  int Positional = 0;
  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    if (std::strncmp(A, "--stats-json=", 13) == 0) {
      StatsJsonPath = A + 13;
    } else if (std::strncmp(A, "--trace=", 8) == 0) {
      TracePath = A + 8;
    } else if (std::strncmp(A, "--format=", 9) == 0) {
      Format = A + 9;
      if (Format != "all" && Format != "binary64" && Format != "binary32" &&
          Format != "binary16") {
        std::fprintf(stderr,
                     "bench_engine_batch: --format must be binary64, "
                     "binary32, binary16, or all\n");
        return 2;
      }
    } else if (std::strncmp(A, "--corpus=", 9) == 0) {
      CorpusPath = A + 9;
    } else if (std::strncmp(A, "--surface=", 10) == 0) {
      Surface = A + 10;
      if (Surface != "all" && Surface != "to_chars") {
        std::fprintf(stderr,
                     "bench_engine_batch: --surface must be to_chars or "
                     "all\n");
        return 2;
      }
    } else if (std::strncmp(A, "--spin-digit-loop=", 18) == 0) {
      SpinPerChar = static_cast<unsigned>(std::strtoul(A + 18, nullptr, 10));
    } else if (Output.consume(A)) {
      // Shared emitter flags.
    } else if (A[0] == '-') {
      std::fprintf(stderr,
                   "bench_engine_batch: unknown flag %s\nusage: "
                   "bench_engine_batch [out.json] [count] "
                   "[--format=binary64|binary32|binary16] "
                   "[--surface=to_chars] "
                   "[--corpus=FILE] "
                   "[--stats-json=FILE] [--trace=FILE] "
                   "[--bench-json=FILE] [--bench-history=FILE] "
                   "[--spin-digit-loop=N]\n",
                   A);
      return 2;
    } else if (Positional == 0) {
      OutPath = A;
      ++Positional;
    } else {
      Count = std::strtoull(A, nullptr, 10);
      ++Positional;
    }
  }
  // --surface=to_chars is the C-ABI overhead gate: only the binary64
  // single-value pair that matters for the ratio check runs
  // (engine::format and dragon4_to_chars over identical values), so CI
  // gets a quick answer to "is the ABI wrapper still free".
  const bool ToCharsOnly = Surface == "to_chars";
  const bool RunDouble = ToCharsOnly || Format == "all" || Format == "binary64";
  const bool RunFloat =
      !ToCharsOnly && (Format == "all" || Format == "binary32");
  const bool RunHalf =
      !ToCharsOnly && (Format == "all" || Format == "binary16");
  if (Output.JsonPath.empty())
    Output.JsonPath = OutPath;

  if (SpinPerChar)
    std::printf("NOTE: synthetic spin of %u per emitted character planted "
                "-- this run should FAIL a regression gate\n",
                SpinPerChar);

  bool Telemetry = !StatsJsonPath.empty() || !TracePath.empty();
  if (Telemetry) {
    obs::config().SampleEvery = 1;
    obs::config().Trace = !TracePath.empty();
    std::printf("NOTE: telemetry sampling on -- timings include obs "
                "overhead; do not use as a baseline\n");
  }

  // Re-detected on every run, not baked into the baseline: the same
  // binary may run on a 64-core bench host one day and a 1-core CI
  // container the next.  When the host has fewer cores than the widest
  // thread count benchmarked, the multi-thread numbers measure the
  // hardware, not the engine, and the emitted thread_scaling_valid flag
  // tells bench_check.py to skip (not silently pass) those comparisons.
  unsigned Cores = std::thread::hardware_concurrency();
  const bool ThreadScalingValid = Cores >= 4;
  std::printf("bench_engine_batch: %zu uniform-random values, format %s, "
              "best of %d rounds of >= %d passes (>= %.0f ms per metric), "
              "%u cores\n",
              Count, Format.c_str(), Rounds, MinPasses,
              MinTimedSeconds * 1000, Cores);
  if (!ThreadScalingValid)
    std::printf("  NOTE: %u-core host -- thread scaling is bounded by the "
                "hardware, not the engine; multi-thread metrics are "
                "flagged non-comparable\n",
                Cores);

  // dragon4.bench.v1 via the shared emitter: "metrics" holds the
  // comparable numbers (ns/value, lower is better) that
  // tools/bench_check.py diffs against a committed baseline; "context"
  // describes the run; "derived" is informational.
  bench::BenchReport Report{"bench_engine_batch"};
  Report.context("workload",
                 CorpusPath.empty() ? "randomBitsDoubles" : "corpus");
  Report.context("count", static_cast<uint64_t>(Count));
  Report.context("rounds", static_cast<uint64_t>(Rounds));
  Report.context("min_passes", static_cast<uint64_t>(MinPasses));
  Report.context("min_timed_ms",
                 static_cast<uint64_t>(MinTimedSeconds * 1000));
  Report.context("hardware_concurrency", static_cast<uint64_t>(Cores));
  Report.context("thread_scaling_valid", ThreadScalingValid);
  Report.context("obs_sampling", Telemetry);
  Report.context("format", Format.c_str());
  Report.context("surface", Surface.c_str());
  if (SpinPerChar)
    Report.context("spin_digit_loop", static_cast<uint64_t>(SpinPerChar));

  if (!CorpusPath.empty()) {
    // Corpus workload: the replayable inputs a sweep or the exemplar
    // pipeline captured, instead of uniform-random bits.
    std::vector<verify::CorpusRecord> Records;
    std::string Err;
    if (!verify::loadCorpus(CorpusPath, Records, &Err)) {
      std::fprintf(stderr, "bench_engine_batch: %s\n", Err.c_str());
      return 2;
    }
    Report.context("corpus", CorpusPath.c_str());
    Report.context("corpus_records", static_cast<uint64_t>(Records.size()));
    std::vector<double> V64;
    std::vector<float> V32;
    std::vector<Binary16> V16;
    size_t Skipped = 0;
    for (const verify::CorpusRecord &R : Records) {
      switch (R.Bits.Format) {
      case verify::FloatFormat::Binary64: {
        uint64_t Bits = R.Bits.Lo;
        double V;
        std::memcpy(&V, &Bits, sizeof(V));
        V64.push_back(V);
        break;
      }
      case verify::FloatFormat::Binary32: {
        uint32_t Bits = static_cast<uint32_t>(R.Bits.Lo);
        float V;
        std::memcpy(&V, &Bits, sizeof(V));
        V32.push_back(V);
        break;
      }
      case verify::FloatFormat::Binary16:
        V16.push_back(
            Binary16::fromBits(static_cast<uint16_t>(R.Bits.Lo)));
        break;
      default:
        ++Skipped; // binary128 has no first-class batch suite here.
        break;
      }
    }
    if (Skipped)
      std::printf("  NOTE: %zu corpus record(s) in formats without a "
                  "batch suite skipped\n",
                  Skipped);
    if (V64.empty() && V32.empty() && V16.empty()) {
      std::fprintf(stderr, "bench_engine_batch: corpus %s holds no "
                           "benchable records\n",
                   CorpusPath.c_str());
      return 2;
    }
    std::printf("  corpus: %zu binary64, %zu binary32, %zu binary16 "
                "record(s), tiled to %zu values each\n",
                V64.size(), V32.size(), V16.size(), Count);
    const std::vector<double> T64 = V64.empty() ? V64 : tileTo(V64, Count);
    const std::vector<float> T32 = V32.empty() ? V32 : tileTo(V32, Count);
    const std::vector<Binary16> T16 = V16.empty() ? V16 : tileTo(V16, Count);
    BestOf Best;
    for (int Round = 0; Round < Rounds; ++Round) {
      if (!T64.empty())
        benchTypedBatch(T64, "corpus64", Best);
      if (!T32.empty())
        benchTypedBatch(T32, "corpus32", Best);
      if (!T16.empty())
        benchTypedBatch(T16, "corpus16", Best);
    }
    Best.emit(Report);
    return bench::emitBenchReport(Report, Output);
  }

  const std::vector<double> Values =
      RunDouble ? randomBitsDoubles(Count, 42) : std::vector<double>{};
  // binary32 through the same generic batch pipeline.
  const std::vector<float> Values32 =
      RunFloat ? randomBitsFloats(Count, 42) : std::vector<float>{};
  // binary16 over its entire encoding space (65536 values per pass, or the
  // first Count encodings).
  std::vector<Binary16> Values16;
  if (RunHalf) {
    const size_t HalfCount = Count < (1u << 16) ? Count : (1u << 16);
    for (uint32_t Bits = 0; Bits < HalfCount; ++Bits)
      Values16.push_back(Binary16::fromBits(static_cast<uint16_t>(Bits)));
  }

  // The engine's buffer API through one warm Scratch, and the same values
  // through the C ABI (thread-local scratch, encoding bits at the call
  // site) -- the full wrapper: validation, enum mapping, bit decoding.
  eng::Scratch Scratch;
  char Buf[32];
  auto FormatLoop = [&] {
    size_t Total = 0;
    for (double V : Values) {
      const size_t Len =
          eng::format(V, Buf, sizeof(Buf), PrintOptions{}, Scratch);
      plantedSpin(Len);
      Total += Len;
    }
    DceSink = Total;
  };
  auto ToCharsLoop = [&] {
    size_t Total = 0;
    size_t Len = 0;
    for (double V : Values) {
      uint64_t Lo, Hi;
      FormatTraits<double>::encodingBits(V, Lo, Hi);
      dragon4_to_chars(DRAGON4_FORMAT_BINARY64, Lo, Hi, nullptr, Buf,
                       sizeof(Buf), &Len);
      plantedSpin(Len);
      Total += Len;
    }
    DceSink = Total;
  };
  if (RunDouble) {
    FormatLoop(); // Untimed warm-up of each side of the ratio pair.
    ToCharsLoop();
  }

  BestOf Best;
  for (int Round = 0; Round < Rounds; ++Round) {
    const bool LastRound = Round == Rounds - 1;
    if (RunDouble) {
      if (!ToCharsOnly) {
        // Baseline: the std::string convenience API.
        Best.note("to_shortest_ns_per_value", bestNsPerValue(Count, [&] {
                    size_t Total = 0;
                    for (double V : Values) {
                      const size_t Len = toShortest(V).size();
                      plantedSpin(Len);
                      Total += Len;
                    }
                    DceSink = Total;
                  }));
      }

      // bench_check.py gates the ABI / engine::format ratio at +10%, so
      // the pair is measured interleaved, pass by pass: slow drift
      // (frequency ramp, co-tenant noise) then lands on both loops
      // equally instead of flattering whichever runs later.
      double BufferNs = 0, ToCharsNs = 0, Timed = 0;
      for (int Pass = 0; morePasses(Pass, Timed / 2); ++Pass) {
        const double B = bench::timeSeconds(FormatLoop);
        const double T = bench::timeSeconds(ToCharsLoop);
        Timed += B + T;
        if (Pass == 0 || B < BufferNs)
          BufferNs = B;
        if (Pass == 0 || T < ToCharsNs)
          ToCharsNs = T;
      }
      Best.note("engine_format_ns_per_value", BufferNs * 1e9 / Count);
      Best.note("to_chars_ns_per_value", ToCharsNs * 1e9 / Count);

      if (!ToCharsOnly) {
        // Batch conversion at 1/2/4 threads; the last round's 4-thread
        // engine reports the stats block and any telemetry export.
        for (unsigned Threads : {1u, 2u, 4u})
          benchBatch(Values, Threads, "batch", Best,
                     [&](eng::BatchEngine<double> &Engine) {
                       if (LastRound && Threads == 4)
                         exportTelemetry(Engine, StatsJsonPath, TracePath);
                     });
      }
    }
    if (RunFloat)
      benchTypedBatch(Values32, "batch32", Best);
    if (RunHalf)
      benchTypedBatch(Values16, "batch16", Best);
  }

  Best.emit(Report);
  if (RunDouble) {
    Report.derived("overhead_to_chars_vs_format",
                   Best["to_chars_ns_per_value"] /
                       Best["engine_format_ns_per_value"]);
    if (!ToCharsOnly) {
      const double BufferSpeedup = Best["to_shortest_ns_per_value"] /
                                   Best["engine_format_ns_per_value"];
      const double BatchScaling =
          Best["batch_1t_ns_per_value"] / Best["batch_4t_ns_per_value"];
      std::printf("  buffer vs string  %.2fx\n", BufferSpeedup);
      std::printf("  4t vs 1t batch    %.2fx\n", BatchScaling);
      Report.derived("speedup_buffer_vs_string", BufferSpeedup);
      Report.derived("scaling_4t_vs_1t", BatchScaling);
    }
  }
  return bench::emitBenchReport(Report, Output);
}
