//===- tools/verify_exhaustive.cpp - Differential verification driver ----------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line driver for the src/verify/ harness: runs the pluggable
/// oracles over exhaustive encoding sweeps (binary16, binary32) or
/// deterministic stratified samples (binary64, binary128), sharded across
/// a BatchPool worker pool.  Mismatches become replayable corpus
/// records; --replay re-runs a corpus file and exits nonzero if any record
/// still fails.
///
///   verify_exhaustive --format binary16 --all
///   verify_exhaustive --format binary32 --begin 0x3f000000 --end 0x40000000
///   verify_exhaustive --format binary64 --samples 500000 --seed 7
///   verify_exhaustive --replay tests/corpus/regressions.rec
///
/// Options (all accept both `--flag value` and `--flag=value`):
///   --format <name>      binary16|binary32|binary64|binary128
///   --domain <name>      shorthand for --format <name> --all
///   --all                exhaustive sweep over every encoding
///   --begin/--end N      exhaustive subrange [begin, end), hex or decimal
///   --stride N           visit every N-th encoding of the subrange
///   --samples N          sampled mode: domain size (default 100000)
///   --seed N             sample seed (default 1)
///   --oracles <list>     comma-separated subset, or "all" (default)
///   --threads N          worker threads (0 = hardware concurrency)
///   --corpus <path>      append a record per mismatch to this file
///   --minimize           shrink mismatches before recording them
///   --replay <path>      re-run a corpus file instead of sweeping
///   --max-failures N     stop printing/recording after N mismatches (100)
///   --progress           live progress/ETA line on stderr
///   --json <path>        write the dragon4.bench.v1 sweep summary (the
///                        committed BENCH_verify.json format)
///   --bench-history <path>  append the summary as one JSONL line for
///                        bench_check.py's --history trend gate
///   --stats-json <path>  write the dragon4.stats.v1 telemetry document
///   --trace <path>       write Chrome trace_event JSON (Perfetto-loadable)
///   --obs-sample N       sample 1-in-N conversions (default: 1 when
///                        --stats-json/--trace is given, else off)
///   --inject-bug         flip a digit-loop comparison (harness self-test)
///   --inject-ryu-bug     flip the Ryu removal-loop bound (harness self-test)
///
/// On any mismatch, the per-worker flight recorders' records for the
/// mismatching conversions are dumped and attached to corpus records.
///
/// Exit code 0 iff every checked value passed every requested oracle.
///
//===----------------------------------------------------------------------===//

#include "bench_common.h"
#include "engine/batch.h"
#include "obs/export.h"
#include "support/testhooks.h"
#include "verify/corpus.h"
#include "verify/domain.h"
#include "verify/verify.h"

#include <map>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

using namespace dragon4;
using namespace dragon4::verify;

namespace {

struct Options {
  std::optional<FloatFormat> Format;
  bool Exhaustive = false;
  uint64_t Begin = 0;
  std::optional<uint64_t> End;
  uint64_t Stride = 1;
  size_t Samples = 100000;
  uint64_t Seed = 1;
  unsigned Oracles = OracleAll;
  unsigned Threads = 0;
  std::string CorpusPath;
  bool Minimize = false;
  std::string ReplayPath;
  size_t MaxFailures = 100;
  bool Progress = false;
  std::string JsonPath;
  std::string HistoryPath;
  std::string StatsJsonPath;
  std::string TracePath;
  std::optional<uint64_t> ObsSample;
  bool InjectBug = false;
  bool InjectRyuBug = false;
};

[[noreturn]] void usage(const char *Message) {
  if (Message)
    std::fprintf(stderr, "verify_exhaustive: %s\n", Message);
  std::fprintf(stderr,
               "usage: verify_exhaustive --format <fmt> [--all | --begin N "
               "--end N [--stride N] | --samples N [--seed N]]\n"
               "                         [--oracles list] [--threads N] "
               "[--corpus path [--minimize]]\n"
               "                         [--max-failures N] [--progress] "
               "[--json path] [--bench-history path] [--inject-bug] "
               "[--inject-ryu-bug]\n"
               "                         [--stats-json path] [--trace path] "
               "[--obs-sample N]\n"
               "       verify_exhaustive --domain <fmt> [...]\n"
               "       verify_exhaustive --replay <corpus-file>\n");
  std::exit(2);
}

uint64_t parseUint(const char *Text, const char *Flag) {
  char *End = nullptr;
  uint64_t Value = std::strtoull(Text, &End, 0);
  if (End == Text || *End != '\0')
    usage((std::string("bad number for ") + Flag).c_str());
  return Value;
}

Options parseArgs(int Argc, char **Argv) {
  Options Opts;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    // Accept --flag=value alongside --flag value.
    std::optional<std::string> Inline;
    if (Flag.rfind("--", 0) == 0) {
      size_t Eq = Flag.find('=');
      if (Eq != std::string::npos) {
        Inline = Flag.substr(Eq + 1);
        Flag.resize(Eq);
      }
    }
    auto Arg = [&]() -> std::string {
      if (Inline)
        return *Inline;
      if (I + 1 >= Argc)
        usage((Flag + " needs an argument").c_str());
      return Argv[++I];
    };
    if (Flag == "--format" || Flag == "--domain") {
      Opts.Format = formatByName(Arg());
      if (!Opts.Format)
        usage("unknown format");
      if (Flag == "--domain") // --domain=binary16 == --format binary16 --all
        Opts.Exhaustive = true;
    } else if (Flag == "--all") {
      Opts.Exhaustive = true;
    } else if (Flag == "--begin") {
      Opts.Begin = parseUint(Arg().c_str(), "--begin");
      Opts.Exhaustive = true;
    } else if (Flag == "--end") {
      Opts.End = parseUint(Arg().c_str(), "--end");
      Opts.Exhaustive = true;
    } else if (Flag == "--stride") {
      Opts.Stride = parseUint(Arg().c_str(), "--stride");
      if (Opts.Stride == 0)
        usage("--stride must be positive");
    } else if (Flag == "--samples") {
      Opts.Samples = parseUint(Arg().c_str(), "--samples");
      if (Opts.Samples == 0)
        usage("--samples must be positive");
    } else if (Flag == "--seed") {
      Opts.Seed = parseUint(Arg().c_str(), "--seed");
    } else if (Flag == "--oracles") {
      std::optional<unsigned> Mask = parseOracles(Arg());
      if (!Mask || *Mask == 0)
        usage("bad --oracles list");
      Opts.Oracles = *Mask;
    } else if (Flag == "--threads") {
      Opts.Threads = static_cast<unsigned>(parseUint(Arg().c_str(), "--threads"));
    } else if (Flag == "--corpus") {
      Opts.CorpusPath = Arg();
    } else if (Flag == "--minimize") {
      Opts.Minimize = true;
    } else if (Flag == "--replay") {
      Opts.ReplayPath = Arg();
    } else if (Flag == "--max-failures") {
      Opts.MaxFailures = parseUint(Arg().c_str(), "--max-failures");
    } else if (Flag == "--progress") {
      Opts.Progress = true;
    } else if (Flag == "--json") {
      Opts.JsonPath = Arg();
    } else if (Flag == "--bench-history") {
      Opts.HistoryPath = Arg();
    } else if (Flag == "--stats-json") {
      Opts.StatsJsonPath = Arg();
    } else if (Flag == "--trace") {
      Opts.TracePath = Arg();
    } else if (Flag == "--obs-sample") {
      Opts.ObsSample = parseUint(Arg().c_str(), "--obs-sample");
    } else if (Flag == "--inject-bug") {
      Opts.InjectBug = true;
    } else if (Flag == "--inject-ryu-bug") {
      Opts.InjectRyuBug = true;
    } else {
      usage(("unknown flag " + Flag).c_str());
    }
  }
  if (Opts.ReplayPath.empty() && !Opts.Format)
    usage("--format is required (or use --replay)");
  return Opts;
}

/// One mismatch, kept for reporting and corpus capture.
struct Failure {
  BitPattern Bits;
  Verdict Outcome;
};

bool failureLess(const Failure &L, const Failure &R) {
  return L.Bits.Hi != R.Bits.Hi ? L.Bits.Hi < R.Bits.Hi
                                : L.Bits.Lo < R.Bits.Lo;
}

/// Shared sweep state: verdict tallies come from the engine's per-worker
/// counters; the failure list is the only cross-thread mutable state.
struct SweepState {
  std::mutex Mutex;
  std::vector<Failure> Failures;
  std::atomic<uint64_t> Done{0};
  std::atomic<uint64_t> LastPrintNanos{0};

  std::atomic<uint64_t> FailureCount{0};

  /// Keeps the \p Keep smallest failures by encoding, so the retained set
  /// (not just its order) is independent of thread scheduling.
  void note(const BitPattern &Bits, Verdict V, size_t Keep) {
    FailureCount.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> Lock(Mutex);
    Failure F{Bits, std::move(V)};
    if (Failures.size() < Keep) {
      Failures.push_back(std::move(F));
      return;
    }
    auto Max = std::max_element(Failures.begin(), Failures.end(), failureLess);
    if (Max != Failures.end() && failureLess(F, *Max))
      *Max = std::move(F);
  }
};

uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Throttled progress/ETA line; any worker may win the print slot.
void maybePrintProgress(SweepState &State, uint64_t Total, uint64_t Start) {
  uint64_t Now = nowNanos();
  uint64_t Last = State.LastPrintNanos.load(std::memory_order_relaxed);
  if (Now - Last < 500000000) // 500ms between updates.
    return;
  if (!State.LastPrintNanos.compare_exchange_strong(Last, Now,
                                                    std::memory_order_relaxed))
    return;
  uint64_t Done = State.Done.load(std::memory_order_relaxed);
  double Elapsed = static_cast<double>(Now - Start) * 1e-9;
  double Rate = Elapsed > 0 ? static_cast<double>(Done) / Elapsed : 0;
  double Eta =
      Rate > 0 ? static_cast<double>(Total - Done) / Rate : 0;
  std::fprintf(stderr,
               "\r  %" PRIu64 "/%" PRIu64 " (%.1f%%)  %.2fM/s  ETA %.0fs   ",
               Done, Total, 100.0 * static_cast<double>(Done) /
                                static_cast<double>(Total ? Total : 1),
               Rate * 1e-6, Eta);
}

struct SweepResult {
  uint64_t Checked = 0;
  uint64_t TotalFailures = 0; ///< All mismatches, including uncaptured ones.
  std::vector<Failure> Failures;
  double ElapsedSeconds = 0;
};

/// Runs \p BitsAt(Index) for Index in [0, Count) through the oracles,
/// sharded over \p Engine.  Deterministic for any thread count: the chunk
/// boundaries are fixed and failures are sorted by encoding afterwards.
template <typename BitsAtFn>
SweepResult runSweep(engine::BatchPool &Pool, uint64_t Count,
                     const Options &Opts, BitsAtFn BitsAt) {
  SweepState State;
  uint64_t Start = nowNanos();
  Pool.parallelFor(Count, [&](size_t Begin, size_t End, engine::Scratch &S) {
    for (size_t Index = Begin; Index < End; ++Index) {
      BitPattern Bits = BitsAt(Index);
      Verdict V = checkBits(Bits, Opts.Oracles, &S);
      if (!V.ok())
        State.note(Bits, std::move(V), Opts.MaxFailures);
    }
    State.Done.fetch_add(End - Begin, std::memory_order_relaxed);
    if (Opts.Progress)
      maybePrintProgress(State, Count, Start);
  });
  if (Opts.Progress)
    std::fprintf(stderr, "\n");

  SweepResult Result;
  Result.Checked = Count;
  Result.TotalFailures = State.FailureCount.load();
  Result.Failures = std::move(State.Failures);
  std::sort(Result.Failures.begin(), Result.Failures.end(), failureLess);
  Result.ElapsedSeconds = static_cast<double>(nowNanos() - Start) * 1e-9;
  return Result;
}

int runReplay(const Options &Opts) {
  std::vector<CorpusRecord> Records;
  std::string Error;
  if (!loadCorpus(Opts.ReplayPath, Records, &Error)) {
    std::fprintf(stderr, "verify_exhaustive: %s\n", Error.c_str());
    return 2;
  }
  engine::Scratch S;
  size_t Failed = 0;
  for (const CorpusRecord &Record : Records) {
    Verdict V = replayRecord(Record, &S);
    if (V.ok()) {
      std::printf("PASS %s %s %s\n", formatName(Record.Bits.Format),
                  bitsToHex(Record.Bits).c_str(),
                  oracleNames(Record.Oracles).c_str());
    } else {
      ++Failed;
      std::printf("FAIL %s %s %s\n     %s\n",
                  formatName(Record.Bits.Format),
                  bitsToHex(Record.Bits).c_str(),
                  oracleNames(V.Failed).c_str(), V.Detail.c_str());
    }
  }
  std::printf("replay: %zu records, %zu failing\n", Records.size(), Failed);
  return Failed == 0 ? 0 : 1;
}

/// The sweep summary in the dragon4.bench.v1 schema every bench emits, so
/// tools/bench_check.py gates verify-sweep throughput with the same
/// baseline and trend logic it applies to the engine benches.  The one
/// gated metric is verify_<format>_<mode>_ns_per_value; correctness facts
/// (mismatches, verdict counts) ride in "context"/"derived".
int writeBenchReport(const Options &Opts, const SweepResult &Result,
                     const engine::EngineStats &Stats, const char *Mode) {
  bench::BenchReport Report{"verify_exhaustive"};
  Report.context("format", formatName(*Opts.Format));
  Report.context("mode", Mode);
  Report.context("oracles",
                 oracleNames(Opts.Oracles & supportedOracles(*Opts.Format))
                     .c_str());
  Report.context("threads", static_cast<uint64_t>(Opts.Threads));
  Report.context("values_checked", Result.Checked);
  Report.context("oracle_verdicts",
                 static_cast<uint64_t>(Stats.VerifyChecked));
  Report.context("mismatches", Result.TotalFailures);
  std::string Key = std::string("verify_") + formatName(*Opts.Format) +
                    "_" + Mode + "_ns_per_value";
  Report.metric(Key, Result.Checked
                         ? Result.ElapsedSeconds * 1e9 /
                               static_cast<double>(Result.Checked)
                         : 0.0);
  Report.derived("elapsed_seconds", Result.ElapsedSeconds);
  // Fast-parser outcome mix (populated when the parse oracle ran): the
  // observed -- not assumed -- Eisel-Lemire hit rate over this sweep.
  if (Stats.FastParseHits + Stats.FastParseFallbacks > 0) {
    double Decided =
        static_cast<double>(Stats.FastParseHits + Stats.FastParseFallbacks);
    Report.context("fastparse_hits", Stats.FastParseHits);
    Report.context("fastparse_fallbacks", Stats.FastParseFallbacks);
    Report.derived("fastparse_hit_rate",
                   static_cast<double>(Stats.FastParseHits) / Decided);
    Report.derived("fastparse_fallback_rate",
                   static_cast<double>(Stats.FastParseFallbacks) / Decided);
  }
  // Shortest-path outcome mix: which rung of the Ryu -> Dragon4 ladder
  // served the sweep's conversions.
  if (Stats.RyuHits + Stats.RyuFallbacks > 0) {
    double Attempted =
        static_cast<double>(Stats.RyuHits + Stats.RyuFallbacks);
    Report.context("ryu_hits", Stats.RyuHits);
    Report.context("ryu_fallbacks", Stats.RyuFallbacks);
    Report.derived("ryu_hit_rate",
                   static_cast<double>(Stats.RyuHits) / Attempted);
  }
  Report.derived("values_per_second",
                 Result.ElapsedSeconds > 0
                     ? static_cast<double>(Result.Checked) /
                           Result.ElapsedSeconds
                     : 0.0);
  bench::BenchOutput Output;
  Output.JsonPath = Opts.JsonPath;
  Output.HistoryPath = Opts.HistoryPath;
  return bench::emitBenchReport(Report, Output);
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts = parseArgs(Argc, Argv);

  // Observability: any telemetry output implies sampling (default 1-in-1 so
  // the exported counters cover the whole sweep); --obs-sample overrides.
  {
    obs::Config &Cfg = obs::config();
    if (Opts.ObsSample)
      Cfg.SampleEvery = static_cast<uint32_t>(*Opts.ObsSample);
    else if (!Opts.StatsJsonPath.empty() || !Opts.TracePath.empty())
      Cfg.SampleEvery = 1;
    Cfg.Trace = !Opts.TracePath.empty();
  }
  if (!obs::enabled() &&
      (!Opts.StatsJsonPath.empty() || !Opts.TracePath.empty()))
    std::fprintf(stderr,
                 "verify_exhaustive: warning: telemetry output requested but "
                 "observability is compiled out or sampling is 0; documents "
                 "will carry exact counters only\n");

  if (Opts.InjectBug) {
    std::fprintf(stderr,
                 "verify_exhaustive: INJECTED BUG ACTIVE (digit-loop low "
                 "comparison flipped)\n");
    testhooks::FlipDigitLoopLowComparison = true;
  }
  if (Opts.InjectRyuBug) {
    std::fprintf(stderr,
                 "verify_exhaustive: INJECTED BUG ACTIVE (Ryu removal-loop "
                 "bound flipped)\n");
    testhooks::FlipRyuBoundComparison = true;
  }

  if (!Opts.ReplayPath.empty())
    return runReplay(Opts);

  FloatFormat Format = *Opts.Format;
  unsigned Effective = Opts.Oracles & supportedOracles(Format);
  if (Effective == 0)
    usage("none of the requested oracles support this format");

  engine::BatchPool Pool(Opts.Threads);
  Opts.Threads = Pool.threads();

  SweepResult Result;
  const char *Mode;
  if (Opts.Exhaustive) {
    uint64_t Encodings = encodingCount(Format);
    if (Encodings == 0)
      usage("exhaustive sweeps need binary16 or binary32; use --samples");
    uint64_t End = Opts.End.value_or(Encodings);
    if (End > Encodings || Opts.Begin >= End)
      usage("bad --begin/--end range");
    uint64_t Count = exhaustiveIndexCount(Opts.Begin, End, Opts.Stride);
    Mode = "exhaustive";
    std::printf("verify %s: exhaustive [%#" PRIx64 ", %#" PRIx64
                ") stride %" PRIu64 " = %" PRIu64
                " encodings, oracles %s, %u threads\n",
                formatName(Format), Opts.Begin, End, Opts.Stride, Count,
                oracleNames(Effective).c_str(), Opts.Threads);
    Result = runSweep(Pool, Count, Opts, [&](size_t Index) {
      return exhaustiveBits(Format, Opts.Begin, Opts.Stride, Index);
    });
  } else {
    Mode = "sampled";
    std::vector<BitPattern> Domain =
        sampledDomain(Format, Opts.Samples, Opts.Seed);
    std::printf("verify %s: %zu sampled encodings (seed %" PRIu64
                "), oracles %s, %u threads\n",
                formatName(Format), Domain.size(), Opts.Seed,
                oracleNames(Effective).c_str(), Opts.Threads);
    Result = runSweep(Pool, Domain.size(), Opts,
                      [&](size_t Index) { return Domain[Index]; });
  }

  for (const Failure &F : Result.Failures)
    std::printf("MISMATCH %s %s [%s]\n         %s\n", formatName(Format),
                bitsToHex(F.Bits).c_str(),
                oracleNames(F.Outcome.Failed).c_str(),
                F.Outcome.Detail.c_str());

  // Flight recorder post-mortem: every mismatch-flagged record is retained
  // outside the ring (bounded per worker by MismatchKeepLimit), so this
  // report sees the failures even after later passing conversions recycled
  // the rings.  Dump them and index them by encoding so corpus records
  // carry their conversion context.
  std::map<std::pair<uint64_t, uint64_t>, std::string> FlightByBits;
  if (obs::enabled() && Result.TotalFailures > 0) {
    std::string Dump;
    size_t DumpedRecords = 0;
    size_t PrintLimit = Opts.MaxFailures ? Opts.MaxFailures : 100;
    for (unsigned T = 0; T < Pool.threads(); ++T) {
      for (const obs::ConversionRecord &Rec : Pool.mismatchRecords(T)) {
        std::string Line = Rec.toLine();
        FlightByBits[{Rec.BitsHi, Rec.BitsLo}] = Line;
        if (DumpedRecords < PrintLimit)
          Dump += "  [worker " + std::to_string(T) + "] " + Line + '\n';
        ++DumpedRecords;
      }
    }
    if (DumpedRecords) {
      std::printf("flight recorder: %zu mismatching conversion record(s) "
                  "retained:\n%s",
                  DumpedRecords, Dump.c_str());
      if (DumpedRecords > PrintLimit)
        std::printf("  ... %zu more (raise --max-failures to print them)\n",
                    DumpedRecords - PrintLimit);
    }
  }

  if (!Opts.CorpusPath.empty() && !Result.Failures.empty()) {
    size_t Recorded = 0;
    for (const Failure &F : Result.Failures) {
      CorpusRecord Record;
      Record.Bits = F.Bits;
      Record.Oracles = F.Outcome.Failed;
      Record.Comment = F.Outcome.Detail;
      if (auto It = FlightByBits.find({F.Bits.Hi, F.Bits.Lo});
          It != FlightByBits.end())
        Record.FlightDump = It->second;
      if (Opts.Minimize) {
        CorpusRecord Small = minimizeRecord(Record);
        std::printf("minimized %s -> %s\n", bitsToHex(F.Bits).c_str(),
                    bitsToHex(Small.Bits).c_str());
        Record = std::move(Small);
      }
      if (appendRecord(Opts.CorpusPath, Record))
        ++Recorded;
    }
    std::printf("corpus: %zu record(s) appended to %s\n", Recorded,
                Opts.CorpusPath.c_str());
  }

  const engine::EngineStats &Stats = Pool.stats();
  double Rate = Result.ElapsedSeconds > 0
                    ? static_cast<double>(Result.Checked) /
                          Result.ElapsedSeconds
                    : 0;
  std::printf("checked %" PRIu64 " encodings (%llu oracle verdicts) in "
              "%.2fs (%.2fM values/s): %" PRIu64 " mismatch(es)",
              Result.Checked,
              static_cast<unsigned long long>(Stats.VerifyChecked),
              Result.ElapsedSeconds, Rate * 1e-6, Result.TotalFailures);
  if (Result.TotalFailures > Result.Failures.size())
    std::printf(" (%zu captured; raise --max-failures for more)",
                Result.Failures.size());
  std::printf("\n");
  if (Stats.RyuHits + Stats.RyuFallbacks > 0) {
    double Attempted =
        static_cast<double>(Stats.RyuHits + Stats.RyuFallbacks);
    std::printf("ryu: %" PRIu64 " hit(s), %" PRIu64
                " fallback(s) to Dragon4 (hit rate %.4f%%)\n",
                Stats.RyuHits, Stats.RyuFallbacks,
                100.0 * static_cast<double>(Stats.RyuHits) / Attempted);
  }
  if (Stats.FastParseHits + Stats.FastParseFallbacks > 0) {
    double Decided =
        static_cast<double>(Stats.FastParseHits + Stats.FastParseFallbacks);
    std::printf("fast parse: %" PRIu64 " hit(s), %" PRIu64
                " exact fallback(s) (hit rate %.4f%%)\n",
                Stats.FastParseHits, Stats.FastParseFallbacks,
                100.0 * static_cast<double>(Stats.FastParseHits) / Decided);
  }

  bool EmitFailed = false;
  if (!Opts.JsonPath.empty() || !Opts.HistoryPath.empty())
    EmitFailed = writeBenchReport(Opts, Result, Stats, Mode) != 0;

  if (!Opts.StatsJsonPath.empty())
    obs::writeFile(Opts.StatsJsonPath,
                   obs::renderStatsJson(
                       obs::makeSnapshot(Stats, &Pool.registry())));
  if (!Opts.TracePath.empty()) {
    std::vector<obs::SpanEvent> Spans = Pool.takeSpans();
    obs::writeFile(Opts.TracePath, obs::renderChromeTrace(Spans));
    std::fprintf(stderr,
                 "verify_exhaustive: wrote %zu span(s) to %s (load in "
                 "Perfetto / chrome://tracing)\n",
                 Spans.size(), Opts.TracePath.c_str());
  }

  if (Result.TotalFailures)
    return 1;
  return EmitFailed ? 2 : 0;
}
