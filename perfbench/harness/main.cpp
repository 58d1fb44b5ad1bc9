//===- perfbench/harness/main.cpp - Benchmark entry point ----------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload NAME --seed N --seconds S --trace 0|1
///           [--plant-delay-ns X] [--out-dir DIR]
///           [--revision R] [--source-digest D]
///
/// Untraced (--trace 0): measures the closed loop in MeasureProcs fresh
/// processes of S / MeasureProcs seconds each and pools their chunk
/// timings; before each, times the cold set-up in SetupRepsPerProc fresh
/// processes.  Each process lays out code, tables and inputs anew; pooling
/// four of them halved the run-to-run range of shortest cost_vs_ref
/// against one process of S seconds (3.6% vs 7.5% over 7 runs each,
/// 4-vCPU Xeon VM).
/// Traced (--trace 1), in this process: the named workload untraced for a
/// fifth of S, then every workload traced for a fifth each; prints the
/// per-layer metrics derived from the recorded spans plus trace.overhead.
///
/// Context lines come first; the last line of standard output is the JSON
/// result.  The report and the spans are written to --out-dir.
///
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "obs/obs.h"

#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

using namespace perfbench;

namespace {

constexpr int MeasureProcs = 4;
constexpr int SetupRepsPerProc = 11;

const char *const WorkloadNames[] = {"shortest", "precision", "parse",
                                     "batch"};

/// Per-layer metrics in report order (names shared with BENCHMARK.json).
const char *const LayerMetrics[] = {
    "abi.to_chars_self_ns",   "format.render_self_ns",
    "engine.format_b64_ns",   "engine.format_b32_ns",
    "engine.format_b16_ns",   "fastpath.ryu_digits_ns",
    "fastpath.ryu_hit_share", "fp.decompose_ns",
    "format.printf_self_ns",  "format.printf_digits_ns",
    "format.printf_g17_ns",   "format.printf_e_ns",
    "format.printf_f_ns",     "core.fixed_digits_ns",
    "fastpath.fixed_fast_ns", "fastpath.fixed_fast_accept_share",
    "abi.from_chars_self_ns", "parse.fast_ns",
    "parse.fallback_ns",      "parse.fallback_share",
    "reader.read_float_ns",   "engine.batch_4t_ns",
    "engine.batch_1t_ns",     "engine.pool_scaling",
    "engine.pool_first_chunk_us_p50", "engine.pool_first_chunk_us_max",
    "engine.pool_busy_share", "ref.to_chars_ns",
    "ref.snprintf_ns",        "ref.from_chars_ns",
    "trace.overhead"};

const char *unitOf(const std::string &Name) {
  auto EndsWith = [&](const char *Suffix) {
    size_t N = std::strlen(Suffix);
    return Name.size() >= N && Name.compare(Name.size() - N, N, Suffix) == 0;
  };
  if (EndsWith("_ns"))
    return "ns";
  if (EndsWith("_us_p50") || EndsWith("_us_max"))
    return "us";
  if (Name == "setup_s")
    return "s";
  if (Name == "peak_rss_mb")
    return "MB";
  return "ratio";
}

enum class Mode { Run, SetupChild, MeasureChild };

struct Args {
  Mode Role = Mode::Run;
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  double PlantDelayNs = 0;
  std::string OutDir = ".";
  std::string Revision = "unavailable";
  std::string SourceDigest = "unavailable";
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string Key = Argv[I];
    if (Key == "--setup-child" || Key == "--measure-child") {
      A.Role = Key == "--setup-child" ? Mode::SetupChild : Mode::MeasureChild;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    const char *Value = Argv[++I];
    char *End = nullptr;
    if (Key == "--workload") {
      A.Workload = Value;
      HaveWorkload = true;
    } else if (Key == "--seed") {
      A.Seed = std::strtoull(Value, &End, 10);
      HaveSeed = *Value && *End == '\0';
    } else if (Key == "--seconds") {
      A.Seconds = std::strtod(Value, &End);
      HaveSeconds = *End == '\0' && A.Seconds > 0 && A.Seconds <= 120;
    } else if (Key == "--trace") {
      if (std::strcmp(Value, "0") && std::strcmp(Value, "1"))
        return false;
      A.Trace = Value[0] == '1';
    } else if (Key == "--plant-delay-ns") {
      A.PlantDelayNs = std::strtod(Value, &End);
      if (*End != '\0' || A.PlantDelayNs < 0)
        return false;
    } else if (Key == "--out-dir") {
      A.OutDir = Value;
    } else if (Key == "--revision") {
      A.Revision = Value;
    } else if (Key == "--source-digest") {
      A.SourceDigest = Value;
    } else {
      return false;
    }
  }
  bool Known = false;
  for (const char *Name : WorkloadNames)
    Known |= A.Workload == Name;
  return HaveWorkload && Known &&
         (A.Role == Mode::SetupChild || (HaveSeed && HaveSeconds));
}

/// Runs this program again with \p Args, waits for it, and returns its
/// standard output, or nothing if it could not start or did not exit 0.
std::optional<std::string> runSelf(const char *Self,
                                   std::vector<std::string> Args) {
  int Pipe[2];
  if (pipe(Pipe) != 0)
    return std::nullopt;
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_adddup2(&Actions, Pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&Actions, Pipe[0]);
  posix_spawn_file_actions_addclose(&Actions, Pipe[1]);
  Args.insert(Args.begin(), Self);
  std::vector<char *> Argv;
  for (std::string &Arg : Args)
    Argv.push_back(Arg.data());
  Argv.push_back(nullptr);
  pid_t Child = 0;
  const int Spawned =
      posix_spawn(&Child, Self, &Actions, nullptr, Argv.data(), environ);
  posix_spawn_file_actions_destroy(&Actions);
  close(Pipe[1]);
  std::string Out;
  char Buf[4096];
  ssize_t N = 0;
  while (Spawned == 0 && ((N = read(Pipe[0], Buf, sizeof Buf)) > 0 ||
                          (N < 0 && errno == EINTR)))
    if (N > 0)
      Out.append(Buf, static_cast<size_t>(N));
  close(Pipe[0]);
  if (Spawned != 0)
    return std::nullopt;
  int Status = 0;
  while (waitpid(Child, &Status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
    return std::nullopt;
  return Out;
}

std::unique_ptr<Workload> make(const std::string &Name, uint64_t DelayTurns) {
  if (Name == "shortest")
    return makeShortest(DelayTurns);
  if (Name == "precision")
    return makePrecision();
  if (Name == "parse")
    return makeParse();
  return makeBatch();
}

uint64_t delayTurns(double PlantDelayNs) {
  return PlantDelayNs > 0 ? static_cast<uint64_t>(std::llround(
                                PlantDelayNs * spinTurnsPerNs()))
                          : 0;
}

/// Peak resident memory of this process image (the kernel's VmHWM).
/// getrusage's ru_maxrss is no substitute: Linux carries it across exec,
/// so it also counts the process that spawned this one.
double peakRssMb() {
  double Kb = -1;
  if (std::FILE *F = std::fopen("/proc/self/status", "r")) {
    char Line[256];
    while (Kb < 0 && std::fgets(Line, sizeof Line, F))
      std::sscanf(Line, "VmHWM: %lf kB", &Kb);
    std::fclose(F);
  }
  if (Kb < 0) {
    rusage Usage{};
    getrusage(RUSAGE_SELF, &Usage);
    Kb = static_cast<double>(Usage.ru_maxrss);
  }
  return Kb / 1024.0;
}

/// A measuring process's results, one record per line.
void writeResults(const Results &R) {
  std::printf("attempted %llu\nfailed %llu\nrss_mb %.17g\n",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed), peakRssMb());
  for (const auto &[Name, Value] : R.Inputs)
    std::printf("input\t%s\t%.17g\n", Name.c_str(), Value);
  for (size_t I = 0; I < R.LibNs.size(); ++I)
    std::printf("pair %.17g %.17g\n", R.LibNs[I], R.RefNs[I]);
  for (double Us : R.BatchWallUs)
    std::printf("wall %.17g\n", Us);
}

/// Folds one measuring process's output into \p R and its peak RSS into
/// \p RssMb; false if malformed.
bool mergeResults(const std::string &Text, Results &R,
                  std::vector<double> &RssMb) {
  std::istringstream In(Text);
  std::string Line;
  const bool First = R.Inputs.empty();
  bool SawAttempted = false;
  while (std::getline(In, Line)) {
    std::istringstream Fields(Line);
    std::string Key;
    if (Line.rfind("input\t", 0) == 0) {
      const size_t Tab = Line.find('\t', 6);
      if (Tab == std::string::npos)
        return false;
      if (First)
        R.Inputs.emplace_back(Line.substr(6, Tab - 6),
                              std::strtod(Line.c_str() + Tab + 1, nullptr));
      continue;
    }
    Fields >> Key;
    if (Key == "pair") {
      double Lib = 0, Ref = 0;
      Fields >> Lib >> Ref;
      R.LibNs.push_back(Lib);
      R.RefNs.push_back(Ref);
    } else if (Key == "wall") {
      double Us = 0;
      Fields >> Us;
      R.BatchWallUs.push_back(Us);
    } else if (Key == "rss_mb") {
      double Mb = 0;
      Fields >> Mb;
      RssMb.push_back(Mb);
    } else {
      uint64_t V = 0;
      Fields >> V;
      if (Key == "attempted") {
        R.Attempted += V;
        SawAttempted = true;
      } else if (Key == "failed") {
        R.Failed += V;
      }
    }
    if (Fields.fail())
      return false;
  }
  return SawAttempted;
}

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    unsigned Regs[12];
    for (unsigned I = 0; I < 3; ++I)
      __get_cpuid(0x80000002u + I, &Regs[4 * I], &Regs[4 * I + 1],
                  &Regs[4 * I + 2], &Regs[4 * I + 3]);
    char Brand[49] = {};
    std::memcpy(Brand, Regs, 48);
    std::string Model(Brand);
    Model.erase(0, Model.find_first_not_of(' '));
    Model.erase(Model.find_last_not_of(' ') + 1);
    if (!Model.empty())
      return Model;
  }
#endif
  return "unknown";
}

int cpusAvailable() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof Set, &Set) != 0)
    return 0;
  return CPU_COUNT(&Set);
}

std::string jsonString(const std::string &Text) {
  std::string Out = "\"";
  for (char C : Text) {
    if (C == '"' || C == '\\')
      Out.push_back('\\');
    if (static_cast<unsigned char>(C) >= 0x20)
      Out.push_back(C);
  }
  return Out + "\"";
}

std::string number(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof Buf, "%.17g", std::isfinite(V) ? V : -1.0);
  return Buf;
}

std::string summaryJson(const Summary &S) {
  return "{\"median\":" + number(S.Median) + ",\"tail_percentile\":" +
         number(S.TailPercentile) + ",\"tail\":" + number(S.Tail) +
         ",\"samples\":" + std::to_string(S.Count) + "}";
}

void printSummary(const std::string &Label, const Summary &S,
                  const char *Unit) {
  std::printf("timing %s median=%.4g", Label.c_str(), S.Median);
  if (S.TailPercentile > 0)
    std::printf(" p%g=%.4g", S.TailPercentile, S.Tail);
  std::printf(" samples=%zu unit=%s\n", S.Count, Unit);
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload shortest|precision|parse|batch "
                 "--seed N --seconds S --trace 0|1 [--plant-delay-ns X] "
                 "[--out-dir DIR] [--revision R] [--source-digest D]\n");
    return 2;
  }
  if (A.Role == Mode::SetupChild) {
    std::unique_ptr<Workload> W = make(A.Workload, 0);
    const uint64_t Start = nowNs();
    W->coldSetup();
    const uint64_t Ns = nowNs() - Start;
    W->coldTeardown();
    std::printf("%llu\n", static_cast<unsigned long long>(Ns));
    return 0;
  }
  if (A.Role == Mode::MeasureChild) {
    std::unique_ptr<Workload> W = make(A.Workload, delayTurns(A.PlantDelayNs));
    Results R;
    W->generate(A.Seed, R);
    W->run(nowNs() + static_cast<uint64_t>(A.Seconds * 1e9), R);
    writeResults(R);
    return 0;
  }

  const std::string Stamp =
      "{\"revision\":" + jsonString(A.Revision) +
      ",\"source_digest\":" + jsonString(A.SourceDigest) +
      ",\"build_type\":" + jsonString(PERFBENCH_BUILD_TYPE) +
      ",\"compiler\":" + jsonString(PERFBENCH_COMPILER) +
      ",\"dragon4_obs\":" + std::to_string(DRAGON4_OBS_ENABLED) +
      ",\"nproc\":" + std::to_string(cpusAvailable()) +
      ",\"cpu\":" + jsonString(cpuModel()) + "}";
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Seconds, A.Trace ? 1 : 0);
  std::printf("stamp %s\n", Stamp.c_str());
  if (A.PlantDelayNs > 0)
    std::printf("planted delay %g ns per dragon4_to_chars call\n",
                A.PlantDelayNs);

  Results Main;
  std::vector<double> SetupS;
  double RssMb = 0;
  Tracer T;
  std::vector<std::pair<std::string, Results>> TracedRuns;
  double CostVsRef = 0, TraceOverhead = 0;
  if (!A.Trace) {
    char Seconds[32], Delay[32];
    std::snprintf(Seconds, sizeof Seconds, "%.17g", A.Seconds / MeasureProcs);
    std::snprintf(Delay, sizeof Delay, "%.17g", A.PlantDelayNs);
    // Peak RSS is the median over the measuring processes, so one
    // process's allocator jitter does not set it.
    std::vector<double> ProcRssMb;
    for (int Proc = 0; Proc < MeasureProcs; ++Proc) {
      // The set-up processes are spread over the run, between the
      // measuring ones, so their median spans the run's host load.
      for (int Rep = 0; Rep < SetupRepsPerProc; ++Rep) {
        std::optional<std::string> Out =
            runSelf(Argv[0], {"--setup-child", "--workload", A.Workload});
        if (!Out || Out->empty()) {
          std::fprintf(stderr, "perfbench: set-up process failed\n");
          return 1;
        }
        SetupS.push_back(std::strtod(Out->c_str(), nullptr) / 1e9);
      }
      std::optional<std::string> Out = runSelf(
          Argv[0], {"--measure-child", "--workload", A.Workload, "--seed",
                    std::to_string(A.Seed), "--seconds", Seconds,
                    "--plant-delay-ns", Delay});
      if (!Out || !mergeResults(*Out, Main, ProcRssMb)) {
        std::fprintf(stderr, "perfbench: measuring process failed\n");
        return 1;
      }
    }
    CostVsRef = summarize(Main.LibNs).Median / summarize(Main.RefNs).Median;
    RssMb = summarize(ProcRssMb).Median;
  } else {
    // The named workload untraced, then every workload traced, each from
    // the same seed, so each layer metric is measured on the inputs of the
    // workload it serves.
    const uint64_t Slice = static_cast<uint64_t>(A.Seconds * 1e9 / 5);
    const uint64_t Delay = delayTurns(A.PlantDelayNs);
    std::unique_ptr<Workload> Target = make(A.Workload, Delay);
    Target->generate(A.Seed, Main);
    Target->run(nowNs() + Slice, Main);
    CostVsRef = summarize(Main.LibNs).Median / summarize(Main.RefNs).Median;
    for (const char *Name : WorkloadNames) {
      Results R;
      std::unique_ptr<Workload> Other;
      Workload *W = Target.get();
      if (A.Workload != Name) {
        Other = make(Name, Delay);
        Other->generate(A.Seed, R);
        W = Other.get();
      }
      const double Traced = W->trace(nowNs() + Slice, T, R);
      if (A.Workload == Name)
        TraceOverhead = Traced / CostVsRef;
      TracedRuns.emplace_back(Name, std::move(R));
    }
  }
  for (const auto &[Name, Share] : Main.Inputs)
    std::printf("input %s=%.6g\n", Name.c_str(), Share);

  uint64_t Attempted = Main.Attempted, Failed = Main.Failed;
  std::map<std::string, double> Layers;
  std::vector<std::pair<std::string, Summary>> LayerTimings;
  for (const auto &[Name, R] : TracedRuns) {
    Attempted += R.Attempted;
    Failed += R.Failed;
    Layers.insert(R.Layers.begin(), R.Layers.end());
    LayerTimings.insert(LayerTimings.end(), R.LayerTimings.begin(),
                        R.LayerTimings.end());
  }
  Layers["trace.overhead"] = TraceOverhead;

  // Every traced span kind as ns/value over its chunks.
  std::map<std::string, std::vector<double>> SpanNs;
  for (const Span &S : T.spans())
    SpanNs[T.name(S.Name)].push_back(nsPerValue(S));
  for (auto &[Name, Samples] : SpanNs)
    LayerTimings.emplace_back("span " + Name + " ns/value",
                              summarize(std::move(Samples)));

  const Summary Lib = summarize(Main.LibNs);
  const Summary Ref = summarize(Main.RefNs);
  const Summary Setup = summarize(SetupS);
  const double FailShare =
      Attempted ? static_cast<double>(Failed) / Attempted : 1.0;
  // Throughput at the ns/value percentiles (the tail is the slow side).
  Summary Throughput = Lib;
  Throughput.Median = Lib.Median > 0 ? 1e9 / Lib.Median : 0;
  Throughput.Tail = Lib.Tail > 0 ? 1e9 / Lib.Tail : 0;
  const std::string Sample = A.Workload == "batch" ? "(batch)" : "(chunk)";

  printSummary("lib_ns_per_value" + Sample, Lib, "ns");
  printSummary("ref_ns_per_value" + Sample, Ref, "ns");
  printSummary("lib_values_per_s", Throughput, "1/s");
  if (!Main.BatchWallUs.empty())
    printSummary("batch_wall_us", summarize(Main.BatchWallUs), "us");
  if (!A.Trace)
    printSummary("setup_s", Setup, "s");
  for (const auto &[Label, S] : LayerTimings)
    printSummary(Label, S, Label.rfind("span ", 0) == 0 ? "ns" : "us");
  std::printf("result cost_vs_ref=%.6g fail_share=%.6g (%llu of %llu)",
              CostVsRef, FailShare, static_cast<unsigned long long>(Failed),
              static_cast<unsigned long long>(Attempted));
  if (!A.Trace)
    std::printf(" setup_s=%.6g peak_rss_mb=%.6g", Setup.Median, RssMb);
  std::printf("\n");

  // Metrics of this run, in the order BENCHMARK.json lists them.
  std::vector<std::pair<std::string, double>> Metrics;
  if (A.Trace) {
    for (const char *Name : LayerMetrics)
      Metrics.emplace_back(Name, Layers.count(Name) ? Layers[Name] : NAN);
  } else {
    Metrics = {{"cost_vs_ref", CostVsRef},
               {"setup_s", Setup.Median},
               {"peak_rss_mb", RssMb}};
  }
  bool Finite = true;
  for (const auto &[Name, V] : Metrics)
    Finite &= std::isfinite(V);

  // The report: stamp, inputs, every timing summary and every metric.
  std::string Report = "{\"schema\":\"perfbench.report.v1\",\"workload\":" +
                       jsonString(A.Workload) +
                       ",\"seed\":" + std::to_string(A.Seed) +
                       ",\"seconds\":" + number(A.Seconds) +
                       ",\"trace\":" + (A.Trace ? "1" : "0") +
                       ",\"planted_delay_ns\":" + number(A.PlantDelayNs) +
                       ",\"stamp\":" + Stamp + ",\"inputs\":{";
  for (size_t I = 0; I < Main.Inputs.size(); ++I)
    Report += (I ? "," : "") + jsonString(Main.Inputs[I].first) + ":" +
              number(Main.Inputs[I].second);
  Report += "},\"timings\":{\"lib_ns_per_value\":" + summaryJson(Lib) +
            ",\"ref_ns_per_value\":" + summaryJson(Ref) +
            ",\"lib_values_per_s\":" + summaryJson(Throughput);
  if (!Main.BatchWallUs.empty())
    Report += ",\"batch_wall_us\":" + summaryJson(summarize(Main.BatchWallUs));
  if (!A.Trace)
    Report += ",\"setup_s\":" + summaryJson(Setup);
  for (const auto &[Label, S] : LayerTimings)
    Report += "," + jsonString(Label) + ":" + summaryJson(S);
  Report += "},\"sample\":" + jsonString(Sample) +
            ",\"attempted\":" + std::to_string(Attempted) +
            ",\"failed\":" + std::to_string(Failed) +
            ",\"fail_share\":" + number(FailShare) + ",\"metrics\":{";
  for (size_t I = 0; I < Metrics.size(); ++I)
    Report += (I ? "," : "") + jsonString(Metrics[I].first) + ":" +
              number(Metrics[I].second);
  Report += "}}\n";
  const std::string ReportPath =
      A.OutDir + "/report-" + A.Workload + (A.Trace ? "-trace" : "") + ".json";
  if (std::FILE *F = std::fopen(ReportPath.c_str(), "w")) {
    std::fputs(Report.c_str(), F);
    std::fclose(F);
  }
  if (A.Trace) {
    const std::string SpanPath = A.OutDir + "/spans-" + A.Workload + ".jsonl";
    if (!T.write(SpanPath))
      std::fprintf(stderr, "perfbench: cannot write %s\n", SpanPath.c_str());
    std::printf("spans %zu written to %s\n", T.spans().size(),
                SpanPath.c_str());
  }

  std::string Line = "{\"correct\": " +
                     std::string(Failed == 0 && Attempted > 0 && Finite
                                     ? "true"
                                     : "false") +
                     ", \"attempted\": " + std::to_string(Attempted) +
                     ", \"failed\": " + std::to_string(Failed) +
                     ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I)
    Line += std::string(I ? ", " : "") + "\"" + Metrics[I].first +
            "\": {\"value\": " + number(Metrics[I].second) +
            ", \"unit\": \"" + unitOf(Metrics[I].first) + "\"}";
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  return 0;
}
