//===- tools/prof_report.cpp - Phase cost-attribution report ------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the paper's Schryer double workload through the engine with
/// 1-in-1 profiling -- each value once under the default reader model
/// (served by the Ryu front line) and once under the asymmetric
/// LowInclusive model (forcing the exact pipeline) so every ladder rung
/// is attributed -- and prints the per-phase cost-attribution report (the
/// machine-generated analogue of the paper's Tables 2-3) plus, on
/// request, folded stacks for flamegraph tooling and a machine-checkable
/// coverage gate:
///
///   prof_report [--quick] [--report=FILE] [--folded=FILE]
///               [--stats-json=FILE] [--check-coverage=X]
///
///   --quick            1/16 subsample of the workload (CI smoke)
///   --report=FILE      write the cost table to FILE instead of stdout
///   --folded=FILE      write "frame;frame weight" folded-stack lines
///   --stats-json=FILE  write the full dragon4.stats.v1 document (the
///                      input of tools/bench_check.py --diff)
///   --check-coverage=X exit 1 unless attribution coverage >= X (0..1);
///                      the repo's acceptance gate runs with X = 0.95
///
/// With observability compiled out (DRAGON4_OBS=OFF) nothing can be
/// profiled; the tool says so and exits 0 (the coverage gate is only
/// registered for observability-enabled builds).
///
//===----------------------------------------------------------------------===//

#include "engine/engine.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "prof/report.h"
#include "testgen/schryer.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace dragon4;

namespace {

[[maybe_unused]] bool writeText(const std::string &Path,
                               const std::string &Text) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "prof_report: cannot write %s\n", Path.c_str());
    return false;
  }
  std::fwrite(Text.data(), 1, Text.size(), F);
  std::fclose(F);
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = false;
  std::string ReportPath, FoldedPath, StatsJsonPath;
  double CheckCoverage = -1.0;
  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    if (std::strcmp(A, "--quick") == 0) {
      Quick = true;
    } else if (std::strncmp(A, "--report=", 9) == 0) {
      ReportPath = A + 9;
    } else if (std::strncmp(A, "--folded=", 9) == 0) {
      FoldedPath = A + 9;
    } else if (std::strncmp(A, "--stats-json=", 13) == 0) {
      StatsJsonPath = A + 13;
    } else if (std::strncmp(A, "--check-coverage=", 17) == 0) {
      CheckCoverage = std::strtod(A + 17, nullptr);
    } else {
      std::fprintf(stderr,
                   "prof_report: unknown flag %s\nusage: prof_report "
                   "[--quick] [--report=FILE] [--folded=FILE] "
                   "[--stats-json=FILE] [--check-coverage=X]\n",
                   A);
      return 2;
    }
  }

#if !DRAGON4_OBS_ENABLED
  std::printf("prof_report: observability compiled out (DRAGON4_OBS=OFF); "
              "nothing to profile\n");
  (void)CheckCoverage;
  (void)Quick;
  return 0;
#else
  obs::config().SampleEvery = 1;
  obs::config().Trace = false;

  std::vector<double> Values = schryerDoubles();
  const size_t Step = Quick ? 16 : 1;
  engine::Scratch Scratch;
  char Buf[64];
  size_t Converted = 0;
  // Each value runs twice: once under the default reader model, which the
  // Ryu front line serves, and once under the asymmetric LowInclusive
  // model, which Ryu does not accept -- so the report attributes both
  // rungs of the ladder, from ryu_path down to the BigInt digit loop.
  PrintOptions ExactOnly;
  ExactOnly.Boundaries = BoundaryMode::LowInclusive;
  for (size_t I = 0; I < Values.size(); I += Step) {
    engine::format(Values[I], Buf, sizeof(Buf), PrintOptions{}, Scratch);
    engine::format(Values[I], Buf, sizeof(Buf), ExactOnly, Scratch);
    Converted += 2;
  }

  const obs::Registry &Reg = Scratch.obsState().Reg;
  std::string Report = prof::renderCostReport(Reg);
  std::printf("prof_report: %zu Schryer doubles profiled\n", Converted);
  if (ReportPath.empty())
    std::fputs(Report.c_str(), stdout);
  else if (!writeText(ReportPath, Report))
    return 2;

  if (!FoldedPath.empty() &&
      !writeText(FoldedPath, prof::renderFoldedStacks(Reg)))
    return 2;
  if (!StatsJsonPath.empty() &&
      !writeText(StatsJsonPath,
                 obs::renderStatsJson(
                     obs::makeSnapshot(engine::EngineStats{}, &Reg))))
    return 2;

  if (CheckCoverage >= 0.0) {
    double Coverage = prof::attributionCoverage(Reg);
    std::printf("prof_report: attribution coverage %.4f (gate %.2f)\n",
                Coverage, CheckCoverage);
    if (Coverage < CheckCoverage) {
      std::fprintf(stderr,
                   "prof_report: FAIL: coverage %.4f below the %.2f "
                   "gate -- conversion time is escaping the phase "
                   "spans\n",
                   Coverage, CheckCoverage);
      return 1;
    }
  }
  return 0;
#endif
}
