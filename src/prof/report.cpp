//===- prof/report.cpp - Cost-attribution and folded-stack output -----------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "prof/report.h"

#include "prof/perf.h"
#include "prof/phases.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

using namespace dragon4;
using namespace dragon4::prof;

namespace {

void appendF(std::string &Out, const char *Fmt, ...) {
  char Buf[256];
  va_list Args;
  va_start(Args, Fmt);
  int N = std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  if (N > 0)
    Out.append(Buf, static_cast<size_t>(N) < sizeof(Buf)
                        ? static_cast<size_t>(N)
                        : sizeof(Buf) - 1);
}

/// Stack prefix for spans directly under phase index \p Parent.  Every
/// non-Total phase nests under Total in the engine's span topology, so two
/// levels of reconstruction give exact full paths.
std::string stackPrefix(size_t Parent) {
  if (Parent == PhaseRootIndex)
    return "dragon4";
  Phase P = static_cast<Phase>(Parent);
  if (P == Phase::Total)
    return "dragon4;total";
  return std::string("dragon4;total;") + phaseName(P);
}

} // namespace

double dragon4::prof::attributionCoverage(const obs::Registry &Reg) {
  const obs::PhaseStats &Total = Reg.phase(Phase::Total);
  if (Total.GrossTicksTotal == 0)
    return 0.0;
  double Unattributed = static_cast<double>(Total.SelfTicksTotal);
  return 1.0 - Unattributed / static_cast<double>(Total.GrossTicksTotal);
}

std::string dragon4::prof::renderCostReport(const obs::Registry &Reg) {
  const obs::PhaseStats &Total = Reg.phase(Phase::Total);
  const uint64_t Values = Total.Spans;
  const bool Perf = backendIsPerf();
  const char *TickUnit = Perf ? "cycles" : "ns";

  std::string Out;
  appendF(Out, "dragon4 cost attribution (backend: %s; %" PRIu64
               " profiled conversions)\n",
          backendName(backend()), Values);
  if (Values == 0) {
    Out += "  (nothing profiled: enable obs sampling and run conversions)\n";
    return Out;
  }

  appendF(Out, "  %-26s %10s %14s/value %7s %14s/value\n", "phase", "spans",
          TickUnit, "%total", "instr");
  const double Gross = static_cast<double>(Total.GrossTicksTotal);
  // Table order: pipeline order rather than enum order, Total's
  // unattributed glue last so the coverage line reads naturally above it.
  static constexpr Phase Order[] = {
      Phase::Decompose, Phase::RyuPath,      Phase::Estimator,
      Phase::ScaleSetup, Phase::Fixup,       Phase::DigitLoop,
      Phase::BigIntMul, Phase::BigIntDivMod, Phase::Render,
      Phase::Overhead,  Phase::Total};
  for (Phase P : Order) {
    const obs::PhaseStats &S = Reg.phase(P);
    if (S.Spans == 0 && S.SelfTicksTotal == 0)
      continue;
    const double PerValue =
        static_cast<double>(S.SelfTicksTotal) / static_cast<double>(Values);
    const double Share =
        Gross > 0 ? 100.0 * static_cast<double>(S.SelfTicksTotal) / Gross : 0;
    // The steady-clock fallback cannot count instructions: say so rather
    // than print a measured-looking 0.0.
    if (Perf)
      appendF(Out, "  %-26s %10" PRIu64 " %14.1f       %6.1f%% %14.1f\n",
              phaseLabel(P), S.Spans, PerValue, Share,
              static_cast<double>(S.Instructions) /
                  static_cast<double>(Values));
    else
      appendF(Out, "  %-26s %10" PRIu64 " %14.1f       %6.1f%% %14s\n",
              phaseLabel(P), S.Spans, PerValue, Share, "n/a");
  }
  appendF(Out, "  total measured: %.1f %s/value over %" PRIu64 " values\n",
          Gross / static_cast<double>(Values), TickUnit, Values);
  appendF(Out, "  coverage: %.1f%% of measured %s attributed to phases\n",
          100.0 * attributionCoverage(Reg), TickUnit);
  if (!Perf)
    Out += "  note: steady-clock fallback backend; ticks are nanoseconds "
           "and instruction counts are unavailable\n";
  return Out;
}

std::string dragon4::prof::renderFoldedStacks(const obs::Registry &Reg) {
  std::string Out;
  for (size_t Parent = 0; Parent <= NumPhases; ++Parent) {
    for (size_t Child = 0; Child < NumPhases; ++Child) {
      uint64_t Ticks =
          Reg.phaseParentTicks(Parent, static_cast<Phase>(Child));
      if (Ticks == 0)
        continue;
      appendF(Out, "%s;%s %" PRIu64 "\n", stackPrefix(Parent).c_str(),
              phaseName(static_cast<Phase>(Child)), Ticks);
    }
  }
  return Out;
}
