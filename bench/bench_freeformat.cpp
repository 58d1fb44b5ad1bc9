//===- bench/bench_freeformat.cpp - Free-format conversion costs --------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end shortest-output conversion cost: by magnitude, by format,
/// by base, and against the Steele & White baseline; plus rendering cost.
///
//===----------------------------------------------------------------------===//

#include "baselines/steele_white.h"
#include "core/free_format.h"
#include "baselines/grisu.h"
#include "format/dtoa.h"
#include "fp/binary16.h"

#include "bench_gbench.h"

#include <cstdio>

using namespace dragon4;

namespace {

const double TestValues[] = {3.14159, 1.5e-5, 6.02214076e23, 1.7e308,
                             5e-324};

void BM_ShortestDouble(benchmark::State &State) {
  double V = TestValues[State.range(0)];
  for (auto _ : State) {
    DigitString D = shortestDigits(V);
    benchmark::DoNotOptimize(D);
  }
  char Label[32];
  std::snprintf(Label, sizeof(Label), "%g", V);
  State.SetLabel(Label);
}
BENCHMARK(BM_ShortestDouble)->DenseRange(0, 4);

void BM_ShortestFloat(benchmark::State &State) {
  float V = 3.14159f;
  for (auto _ : State) {
    DigitString D = shortestDigits(V);
    benchmark::DoNotOptimize(D);
  }
}
BENCHMARK(BM_ShortestFloat);

void BM_ShortestHalf(benchmark::State &State) {
  Binary16 V = Binary16::fromDouble(3.14159);
  for (auto _ : State) {
    DigitString D = shortestDigits(V);
    benchmark::DoNotOptimize(D);
  }
}
BENCHMARK(BM_ShortestHalf);

void BM_ShortestExtended80(benchmark::State &State) {
  long double V = 3.14159265358979323846L;
  for (auto _ : State) {
    DigitString D = shortestDigits(V);
    benchmark::DoNotOptimize(D);
  }
}
BENCHMARK(BM_ShortestExtended80);

void BM_ShortestBinary128(benchmark::State &State) {
  Binary128 V = Binary128::fromDouble(3.141592653589793);
  for (auto _ : State) {
    DigitString D = shortestDigits(V);
    benchmark::DoNotOptimize(D);
  }
}
BENCHMARK(BM_ShortestBinary128);

void BM_ShortestByBase(benchmark::State &State) {
  FreeFormatOptions Options;
  Options.Base = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    DigitString D = shortestDigits(3.141592653589793, Options);
    benchmark::DoNotOptimize(D);
  }
}
BENCHMARK(BM_ShortestByBase)->Arg(2)->Arg(10)->Arg(16)->Arg(36);

void BM_SteeleWhiteDouble(benchmark::State &State) {
  double V = TestValues[State.range(0)];
  for (auto _ : State) {
    DigitString D = steeleWhiteDigits(V);
    benchmark::DoNotOptimize(D);
  }
  char Label[32];
  std::snprintf(Label, sizeof(Label), "%g", V);
  State.SetLabel(Label);
}
BENCHMARK(BM_SteeleWhiteDouble)->DenseRange(0, 4);

void BM_GrisuFastDouble(benchmark::State &State) {
  // The Grisu3 fast path with exact fallback (Loitsch 2010, the follow-on
  // to the paper): typically ~10x the exact path on the happy path.
  double V = TestValues[State.range(0)];
  for (auto _ : State) {
    DigitString D = shortestDigitsFast(V);
    benchmark::DoNotOptimize(D);
  }
  char Label[32];
  std::snprintf(Label, sizeof(Label), "%g", V);
  State.SetLabel(Label);
}
BENCHMARK(BM_GrisuFastDouble)->DenseRange(0, 4);

void BM_ToShortestString(benchmark::State &State) {
  for (auto _ : State) {
    std::string Text = toShortest(3.141592653589793);
    benchmark::DoNotOptimize(Text);
  }
}
BENCHMARK(BM_ToShortestString);

void BM_SnprintfReference(benchmark::State &State) {
  // The C library's %.17g, as the familiar cost yardstick.
  char Buffer[64];
  for (auto _ : State) {
    int Written =
        std::snprintf(Buffer, sizeof(Buffer), "%.17g", 3.141592653589793);
    benchmark::DoNotOptimize(Written);
    benchmark::DoNotOptimize(Buffer);
  }
}
BENCHMARK(BM_SnprintfReference);

} // namespace

D4_GBENCH_MAIN("bench_freeformat")
