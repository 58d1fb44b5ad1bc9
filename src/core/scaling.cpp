//===- core/scaling.cpp - Scaling-factor computation -----------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/scaling.h"

#include "bigint/power_cache.h"
#include "obs/trace.h"
#include "prof/phase.h"
#include "support/checks.h"

#include <array>
#include <cmath>

using namespace dragon4;

namespace {

/// log_B 2, tabulated for bases 2-36 (the paper's invlog2of table).
double invLog2Of(unsigned B) {
  static const std::array<double, 37> Table = [] {
    std::array<double, 37> Init{};
    for (unsigned Base = 2; Base <= 36; ++Base)
      Init[Base] = std::log(2.0) / std::log(static_cast<double>(Base));
    return Init;
  }();
  D4_ASSERT(B >= 2 && B <= 36, "base out of range");
  return Table[B];
}

/// 1 / ln B, tabulated (the paper's logB helper).
double invLnOf(unsigned B) {
  static const std::array<double, 37> Table = [] {
    std::array<double, 37> Init{};
    for (unsigned Base = 2; Base <= 36; ++Base)
      Init[Base] = 1.0 / std::log(static_cast<double>(Base));
    return Init;
  }();
  D4_ASSERT(B >= 2 && B <= 36, "base out of range");
  return Table[B];
}

/// The fudge constant subtracted before the ceiling so that floating-point
/// error can never push an estimate above the true k (the paper chooses a
/// value "slightly greater than the largest possible error").
constexpr double EstimateFudge = 1e-10;

/// True if k is still too low: the high boundary reaches or exceeds B^k.
bool scaleTooLow(const ScaledStart &Start, BoundaryFlags Flags) {
  BigInt High = Start.R + Start.MPlus;
  return Flags.HighOk ? High >= Start.S : High > Start.S;
}

/// True if k is too high: the high boundary already fits below B^(k-1).
bool scaleTooHigh(const ScaledStart &Start, unsigned B, BoundaryFlags Flags) {
  BigInt High = Start.R + Start.MPlus;
  High.mulSmall(B);
  return Flags.HighOk ? High < Start.S : High <= Start.S;
}

/// Multiplies the value side of the state by B^|K| or the denominator by
/// B^K, turning (r, s, m+, m-) for k = 0 into the state for scale k.
void applyScale(ScaledStart &Start, unsigned B, int K) {
  if (K >= 0) {
    Start.S *= cachedPow(B, static_cast<unsigned>(K));
    return;
  }
  const BigInt &Factor = cachedPow(B, static_cast<unsigned>(-K));
  Start.R *= Factor;
  Start.MPlus *= Factor;
  Start.MMinus *= Factor;
}

/// Converts a Figure-1-convention state into the pre-multiplied convention
/// the digit loop uses (multiply the value side by B once).
ScaledState preMultiplied(ScaledStart Start, unsigned B, int K) {
  Start.R.mulSmall(B);
  Start.MPlus.mulSmall(B);
  Start.MMinus.mulSmall(B);
  return ScaledState{std::move(Start.R), std::move(Start.S),
                     std::move(Start.MPlus), std::move(Start.MMinus), K};
}

} // namespace

int dragon4::estimateScale(int E, int MantissaBitLength, unsigned B) {
  // floor(log2 v) = E + len(f) - 1; logB v ~ floor(log2 v) * log_B 2.
  double Log = static_cast<double>(E + MantissaBitLength - 1) * invLog2Of(B);
  return static_cast<int>(std::ceil(Log - EstimateFudge));
}

int dragon4::estimateScaleFloatLog(double ApproxF, int E, unsigned B) {
  D4_ASSERT(ApproxF > 0, "logarithm estimate of a non-positive value");
  // ln(F * 2^E) = ln F + E ln 2, evaluated in double precision.  The
  // error of the sum stays far below the fudge constant even at the
  // binary128 exponent range.
  double Log = (std::log(ApproxF) +
                static_cast<double>(E) * 0.6931471805599453) *
               invLnOf(B);
  return static_cast<int>(std::ceil(Log - EstimateFudge));
}

ScaledState dragon4::scaleIterative(ScaledStart Start, unsigned B,
                                    BoundaryFlags Flags, int InitialK) {
  // The whole iterative search is scale setup: there is no separate
  // estimator or fixup to attribute.
  D4_PROF_SPAN(ScaleSetup);
  int K = InitialK;
  applyScale(Start, B, K);
  for (;;) {
    if (scaleTooLow(Start, Flags)) {
      Start.S.mulSmall(B);
      ++K;
      continue;
    }
    if (scaleTooHigh(Start, B, Flags)) {
      Start.R.mulSmall(B);
      Start.MPlus.mulSmall(B);
      Start.MMinus.mulSmall(B);
      --K;
      continue;
    }
    if (auto *T = obs::activeTrace())
      T->noteScale(obs::ScaleBranch::Iterative, InitialK, K, -1);
    return preMultiplied(std::move(Start), B, K);
  }
}

ScaledState dragon4::scaleFloatLog(ScaledStart Start, unsigned B,
                                   BoundaryFlags Flags, double ApproxF,
                                   int E) {
  int Est;
  {
    D4_PROF_SPAN(Estimator);
    Est = estimateScaleFloatLog(ApproxF, E, B);
  }
  {
    D4_PROF_SPAN(ScaleSetup);
    applyScale(Start, B, Est);
  }
  // Figure 2's fixup: an estimate one low pays one multiplication of s.
  bool Fixup;
  {
    D4_PROF_SPAN(Fixup);
    Fixup = scaleTooLow(Start, Flags);
    if (Fixup)
      Start.S.mulSmall(B);
  }
  if (auto *T = obs::activeTrace())
    T->noteScale(obs::ScaleBranch::FloatLog, Est, Est + (Fixup ? 1 : 0),
                 Fixup ? 1 : 0);
  D4_PROF_SPAN(ScaleSetup);
  return preMultiplied(std::move(Start), B, Fixup ? Est + 1 : Est);
}

ScaledState dragon4::scaleEstimate(ScaledStart Start, unsigned B,
                                   BoundaryFlags Flags, int E,
                                   int MantissaBitLength) {
  int Est;
  {
    D4_PROF_SPAN(Estimator);
    Est = estimateScale(E, MantissaBitLength, B);
  }
  {
    D4_PROF_SPAN(ScaleSetup);
    applyScale(Start, B, Est);
  }
  // Figure 3's fixup: the loop state is homogeneous (R, S, M+, M- may all
  // be scaled by a common factor), so when the estimate is one low the
  // un-pre-multiplied state *is* the pre-multiplied state for k = est + 1.
  // The off-by-one case therefore costs nothing at all.
  bool Fixup;
  {
    D4_PROF_SPAN(Fixup);
    Fixup = scaleTooLow(Start, Flags);
  }
  if (auto *T = obs::activeTrace())
    T->noteScale(obs::ScaleBranch::Estimate, Est, Est + (Fixup ? 1 : 0),
                 Fixup ? 1 : 0);
  if (Fixup)
    return ScaledState{std::move(Start.R), std::move(Start.S),
                       std::move(Start.MPlus), std::move(Start.MMinus),
                       Est + 1};
  D4_PROF_SPAN(ScaleSetup);
  return preMultiplied(std::move(Start), B, Est);
}

ScaledState dragon4::scale(ScaledStart Start, unsigned B, BoundaryFlags Flags,
                           ScalingAlgorithm Algorithm, double ApproxF, int E,
                           int MantissaBitLength) {
  switch (Algorithm) {
  case ScalingAlgorithm::Iterative:
    return scaleIterative(std::move(Start), B, Flags);
  case ScalingAlgorithm::FloatLog:
    return scaleFloatLog(std::move(Start), B, Flags, ApproxF, E);
  case ScalingAlgorithm::Estimate:
    return scaleEstimate(std::move(Start), B, Flags, E, MantissaBitLength);
  }
  unreachable("unknown scaling algorithm");
}
