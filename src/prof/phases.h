//===- prof/phases.h - Phase identity for cost attribution -------*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The algorithm-stage vocabulary of the phase-attribution profiler: one
/// enumerator per stage of the paper's cost model (Tables 2-3), plus the
/// enclosing Total span and the Overhead pseudo-phase that absorbs the
/// measured cost of reading the counters themselves.
///
/// This header is dependency-free on purpose: obs/registry.h includes it to
/// size its per-phase storage, while the span/collector machinery lives in
/// prof/phase.h (which depends on the registry).  Keep the enum and the two
/// name tables in sync.
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_PROF_PHASES_H
#define DRAGON4_PROF_PHASES_H

#include <cstdint>

namespace dragon4::prof {

/// One stage of a conversion, as attributed by PhaseSpan markers.
enum class Phase : uint8_t {
  Total,        ///< The whole conversion (gross; every other span nests).
  Decompose,    ///< Classification, IEEE decomposition, eligibility checks.
  RyuPath,      ///< The front rung (the Schubfach shortest digit core).
  Estimator,    ///< The two-flop / float-log scale estimate.
  ScaleSetup,   ///< Table-1 initial values and the B^k scale application.
  Fixup,        ///< The estimate-too-low check and its (free) correction.
  DigitLoop,    ///< The shared digit-generation loop (control + compares).
  BigIntMul,    ///< Full BigInt multiplications (under scaling or the loop).
  BigIntDivMod, ///< BigInt divMod calls (the digit extraction itself).
  Render,       ///< Digits -> characters in the caller's buffer.
  Overhead,     ///< Counter-read cost charged by the profiler itself.
  Count
};

inline constexpr unsigned NumPhases = static_cast<unsigned>(Phase::Count);

/// Index used in the parent-attribution matrix for "no enclosing span".
inline constexpr unsigned PhaseRootIndex = NumPhases;

/// Short stable key, [a-z_]: embedded in metric names and folded stacks.
constexpr const char *phaseName(Phase P) {
  switch (P) {
  case Phase::Total:
    return "total";
  case Phase::Decompose:
    return "decompose";
  case Phase::RyuPath:
    return "ryu_path";
  case Phase::Estimator:
    return "estimator";
  case Phase::ScaleSetup:
    return "scale_setup";
  case Phase::Fixup:
    return "fixup";
  case Phase::DigitLoop:
    return "digit_loop";
  case Phase::BigIntMul:
    return "bigint_mul";
  case Phase::BigIntDivMod:
    return "bigint_divmod";
  case Phase::Render:
    return "render";
  case Phase::Overhead:
    return "overhead";
  case Phase::Count:
    break;
  }
  return "?";
}

/// Human label for the cost-attribution table.
constexpr const char *phaseLabel(Phase P) {
  switch (P) {
  case Phase::Total:
    return "total (unattributed glue)";
  case Phase::Decompose:
    return "decompose + classify";
  case Phase::RyuPath:
    return "fast path (Ryu)";
  case Phase::Estimator:
    return "scale estimator";
  case Phase::ScaleSetup:
    return "Table-1 scale setup";
  case Phase::Fixup:
    return "estimate fixup";
  case Phase::DigitLoop:
    return "digit loop";
  case Phase::BigIntMul:
    return "BigInt mul";
  case Phase::BigIntDivMod:
    return "BigInt divMod";
  case Phase::Render:
    return "formatting";
  case Phase::Overhead:
    return "measurement overhead";
  case Phase::Count:
    break;
  }
  return "?";
}

} // namespace dragon4::prof

#endif // DRAGON4_PROF_PHASES_H
