//===- support/testhooks.h - Fault injection for the harness -----*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Test-only fault injection points.  The verification harness
/// (src/verify/, tools/verify_exhaustive) needs a way to prove it can catch
/// real conversion bugs; these hooks let a test flip a known-critical
/// comparison at runtime and confirm the oracles light up, the minimizer
/// shrinks the failure, and --replay reproduces it.
///
/// Every hook defaults to off and must stay off outside tests.  They are
/// plain (non-atomic) globals: set them before spawning verification
/// threads and clear them after joining.
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_SUPPORT_TESTHOOKS_H
#define DRAGON4_SUPPORT_TESTHOOKS_H

namespace dragon4::testhooks {

/// When true, the digit-generation loop evaluates termination condition 1
/// ("the emitted prefix is already above the low boundary") with its
/// comparison strictness flipped: strict where the boundary is inclusive
/// and inclusive where it is strict.  The effect is a classic off-by-one
/// conversion bug -- values whose truncated prefix lands exactly on the low
/// midpoint stop one digit early (round-trip failure), and inclusive-
/// boundary values emit one digit too many (minimality failure).
extern bool FlipDigitLoopLowComparison;

/// When true, the Ryu fast path's digit-removal loop evaluates its
/// interval-width bound ("the remaining interval still spans a full
/// decade") inclusively instead of strictly, removing one digit too many
/// -- outputs land outside the rounding interval (round-trip failures) or
/// lose minimality.  The Ryu analogue of FlipDigitLoopLowComparison,
/// planted to prove the exhaustive tier also guards the new front line.
/// Defined in fastpath/ryu.cpp.
extern bool FlipRyuBoundComparison;

/// When true, the phase profiler (src/prof/) behaves as if
/// perf_event_open(2) were denied and falls back to the steady-clock
/// backend, so the degradation path is testable on machines where perf
/// events work.  Checked on every backend query; do not toggle while a
/// phase span is open (entry and exit reads must come from one backend).
/// Defined in prof/perf.cpp.
extern bool ForceCounterFallback;

} // namespace dragon4::testhooks

#endif // DRAGON4_SUPPORT_TESTHOOKS_H
