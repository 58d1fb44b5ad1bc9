//===- core/scaling.h - Scaling-factor computation ---------------*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Step 2 of the conversion algorithm: find the scale factor k (the
/// position of the radix point, high <= B^k) and put the integer state into
/// the form the digit-generation loop consumes.  Three interchangeable
/// strategies are provided, matching the three rows of the paper's Table 2:
///
///  * Iterative -- Steele & White's search, O(|log v|) bignum operations,
///    starting from k = 0 (Figure 1's `scale`).
///  * FloatLog  -- estimate ceil(log_B v) with the C library logarithm
///    minus a fudge constant so it never overshoots, then fix up; an
///    off-by-one estimate pays one extra bignum multiplication (Figure 2).
///  * Estimate  -- the paper's contribution: ceil((e + len(f) - 1) *
///    log_B 2 - epsilon) costs two floating-point operations, is always k
///    or k-1, and the fixup is restructured so the low case costs nothing
///    (Figure 3).
///
/// All three return the state in the *pre-multiplied* convention of
/// Figure 3: the next digit is floor(R/S) directly (no multiply first),
/// and the whole state is homogeneous -- scaling R, S, M+, M- by a common
/// factor is a no-op -- which is exactly the property the free fixup
/// exploits.
///
/// The state is BigInt whatever the mantissa width, so one dispatch,
/// `scale`, serves 64-bit and wider mantissas alike; only FloatLog reads
/// the mantissa itself, as a double.  Fixed-format output (Section 4)
/// calls scaleIterative directly, seeded at the two-flop estimate or at
/// the candidate scale of a relative request, because its expanded range
/// can put k anywhere above the free-format scale.
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_CORE_SCALING_H
#define DRAGON4_CORE_SCALING_H

#include "core/options.h"
#include "fp/boundaries.h"

namespace dragon4 {

/// Post-scaling state, ready for digit generation.
///
/// Invariants (writing n for the number of digits generated so far, with
/// the pre-multiplication folded in):
///   v = 0.d1...dn * B^K + (R/S) * B^(K-n-1) * ...  -- see digit_loop.h.
struct ScaledState {
  BigInt R;      ///< Numerator; next digit is floor(R/S).
  BigInt S;      ///< Common denominator.
  BigInt MPlus;  ///< Distance to the high boundary (same denominator).
  BigInt MMinus; ///< Distance to the low boundary (same denominator).
  int K = 0;     ///< The scale factor: high <= B^K (or < if HighOk).
};

/// The paper's two-flop estimator: ceil((E + Len - 1) * log_B 2 - 1e-10)
/// where Len is the bit length of the mantissa, so E + Len - 1 =
/// floor(log2 v).  Guaranteed to be k or k - 1 and never greater than k.
int estimateScale(int E, int MantissaBitLength, unsigned B);

/// Figure 2's estimator: ceil(log_B(v) - 1e-10) for v = F * 2^E, computed
/// with the C library logarithm as log(F) + E*log(2) (so it works for
/// values outside the double range, e.g. 80-bit extendeds).  \p ApproxF is
/// the mantissa rounded to double, exact for mantissas of up to 53 bits;
/// the accumulated floating-point error, rounding included, stays orders
/// of magnitude below the subtracted fudge constant, so the estimate never
/// overshoots k.
int estimateScaleFloatLog(double ApproxF, int E, unsigned B);

/// Steele & White's iterative scaling, generalized to start the search at
/// \p InitialK (0 reproduces Figure 1; the fixed-format path seeds it with
/// an estimate and lets it walk the rest of the way).
ScaledState scaleIterative(ScaledStart Start, unsigned B, BoundaryFlags Flags,
                           int InitialK = 0);

/// Figure 2: float-log estimate plus a fixup that multiplies S by B when
/// the estimate was one low.
ScaledState scaleFloatLog(ScaledStart Start, unsigned B, BoundaryFlags Flags,
                          double ApproxF, int E);

/// Figure 3: the fast estimator with the restructured, free fixup.
ScaledState scaleEstimate(ScaledStart Start, unsigned B, BoundaryFlags Flags,
                          int E, int MantissaBitLength);

/// Dispatches on \p Algorithm for the value F * 2^E, where \p ApproxF is
/// F rounded to double (read only by FloatLog) and \p MantissaBitLength is
/// F's bit length (read only by Estimate).  One dispatch serves every
/// mantissa width.
ScaledState scale(ScaledStart Start, unsigned B, BoundaryFlags Flags,
                  ScalingAlgorithm Algorithm, double ApproxF, int E,
                  int MantissaBitLength);

} // namespace dragon4

#endif // DRAGON4_CORE_SCALING_H
