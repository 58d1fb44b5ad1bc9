//===- fastpath/ryu.cpp - Shortest digit rung -----------------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shortest ladder's front rung: the library's one instantiation of
/// the Schubfach digit core (fastpath/schubfach.h), behind the entry
/// points the engine, the benches and the tests call.
///
//===----------------------------------------------------------------------===//

#include "fastpath/ryu.h"

#include "fastpath/schubfach.h"
#include "format/render_core.h"
#include "prof/phase.h"
#include "support/checks.h"

using namespace dragon4;

bool dragon4::ryuShortestDecimal(uint64_t F, int E, int Precision,
                                 int MinExponent, bool AcceptBounds,
                                 TieBreak Ties, uint64_t &Output,
                                 int &Length, int &K) {
  D4_PROF_SPAN(RyuPath);
  D4_ASSERT(F != 0, "zero handled by the caller");
  return fastpath::schubfachShortest(F, E, Precision, MinExponent,
                                     AcceptBounds, Ties, Output, Length, K);
}

bool dragon4::ryuShortestInto(uint64_t F, int E, int Precision,
                              int MinExponent, bool AcceptBounds,
                              TieBreak Ties, std::vector<uint8_t> &Digits,
                              int &K) {
  uint64_t Output = 0;
  int Length = 0;
  if (!ryuShortestDecimal(F, E, Precision, MinExponent, AcceptBounds, Ties,
                          Output, Length, K))
    return false;
  render_detail::storeDecimalDigits(Output, Length, Digits);
  return true;
}
