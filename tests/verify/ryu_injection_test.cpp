//===- tests/verify/ryu_injection_test.cpp ---------------------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The exhaustive tier guards the shortest digit core, proven the way the
/// digit loop was in the original harness self-test: plant a bug, demand
/// the binary16 sweep catches it, the minimizer shrinks the failure to a
/// two-line corpus record, and replay reproduces it -- then, judged
/// against the library's own core, the same record passes, which is the
/// regression-corpus lifecycle a real digit-core bug would follow.
///
/// The bug is planted without a test hook in the production path: the
/// Schubfach core is a template over CoreMutation, and only this test
/// instantiates CoreMutation::InclusiveLowerEndpoint (the lower-endpoint
/// test admits the endpoint even where AcceptBounds excludes it).  The
/// verify harness judges that instantiation through its DigitCore
/// parameter.
///
//===----------------------------------------------------------------------===//

#include "verify/corpus.h"
#include "verify/verify.h"

#include "core/free_format.h"
#include "fastpath/ryu.h"
#include "fastpath/schubfach.h"
#include "fp/binary16.h"
#include "fp/ieee_traits.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <vector>

using namespace dragon4;
using namespace dragon4::verify;

namespace {

constexpr DigitCore MutantCore = fastpath::schubfachShortest<
    fastpath::CoreMutation::InclusiveLowerEndpoint>;

BitPattern bits16(uint64_t Encoding) {
  BitPattern Bits;
  Bits.Format = FloatFormat::Binary16;
  Bits.Lo = Encoding;
  return Bits;
}

/// Sanity on the bug itself, before involving the harness.  0x6c09 is
/// 4132 with an odd mantissa: its lower neighbour midpoint, 4130, is
/// excluded under the default nearest-even reader (it reads back as the
/// even neighbour 4128), so the exact answer needs all four digits.  The
/// mutant admits the endpoint and emits 413e1 -- a required digit lost.
TEST(RyuInjection, FlippedBoundRemovesRequiredDigits) {
  Binary16 Value = Binary16::fromBits(0x6c09);
  Decomposed D = decompose(Value);
  FreeFormatOptions Options;
  DigitString Exact =
      freeFormatDigits(D.F, D.E, IeeeTraits<Binary16>::Precision,
                       IeeeTraits<Binary16>::MinExponent, Options);
  ASSERT_EQ(Exact.digitsAsText(), "4132");

  bool AcceptBounds = true;
  ASSERT_TRUE(ryuEligible(10, Options.Boundaries, (D.F & 1) == 0,
                          AcceptBounds));
  ASSERT_FALSE(AcceptBounds);

  uint64_t Significand = 0;
  int Length = 0;
  int K = 0;
  ASSERT_TRUE(MutantCore(D.F, D.E, IeeeTraits<Binary16>::Precision,
                         IeeeTraits<Binary16>::MinExponent, AcceptBounds,
                         Options.Ties, Significand, Length, K));
  EXPECT_EQ(Significand, 413u);
  EXPECT_LT(static_cast<size_t>(Length), Exact.Digits.size())
      << "mutation failed to drop a required digit";

  std::vector<uint8_t> Digits;
  ASSERT_TRUE(ryuShortestInto(D.F, D.E, IeeeTraits<Binary16>::Precision,
                              IeeeTraits<Binary16>::MinExponent, AcceptBounds,
                              Options.Ties, Digits, K));
  EXPECT_EQ(Digits, Exact.Digits);
  EXPECT_EQ(K, Exact.K);
}

// The self-test that earns the digit core its place in front: judge the
// mutant and demand the binary16 sweep catches it, the minimizer shrinks
// it, and replay reproduces it.
TEST(RyuInjection, BugCaughtMinimizedReplayed) {
  // Sweep an exhaustive subrange of [4096, 8192), where the interval
  // endpoints are integers and some land exactly on a multiple of ten.
  std::vector<CorpusRecord> Failures;
  for (uint64_t Encoding = 0x6c00; Encoding < 0x6c40; ++Encoding) {
    Verdict Verdict = checkBits(bits16(Encoding), OracleAll, nullptr,
                                MutantCore);
    if (!Verdict.ok()) {
      EXPECT_TRUE(Verdict.Failed & OracleCore) << Verdict.Detail;
      CorpusRecord Record;
      Record.Bits = bits16(Encoding);
      Record.Oracles = Verdict.Failed;
      Record.Comment = Verdict.Detail;
      Failures.push_back(Record);
    }
  }
  ASSERT_FALSE(Failures.empty())
      << "planted digit-core mutation not caught by the sweep";

  // Minimize the first failure: still failing, at most two corpus lines.
  CorpusRecord Minimized =
      minimizeRecord(Failures.front(), 4096, MutantCore);
  EXPECT_FALSE(replayRecord(Minimized, nullptr, MutantCore).ok());
  std::string Text = encodeRecord(Minimized);
  EXPECT_LE(std::count(Text.begin(), Text.end(), '\n'), 2);

  // Replay through a corpus file round-trip, exactly as the CI would.
  std::string Path = ::testing::TempDir() + "ryu_injected_bug.rec";
  std::remove(Path.c_str());
  ASSERT_TRUE(appendRecord(Path, Minimized));
  std::vector<CorpusRecord> Loaded;
  std::string Error;
  ASSERT_TRUE(loadCorpus(Path, Loaded, &Error)) << Error;
  ASSERT_EQ(Loaded.size(), 1u);
  EXPECT_FALSE(replayRecord(Loaded.front(), nullptr, MutantCore).ok())
      << "replayed record no longer reproduces the planted mutation";

  // Judged against the library's own core, the same record passes:
  // regression-corpus mode.
  EXPECT_TRUE(replayRecord(Loaded.front()).ok());
  std::remove(Path.c_str());
}

} // namespace
