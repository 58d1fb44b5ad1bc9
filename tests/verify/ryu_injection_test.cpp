//===- tests/verify/ryu_injection_test.cpp ---------------------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The exhaustive tier guards the Ryu front line, proven the same way the
/// digit-loop was in the original harness self-test: plant a bug (the
/// digit-removal bound made inclusive instead of strict, so Ryu strips
/// digits it must keep), demand the binary16 sweep catches it, the
/// minimizer shrinks the failure to a two-line corpus record, and replay
/// reproduces it -- then, with the hook off, the same record passes, which
/// is exactly the regression-corpus lifecycle a real Ryu bug would follow.
///
//===----------------------------------------------------------------------===//

#include "verify/corpus.h"
#include "verify/verify.h"

#include "core/free_format.h"
#include "fastpath/ryu.h"
#include "fp/binary16.h"
#include "fp/ieee_traits.h"
#include "support/testhooks.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <vector>

using namespace dragon4;
using namespace dragon4::verify;

namespace {

/// Restores the injected-bug hook on scope exit, so a failing test cannot
/// poison the rest of the binary.
struct HookGuard {
  ~HookGuard() { testhooks::FlipRyuBoundComparison = false; }
};

BitPattern bits16(uint64_t Encoding) {
  BitPattern Bits;
  Bits.Format = FloatFormat::Binary16;
  Bits.Lo = Encoding;
  return Bits;
}

/// Sanity on the bug itself, before involving the harness: with the hook
/// on, Ryu's output for a value whose shortest form needs several digits
/// comes out shorter than the exact answer (digits the reader needs were
/// removed), while single-digit values may survive.  This pins the failure
/// mode the sweep below is expected to catch.
TEST(RyuInjection, FlippedBoundRemovesRequiredDigits) {
  HookGuard Guard;
  Binary16 Value = Binary16::fromBits(0x3c01); // 1.0009765625, shortest 1.001
  Decomposed D = decompose(Value);
  FreeFormatOptions Options;
  DigitString Exact =
      freeFormatDigits(D.F, D.E, IeeeTraits<Binary16>::Precision,
                       IeeeTraits<Binary16>::MinExponent, Options);
  ASSERT_GT(Exact.Digits.size(), 1u);

  std::vector<uint8_t> Digits;
  int K = 0;
  bool AcceptBounds = false;
  ASSERT_TRUE(ryuEligible(10, Options.Boundaries, (D.F & 1) == 0,
                          AcceptBounds));

  testhooks::FlipRyuBoundComparison = true;
  ASSERT_TRUE(ryuShortestInto(D.F, D.E, IeeeTraits<Binary16>::Precision,
                              IeeeTraits<Binary16>::MinExponent, AcceptBounds,
                              Options.Ties, Digits, K));
  EXPECT_LT(Digits.size(), Exact.Digits.size())
      << "hook failed to over-remove digits";

  testhooks::FlipRyuBoundComparison = false;
  ASSERT_TRUE(ryuShortestInto(D.F, D.E, IeeeTraits<Binary16>::Precision,
                              IeeeTraits<Binary16>::MinExponent, AcceptBounds,
                              Options.Ties, Digits, K));
  EXPECT_EQ(Digits, Exact.Digits);
  EXPECT_EQ(K, Exact.K);
}

// The self-test that earns Ryu its place in front: flip its removal-loop
// bound and demand the binary16 sweep catches it, the minimizer shrinks
// it, and replay reproduces it.
TEST(RyuInjection, BugCaughtMinimizedReplayed) {
  HookGuard Guard;
  testhooks::FlipRyuBoundComparison = true;

  // Sweep an exhaustive subrange around 1.0, where shortest forms need
  // several digits and the over-removal is guaranteed to be visible.
  std::vector<CorpusRecord> Failures;
  for (uint64_t Encoding = 0x3c00; Encoding < 0x3c40; ++Encoding) {
    Verdict Verdict = checkBits(bits16(Encoding));
    if (!Verdict.ok()) {
      CorpusRecord Record;
      Record.Bits = bits16(Encoding);
      Record.Oracles = Verdict.Failed;
      Record.Comment = Verdict.Detail;
      Failures.push_back(Record);
    }
  }
  ASSERT_FALSE(Failures.empty())
      << "injected Ryu bound bug not caught by the sweep";

  // Minimize the first failure: still failing, at most two corpus lines.
  CorpusRecord Minimized = minimizeRecord(Failures.front());
  EXPECT_FALSE(replayRecord(Minimized).ok());
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
  EXPECT_FALSE(replayRecord(Loaded.front()).ok())
      << "replayed record no longer reproduces the injected Ryu bug";

  // With the bug repaired, the same record passes: regression-corpus mode.
  testhooks::FlipRyuBoundComparison = false;
  EXPECT_TRUE(replayRecord(Loaded.front()).ok());
  std::remove(Path.c_str());
}

} // namespace
