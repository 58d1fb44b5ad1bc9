//===- tests/verify/verify_test.cpp ----------------------------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The verification harness verified: oracles accept known-good values and
/// specials, the corpus format round-trips, sweeps shard deterministically
/// over BatchEngine for any thread count, and -- the self-test that the
/// whole subsystem exists for -- an injected digit-loop bug is caught,
/// minimized to a two-line record, and reproduced by replay.
///
//===----------------------------------------------------------------------===//

#include "verify/corpus.h"
#include "verify/domain.h"
#include "verify/verify.h"

#include "engine/batch.h"
#include "fp/ieee_traits.h"
#include "support/testhooks.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>

using namespace dragon4;
using namespace dragon4::verify;

namespace {

BitPattern bits64(double V) {
  BitPattern Bits;
  Bits.Format = FloatFormat::Binary64;
  Bits.Lo = IeeeTraits<double>::toBits(V);
  return Bits;
}

BitPattern bitsOf(FloatFormat Format, uint64_t Hi, uint64_t Lo) {
  BitPattern Bits;
  Bits.Format = Format;
  Bits.Hi = Hi;
  Bits.Lo = Lo;
  return Bits;
}

/// Restores the injected-bug hook on scope exit, so a failing test cannot
/// poison the rest of the binary.
struct HookGuard {
  ~HookGuard() { testhooks::FlipDigitLoopLowComparison = false; }
};

TEST(VerifyNames, FormatNamesRoundTrip) {
  for (FloatFormat F : {FloatFormat::Binary16, FloatFormat::Binary32,
                        FloatFormat::Binary64, FloatFormat::Binary128}) {
    auto Back = formatByName(formatName(F));
    ASSERT_TRUE(Back.has_value());
    EXPECT_EQ(*Back, F);
  }
  EXPECT_FALSE(formatByName("binary80").has_value());
}

TEST(VerifyNames, OracleNamesRoundTrip) {
  for (unsigned Mask : {unsigned(OracleRoundTrip), unsigned(OracleShortest),
                        unsigned(OracleReference), unsigned(OracleLibc),
                        unsigned(OracleEngine), unsigned(OracleParse),
                        unsigned(OracleStd), OracleRoundTrip | OracleLibc,
                        OracleParse | OracleEngine, unsigned(OracleAll)}) {
    auto Back = parseOracles(oracleNames(Mask));
    ASSERT_TRUE(Back.has_value()) << oracleNames(Mask);
    EXPECT_EQ(*Back, Mask);
  }
  auto All = parseOracles("all");
  ASSERT_TRUE(All.has_value());
  EXPECT_EQ(*All, OracleAll);
  EXPECT_FALSE(parseOracles("roundtrip,astrology").has_value());
}

TEST(VerifyOracles, AcceptKnownGoodValues) {
  for (double V : {1.0, -1.0, 0.1, 2.5, 1e22, 5e-324, 4.9406564584124654e-324,
                   1.7976931348623157e308, 3.141592653589793, -6.02e23}) {
    Verdict Verdict = checkBits(bits64(V));
    EXPECT_TRUE(Verdict.ok()) << Verdict.Detail;
  }
}

TEST(VerifyOracles, AcceptSpecials) {
  // +/-0, +/-inf, NaN for each format.
  for (FloatFormat F : {FloatFormat::Binary16, FloatFormat::Binary32,
                        FloatFormat::Binary64, FloatFormat::Binary128}) {
    // binary128's exact-rational oracles cost ~200ms per extreme-exponent
    // value; a handful of boundary encodings is the right tier-1 budget.
    size_t Count = F == FloatFormat::Binary128 ? 12 : 64;
    for (const BitPattern &Bits : sampledDomain(F, Count, 3)) {
      Verdict Verdict = checkBits(Bits);
      EXPECT_TRUE(Verdict.ok())
          << formatName(F) << " " << bitsToHex(Bits) << ": " << Verdict.Detail;
    }
  }
  EXPECT_TRUE(checkBits(bitsOf(FloatFormat::Binary64, 0, 0)).ok());
  EXPECT_TRUE(
      checkBits(bitsOf(FloatFormat::Binary64, 0, uint64_t(1) << 63)).ok());
  EXPECT_TRUE(
      checkBits(bitsOf(FloatFormat::Binary64, 0, 0x7FF0000000000000)).ok());
  EXPECT_TRUE(
      checkBits(bitsOf(FloatFormat::Binary64, 0, 0x7FF8000000000000)).ok());
}

TEST(VerifyOracles, VerdictCountersChargeScratch) {
  engine::Scratch S;
  uint64_t Before = S.stats().VerifyChecked;
  Verdict Verdict = checkBits(bits64(2.5), OracleAll, &S);
  EXPECT_TRUE(Verdict.ok());
  // binary64 supports all seven oracles; each run charges one verdict.
  EXPECT_EQ(S.stats().VerifyChecked, Before + 7);
  EXPECT_EQ(S.stats().VerifyMismatches, 0u);
  // The parse oracle additionally charges its outcome counters ("2.5" is
  // inside the Eisel-Lemire fast path).
  EXPECT_EQ(S.stats().FastParseHits, 1u);
  EXPECT_EQ(S.stats().FastParseFallbacks, 0u);
}

TEST(VerifyDomain, ExhaustiveIndexing) {
  EXPECT_EQ(encodingCount(FloatFormat::Binary16), uint64_t(1) << 16);
  EXPECT_EQ(encodingCount(FloatFormat::Binary32), uint64_t(1) << 32);
  EXPECT_EQ(encodingCount(FloatFormat::Binary64), 0u);
  EXPECT_EQ(exhaustiveIndexCount(0, 65536, 1), 65536u);
  EXPECT_EQ(exhaustiveIndexCount(10, 15, 2), 3u);
  EXPECT_EQ(exhaustiveIndexCount(5, 5, 1), 0u);
  BitPattern Bits = exhaustiveBits(FloatFormat::Binary16, 0x100, 2, 3);
  EXPECT_EQ(Bits.Lo, 0x106u);
}

TEST(VerifyDomain, SampledDomainIsDeterministic) {
  for (FloatFormat F : {FloatFormat::Binary64, FloatFormat::Binary128}) {
    std::vector<BitPattern> A = sampledDomain(F, 500, 42);
    std::vector<BitPattern> B = sampledDomain(F, 500, 42);
    ASSERT_EQ(A.size(), 500u);
    EXPECT_TRUE(std::equal(A.begin(), A.end(), B.begin()));
  }
  // Large enough to spill past the deterministic strata into the seeded
  // random stratum, where the seed must matter.
  std::vector<BitPattern> A = sampledDomain(FloatFormat::Binary64, 60000, 42);
  std::vector<BitPattern> C = sampledDomain(FloatFormat::Binary64, 60000, 43);
  EXPECT_FALSE(std::equal(A.begin(), A.end(), C.begin()));
}

TEST(VerifyCorpus, RecordEncodeParseRoundTrip) {
  CorpusRecord Record;
  Record.Bits = bitsOf(FloatFormat::Binary16, 0, 0x6c04);
  Record.Oracles = OracleShortest | OracleReference;
  Record.Comment = "example failure";
  std::string Text = encodeRecord(Record);
  // At most two lines: the comment and the record.
  EXPECT_EQ(std::count(Text.begin(), Text.end(), '\n'), 2);
  std::istringstream In(Text);
  std::string Comment, Line;
  ASSERT_TRUE(std::getline(In, Comment));
  ASSERT_TRUE(std::getline(In, Line));
  EXPECT_EQ(Comment, "# example failure");
  CorpusRecord Back;
  ASSERT_TRUE(parseRecordLine(Line, Back));
  EXPECT_EQ(Back.Bits, Record.Bits);
  EXPECT_EQ(Back.Oracles, Record.Oracles);

  // binary128 uses the full 32-digit encoding.
  Record.Bits = bitsOf(FloatFormat::Binary128, 0x3FFF000000000000, 0x1);
  Record.Oracles = OracleRoundTrip;
  ASSERT_TRUE(parseRecordLine(
      formatName(Record.Bits.Format) + std::string(" ") +
          bitsToHex(Record.Bits) + " roundtrip",
      Back));
  EXPECT_EQ(Back.Bits, Record.Bits);

  EXPECT_FALSE(parseRecordLine("binary16 0xGGGG roundtrip", Back));
  EXPECT_FALSE(parseRecordLine("binary16 0x3c00", Back));
  EXPECT_FALSE(parseRecordLine("binary9 0x3c00 roundtrip", Back));
  // Out-of-range encoding for a narrow format.
  EXPECT_FALSE(parseRecordLine("binary32 0x123456789abcdef01 roundtrip", Back));
}

TEST(VerifyCorpus, FileAppendAndLoad) {
  std::string Path = ::testing::TempDir() + "verify_corpus_test.rec";
  std::remove(Path.c_str());
  CorpusRecord First;
  First.Bits = bitsOf(FloatFormat::Binary64, 0, 0x3FF0000000000000);
  First.Oracles = OracleRoundTrip;
  First.Comment = "one";
  CorpusRecord Second;
  Second.Bits = bitsOf(FloatFormat::Binary32, 0, 0x3f800000);
  Second.Oracles = OracleShortest | OracleLibc;
  ASSERT_TRUE(appendRecord(Path, First));
  ASSERT_TRUE(appendRecord(Path, Second));

  std::vector<CorpusRecord> Loaded;
  std::string Error;
  ASSERT_TRUE(loadCorpus(Path, Loaded, &Error)) << Error;
  ASSERT_EQ(Loaded.size(), 2u);
  EXPECT_EQ(Loaded[0].Bits, First.Bits);
  EXPECT_EQ(Loaded[0].Comment, "one");
  EXPECT_EQ(Loaded[1].Bits, Second.Bits);
  EXPECT_EQ(Loaded[1].Oracles, Second.Oracles);
  EXPECT_TRUE(Loaded[1].Comment.empty());

  // Replay of known-good records passes.
  for (const CorpusRecord &Record : Loaded)
    EXPECT_TRUE(replayRecord(Record).ok());
  std::remove(Path.c_str());
}

// The harness self-test: flip the strictness of the digit loop's low-side
// termination comparison (a classic off-by-one) and demand the binary16
// sweep catches it, the minimizer shrinks it, and replay reproduces it.
TEST(VerifyInjection, DigitLoopBugCaughtMinimizedReplayed) {
  HookGuard Guard;
  testhooks::FlipDigitLoopLowComparison = true;

  // Sweep a small exhaustive subrange known to contain failures (values
  // near 4100 whose shortest form lands exactly on the low midpoint).
  std::vector<CorpusRecord> Failures;
  for (uint64_t Encoding = 0x6c00; Encoding < 0x6c40; ++Encoding) {
    BitPattern Bits = bitsOf(FloatFormat::Binary16, 0, Encoding);
    Verdict Verdict = checkBits(Bits);
    if (!Verdict.ok()) {
      CorpusRecord Record;
      Record.Bits = Bits;
      Record.Oracles = Verdict.Failed;
      Record.Comment = Verdict.Detail;
      Failures.push_back(Record);
    }
  }
  ASSERT_FALSE(Failures.empty())
      << "injected digit-loop bug not caught by the sweep";

  // Minimize the first failure: the result must still fail, be no more
  // complex than the original, and encode to at most two lines.
  CorpusRecord Minimized = minimizeRecord(Failures.front());
  EXPECT_FALSE(replayRecord(Minimized).ok());
  std::string Text = encodeRecord(Minimized);
  EXPECT_LE(std::count(Text.begin(), Text.end(), '\n'), 2);

  // Replay through a corpus file round-trip, exactly as the CI would.
  std::string Path = ::testing::TempDir() + "verify_injected_bug.rec";
  std::remove(Path.c_str());
  ASSERT_TRUE(appendRecord(Path, Minimized));
  std::vector<CorpusRecord> Loaded;
  std::string Error;
  ASSERT_TRUE(loadCorpus(Path, Loaded, &Error)) << Error;
  ASSERT_EQ(Loaded.size(), 1u);
  EXPECT_FALSE(replayRecord(Loaded.front()).ok())
      << "replayed record no longer reproduces the injected bug";

  // With the bug repaired, the same record passes: regression-corpus mode.
  testhooks::FlipDigitLoopLowComparison = false;
  EXPECT_TRUE(replayRecord(Loaded.front()).ok());
  std::remove(Path.c_str());
}

/// Runs the binary16 subrange sweep sharded over \p Threads workers and
/// returns (sorted failing encodings, verdicts checked).
std::pair<std::vector<uint64_t>, uint64_t> sweepWithThreads(unsigned Threads) {
  engine::BatchPool Pool(Threads);
  std::mutex Mutex;
  std::vector<uint64_t> Failing;
  Pool.parallelFor(0x2000, [&](size_t Begin, size_t End,
                                 engine::Scratch &S) {
    for (size_t Index = Begin; Index < End; ++Index) {
      BitPattern Bits =
          exhaustiveBits(FloatFormat::Binary16, 0x6000, 1, Index);
      if (!checkBits(Bits, OracleAll, &S).ok()) {
        std::lock_guard<std::mutex> Lock(Mutex);
        Failing.push_back(Bits.Lo);
      }
    }
  });
  std::sort(Failing.begin(), Failing.end());
  return {Failing, Pool.stats().VerifyChecked};
}

TEST(VerifySharding, DeterministicForAnyThreadCount) {
  HookGuard Guard;
  // Inject the bug so the failure set is non-empty and the comparison has
  // teeth: identical failures AND identical verdict tallies per thread
  // count.
  testhooks::FlipDigitLoopLowComparison = true;
  auto [Fail1, Checked1] = sweepWithThreads(1);
  auto [Fail3, Checked3] = sweepWithThreads(3);
  ASSERT_FALSE(Fail1.empty());
  EXPECT_EQ(Fail1, Fail3);
  EXPECT_EQ(Checked1, Checked3);
}

} // namespace
