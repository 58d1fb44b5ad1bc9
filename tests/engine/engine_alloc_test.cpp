//===- tests/engine/engine_alloc_test.cpp - Zero-allocation guarantee -------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The tentpole guarantee of the engine: after a warm-up pass, conversions
// through a Scratch perform zero heap allocations -- including on the slow
// (exact BigInt) path, where every limb comes from the Scratch's arena.
// This test lives in its own binary because it replaces the global
// operator new with a counting version; the count is measured as a delta
// around the warmed-up loop, so gtest's own allocations don't interfere.
//
//===----------------------------------------------------------------------===//

#include "dragon4.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

namespace {
std::atomic<uint64_t> GlobalNewCount{0};
} // namespace

void *operator new(size_t Size) {
  GlobalNewCount.fetch_add(1, std::memory_order_relaxed);
  if (void *Ptr = std::malloc(Size ? Size : 1))
    return Ptr;
  throw std::bad_alloc();
}

// The nothrow form (dragon4_scratch_create) must come from the same
// malloc as the frees below, or ASan reports an alloc-dealloc mismatch.
void *operator new(size_t Size, const std::nothrow_t &) noexcept {
  GlobalNewCount.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(Size ? Size : 1);
}

void operator delete(void *Ptr) noexcept { std::free(Ptr); }
void operator delete(void *Ptr, size_t) noexcept { std::free(Ptr); }

using namespace dragon4;
namespace eng = dragon4::engine;

namespace {

/// Corpus reused verbatim for warm-up and measurement, so every power of
/// ten, arena block, and digit capacity the measured pass needs is already
/// in place.
std::vector<double> allocCorpus() {
  std::vector<double> Values = randomBitsDoubles(384, 0xa110c001);
  std::vector<double> Sub = randomSubnormalDoubles(128, 0xa110c002);
  Values.insert(Values.end(), Sub.begin(), Sub.end());
  return Values;
}

TEST(EngineAlloc, WarmShortestConversionsAllocateNothing) {
  eng::Scratch S;
  std::vector<double> Values = allocCorpus();
  char Buf[64];
  // Default options ride the Ryu front line; the asymmetric LowInclusive
  // reader model bypasses Ryu, so the exact BigInt path is
  // held to the same zero-allocation bar.
  PrintOptions ExactOnly;
  ExactOnly.Boundaries = BoundaryMode::LowInclusive;

  // Warm-up: first pass fills the per-thread power caches, the arena's
  // block, and the reusable digit buffers.
  for (double V : Values) {
    eng::format(V, Buf, sizeof(Buf), PrintOptions{}, S);
    eng::format(V, Buf, sizeof(Buf), ExactOnly, S);
  }

  // Every subsequent pass over the same values must be allocation-free:
  // no global new, no BigInt limbs from the heap.
  for (int Round = 0; Round < 2; ++Round) {
    uint64_t NewBefore = GlobalNewCount.load(std::memory_order_relaxed);
    uint64_t LimbHeapBefore = limbHeapAllocCount();
    for (double V : Values) {
      eng::format(V, Buf, sizeof(Buf), PrintOptions{}, S);
      eng::format(V, Buf, sizeof(Buf), ExactOnly, S);
    }
    EXPECT_EQ(GlobalNewCount.load(std::memory_order_relaxed) - NewBefore, 0u)
        << "round " << Round;
    EXPECT_EQ(limbHeapAllocCount() - LimbHeapBefore, 0u) << "round " << Round;
  }

  // The guarantee is only meaningful if both ends of the ladder actually
  // ran: Ryu for the default pass, the exact BigInt path for the
  // LowInclusive pass.
  EXPECT_GT(S.stats().RyuHits, 0u);
  EXPECT_GT(S.stats().slowPathRuns(), 0u);
  EXPECT_GT(S.stats().ArenaHighWaterBytes, 0u);
}

/// The per-instantiation guarantee: warm conversions of ANY supported
/// format allocate nothing.  One helper, five formats -- the same template
/// the engine itself is built from.
template <typename T>
void checkWarmZeroAlloc(const std::vector<T> &Values) {
  eng::Scratch S;
  char Buf[64];
  for (const T &V : Values)
    eng::format(V, Buf, sizeof(Buf), PrintOptions{}, S);

  uint64_t NewBefore = GlobalNewCount.load(std::memory_order_relaxed);
  uint64_t LimbHeapBefore = limbHeapAllocCount();
  for (const T &V : Values)
    eng::format(V, Buf, sizeof(Buf), PrintOptions{}, S);
  EXPECT_EQ(GlobalNewCount.load(std::memory_order_relaxed) - NewBefore, 0u);
  EXPECT_EQ(limbHeapAllocCount() - LimbHeapBefore, 0u);
  EXPECT_GT(S.stats().Conversions, 0u);
}

TEST(EngineAlloc, WarmFloatConversionsAllocateNothing) {
  std::vector<float> Values = randomBitsFloats(384, 0xa110c011);
  std::vector<float> Sub = randomSubnormalFloats(128, 0xa110c012);
  Values.insert(Values.end(), Sub.begin(), Sub.end());
  checkWarmZeroAlloc(Values);
}

TEST(EngineAlloc, WarmHalfConversionsAllocateNothing) {
  std::vector<Binary16> Values;
  for (uint32_t Bits = 1; Bits < 0x7c00; Bits += 61)
    Values.push_back(Binary16::fromBits(static_cast<uint16_t>(Bits)));
  checkWarmZeroAlloc(Values);
}

TEST(EngineAlloc, WarmExtended80ConversionsAllocateNothing) {
  SplitMix64 Rng(0xa110c013);
  std::vector<long double> Values;
  for (int I = 0; I < 384; ++I) {
    uint64_t F = Rng.next() | (uint64_t(1) << 63);
    int E = static_cast<int>(Rng.below(8000)) - 4000;
    Values.push_back(std::ldexp(static_cast<long double>(F), E - 63));
  }
  checkWarmZeroAlloc(Values);
}

TEST(EngineAlloc, WarmBinary128ConversionsAllocateNothing) {
  // Wide-mantissa decomposition happens inside the conversion scope, so
  // even the 113-bit significand's limbs are arena-backed.
  SplitMix64 Rng(0xa110c014);
  std::vector<Binary128> Values;
  for (int I = 0; I < 128; ++I) {
    uint64_t Hi = (Rng.next() & 0x0000FFFFFFFFFFFFull) |
                  ((1 + Rng.below(0x7FFD)) << 48);
    Values.push_back(Binary128::fromBits(Hi, Rng.next()));
  }
  checkWarmZeroAlloc(Values);
}

TEST(EngineAlloc, ForcedSlowPathAllocatesNothingWhenWarm) {
  eng::Scratch S;
  std::vector<double> Values = allocCorpus();
  char Buf[64];
  // Base 16 never touches the Ryu front line.
  PrintOptions Options;
  Options.Base = 16;
  Options.ExponentMarker = '^';

  for (double V : Values)
    eng::format(V, Buf, sizeof(Buf), Options, S);
  ASSERT_EQ(S.stats().RyuHits, 0u);
  ASSERT_EQ(S.stats().SlowPathDirect, S.stats().Conversions);

  uint64_t NewBefore = GlobalNewCount.load(std::memory_order_relaxed);
  uint64_t LimbHeapBefore = limbHeapAllocCount();
  for (double V : Values)
    eng::format(V, Buf, sizeof(Buf), Options, S);
  EXPECT_EQ(GlobalNewCount.load(std::memory_order_relaxed) - NewBefore, 0u);
  EXPECT_EQ(limbHeapAllocCount() - LimbHeapBefore, 0u);
}

TEST(EngineAlloc, FixedPathKeepsLimbsOnArenaWhenWarm) {
  eng::Scratch S;
  std::vector<double> Values = randomNormalDoubles(256, 0xa110c003);
  char Buf[512];

  for (double V : Values)
    eng::formatFixed(V, 17, Buf, sizeof(Buf), PrintOptions{}, S);

  // The positional result lives in the Scratch (capacity recycled) and
  // the limbs on the arena, so warm fixed conversions are allocation-free
  // end to end, exactly like the shortest path.
  uint64_t NewBefore = GlobalNewCount.load(std::memory_order_relaxed);
  uint64_t LimbHeapBefore = limbHeapAllocCount();
  for (double V : Values)
    eng::formatFixed(V, 17, Buf, sizeof(Buf), PrintOptions{}, S);
  EXPECT_EQ(GlobalNewCount.load(std::memory_order_relaxed) - NewBefore, 0u);
  EXPECT_EQ(limbHeapAllocCount() - LimbHeapBefore, 0u);
}

TEST(EngineAlloc, PrecisionSurfacesKeepLimbsOnArenaWhenWarm) {
  std::vector<double> Values = randomNormalDoubles(256, 0xa110c007);
  std::vector<double> Sub = randomSubnormalDoubles(64, 0xa110c008);
  Values.insert(Values.end(), Sub.begin(), Sub.end());

  // toPrecision and toExponential run on the calling thread's Scratch:
  // once it is warm, every BigInt limb of the exact Section 4 path comes
  // from its arena.  (The returned strings themselves are heap storage,
  // so only the limb count is asserted.)
  for (double V : Values) {
    (void)toPrecision(V, 17);
    (void)toExponential(V, 10);
  }
  uint64_t LimbHeapBefore = limbHeapAllocCount();
  for (double V : Values) {
    (void)toPrecision(V, 17);
    (void)toExponential(V, 10);
  }
  EXPECT_EQ(limbHeapAllocCount() - LimbHeapBefore, 0u);
}

TEST(EngineAlloc, AbiToCharsAllocatesNothingWhenWarm) {
  // The C ABI's promise: after the thread-local scratch warms up, every
  // entry point is allocation-free -- shortest, fixed, both scratch
  // flavours, across formats and the exact-only option set.
  std::vector<double> Values = allocCorpus();
  char Buf[512];
  size_t Len = 0;
  dragon4_options ExactOnly = DRAGON4_OPTIONS_INIT;
  ExactOnly.boundaries = DRAGON4_BOUNDARIES_LOW_INCLUSIVE;

  auto RunAll = [&] {
    for (double V : Values) {
      uint64_t Lo = 0, Hi = 0;
      FormatTraits<double>::encodingBits(V, Lo, Hi);
      ASSERT_EQ(dragon4_to_chars(DRAGON4_FORMAT_BINARY64, Lo, Hi, nullptr,
                                 Buf, sizeof(Buf), &Len),
                DRAGON4_OK);
      ASSERT_EQ(dragon4_to_chars(DRAGON4_FORMAT_BINARY64, Lo, Hi, &ExactOnly,
                                 Buf, sizeof(Buf), &Len),
                DRAGON4_OK);
      ASSERT_EQ(dragon4_to_chars_fixed(DRAGON4_FORMAT_BINARY64, Lo, Hi, 17,
                                       nullptr, Buf, sizeof(Buf), &Len),
                DRAGON4_OK);
    }
    // The undersized path must be allocation-free too: ERR_SIZE comes
    // from the sink's counting, not from staging the output anywhere.
    uint64_t Lo = 0, Hi = 0;
    FormatTraits<double>::encodingBits(Values[0], Lo, Hi);
    dragon4_to_chars(DRAGON4_FORMAT_BINARY64, Lo, Hi, nullptr, Buf, 1, &Len);
  };

  RunAll(); // Warm-up: thread-local scratch caches and arena blocks.
  uint64_t NewBefore = GlobalNewCount.load(std::memory_order_relaxed);
  uint64_t LimbHeapBefore = limbHeapAllocCount();
  RunAll();
  EXPECT_EQ(GlobalNewCount.load(std::memory_order_relaxed) - NewBefore, 0u);
  EXPECT_EQ(limbHeapAllocCount() - LimbHeapBefore, 0u);
}

TEST(EngineAlloc, AbiCallerScratchAllocatesNothingWhenWarm) {
  dragon4_scratch *Scratch = dragon4_scratch_create();
  ASSERT_NE(Scratch, nullptr);
  std::vector<double> Values = allocCorpus();
  char Buf[64];
  size_t Len = 0;

  auto RunAll = [&] {
    for (double V : Values) {
      uint64_t Lo = 0, Hi = 0;
      FormatTraits<double>::encodingBits(V, Lo, Hi);
      ASSERT_EQ(dragon4_to_chars_scratch(Scratch, DRAGON4_FORMAT_BINARY64,
                                         Lo, Hi, nullptr, Buf, sizeof(Buf),
                                         &Len),
                DRAGON4_OK);
    }
  };
  RunAll();
  uint64_t NewBefore = GlobalNewCount.load(std::memory_order_relaxed);
  uint64_t LimbHeapBefore = limbHeapAllocCount();
  RunAll();
  EXPECT_EQ(GlobalNewCount.load(std::memory_order_relaxed) - NewBefore, 0u);
  EXPECT_EQ(limbHeapAllocCount() - LimbHeapBefore, 0u);
  dragon4_scratch_destroy(Scratch);
}

TEST(EngineAlloc, AbiFromCharsFastPathAllocatesNothing) {
  // The decisive Eisel-Lemire path: short shortest-form literals are
  // always decidable, so parsing them back must allocate nothing.  (The
  // truncated-literal residue is ParseFallbackAllocatesNothing below.)
  std::vector<std::string> Texts;
  for (double V : allocCorpus())
    if (V == V) // NaN text parses but its payload is not interesting here.
      Texts.push_back(toShortest(V));
  uint64_t Lo = 0, Hi = 0;
  size_t Consumed = 0;

  for (const std::string &T : Texts) // Warm-up (none expected, but fair).
    dragon4_from_chars(DRAGON4_FORMAT_BINARY64, T.data(), T.size(), &Lo, &Hi,
                       &Consumed);
  uint64_t NewBefore = GlobalNewCount.load(std::memory_order_relaxed);
  uint64_t LimbHeapBefore = limbHeapAllocCount();
  for (const std::string &T : Texts)
    ASSERT_EQ(dragon4_from_chars(DRAGON4_FORMAT_BINARY64, T.data(), T.size(),
                                 &Lo, &Hi, &Consumed),
              DRAGON4_OK);
  EXPECT_EQ(GlobalNewCount.load(std::memory_order_relaxed) - NewBefore, 0u);
  EXPECT_EQ(limbHeapAllocCount() - LimbHeapBefore, 0u);
}

/// Near-halfway literals of \p Mid (an exact midpoint between two
/// adjacent binary32/64 values) that only the halfway comparison decides:
/// cut to 29 digits, zero-padded to 800 digits, and 1000 digits with a
/// sticky 1 in the last place.
std::vector<std::string> fallbackLiterals(long double Mid) {
  char Buf[1024];
  std::snprintf(Buf, sizeof Buf, "%.28Le", Mid);
  std::vector<std::string> Texts = {Buf};
  std::snprintf(Buf, sizeof Buf, "%.800Le", Mid);
  std::string Exact = Buf;
  const size_t Marker = Exact.find('e');
  std::string Mantissa = Exact.substr(0, Marker);
  const std::string Exponent = Exact.substr(Marker);
  Mantissa.resize(801, '0'); // "d." + 799 digits: 800 significant digits.
  Texts.push_back(Mantissa + Exponent);
  Mantissa.resize(1000, '0');
  Mantissa += '1';           // 1000 significant digits.
  Texts.push_back(Mantissa + Exponent);
  return Texts;
}

TEST(EngineAlloc, ParseFallbackAllocatesNothing) {
  // The binary32/64 certified fallback compares the literal with the
  // halfway point on a fixed-capacity stack integer: no heap at any
  // length, on the first call as on every later one.
  struct Literal {
    std::string Text;
    dragon4_format Format;
  };
  std::vector<Literal> Literals;
  for (long double Mid : {1.0L + std::ldexp(1.0L, -53), std::ldexp(1.0L, -1075),
                          0x1.fffffffffffff8p1023L})
    for (std::string &T : fallbackLiterals(Mid))
      Literals.push_back({std::move(T), DRAGON4_FORMAT_BINARY64});
  for (long double Mid : {1.0L + std::ldexp(1.0L, -24), std::ldexp(1.0L, -150)})
    for (std::string &T : fallbackLiterals(Mid))
      Literals.push_back({std::move(T), DRAGON4_FORMAT_BINARY32});

  auto RunAll = [&] {
    for (const Literal &L : Literals) {
      const parse::ParsePath Path =
          L.Format == DRAGON4_FORMAT_BINARY64
              ? parse::parseFloat<double>(L.Text).Path
              : parse::parseFloat<float>(L.Text).Path;
      ASSERT_EQ(Path, parse::ParsePath::ExactFallback) << L.Text;
      uint64_t Lo = 0, Hi = 0;
      size_t Consumed = 0;
      ASSERT_EQ(dragon4_from_chars(L.Format, L.Text.data(), L.Text.size(), &Lo,
                                   &Hi, &Consumed),
                DRAGON4_OK);
      ASSERT_EQ(Consumed, L.Text.size());
    }
  };
  uint64_t NewBefore = GlobalNewCount.load(std::memory_order_relaxed);
  uint64_t LimbHeapBefore = limbHeapAllocCount();
  RunAll();
  EXPECT_EQ(GlobalNewCount.load(std::memory_order_relaxed) - NewBefore, 0u);
  EXPECT_EQ(limbHeapAllocCount() - LimbHeapBefore, 0u);
}

TEST(EngineAlloc, RecordStreamAllocatesNothingWhenWarm) {
  // The StreamSink surface: after one pass (byte-store capacity and
  // scratch both warm), clear() + re-push of the same records must be
  // allocation-free.
  eng::Scratch S;
  eng::RecordStream Stream(S);
  std::vector<double> Values = allocCorpus();

  for (double V : Values)
    Stream.push(V);
  for (int Round = 0; Round < 2; ++Round) {
    uint64_t NewBefore = GlobalNewCount.load(std::memory_order_relaxed);
    uint64_t LimbHeapBefore = limbHeapAllocCount();
    Stream.clear();
    for (double V : Values)
      Stream.push(V);
    EXPECT_EQ(GlobalNewCount.load(std::memory_order_relaxed) - NewBefore, 0u)
        << "round " << Round;
    EXPECT_EQ(limbHeapAllocCount() - LimbHeapBefore, 0u)
        << "round " << Round;
  }
  EXPECT_EQ(Stream.records(), Values.size());
}

TEST(EngineAlloc, BoundedSinksThemselvesNeverAllocate) {
  // BufferSink and CountingSink are the engine's bounded instantiations;
  // driving them directly (no conversion, pure sink traffic) must not
  // touch the heap even cold.
  uint64_t NewBefore = GlobalNewCount.load(std::memory_order_relaxed);
  char Buf[16];
  BufferSink Bounded(Buf, sizeof(Buf));
  CountingSink Counter;
  for (int I = 0; I < 1000; ++I) {
    Bounded.put('x');
    Bounded.fill(3, '0');
    Bounded.literal("e+308");
    Counter.put('x');
    Counter.fill(3, '0');
    Counter.literal("e+308");
  }
  EXPECT_TRUE(Bounded.overflowed());
  EXPECT_EQ(Bounded.required(), Counter.written());
  EXPECT_EQ(GlobalNewCount.load(std::memory_order_relaxed) - NewBefore, 0u);
}

/// The Ryu rung renders straight from its decimal significand: on a
/// fresh Scratch, default-option conversions never touch the limb arena
/// and never call operator new -- not even the first one.
template <typename T>
void checkRyuPathSkipsArena(const std::vector<T> &Values) {
  eng::Scratch S;
  char Buf[64];
  uint64_t NewBefore = GlobalNewCount.load(std::memory_order_relaxed);
  uint64_t LimbHeapBefore = limbHeapAllocCount();
  for (const T &V : Values)
    eng::format(V, Buf, sizeof(Buf), PrintOptions{}, S);
  EXPECT_EQ(GlobalNewCount.load(std::memory_order_relaxed) - NewBefore, 0u);
  EXPECT_EQ(limbHeapAllocCount() - LimbHeapBefore, 0u);
  S.syncArenaStats();
  EXPECT_EQ(S.stats().ArenaHighWaterBytes, 0u);
  EXPECT_GT(S.stats().RyuHits, 0u);
  EXPECT_EQ(S.stats().RyuHits, S.stats().Conversions);
}

TEST(EngineAlloc, RyuPathUsesNoArenaOnAFreshScratch) {
  std::vector<Binary16> Halves;
  for (uint32_t Bits = 0; Bits < (1u << 16); Bits += 7)
    Halves.push_back(Binary16::fromBits(static_cast<uint16_t>(Bits)));
  checkRyuPathSkipsArena(Halves);
  checkRyuPathSkipsArena(randomBitsFloats(4096, 0xa110c021));
  checkRyuPathSkipsArena(randomBitsDoubles(4096, 0xa110c022));
}

TEST(EngineAlloc, ArenaHighWaterIsBounded) {
  eng::Scratch S;
  char Buf[64];
  for (double V : allocCorpus())
    eng::format(V, Buf, sizeof(Buf), PrintOptions{}, S);
  S.syncArenaStats();
  // A double conversion's whole BigInt state fits comfortably in the
  // default first block; growth would show up as extra block allocations.
  EXPECT_LE(S.stats().ArenaHighWaterBytes, uint64_t(1) << 16);
  EXPECT_LE(S.stats().ArenaBlockAllocs, 1u);
}

} // namespace
