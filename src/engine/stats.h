//===- engine/stats.h - Engine counters --------------------------*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The counters block the conversion engine maintains: Ryu hit and
/// fallback counts, a digit-length histogram for conversions that took the
/// slow (BigInt) path, arena sizing, and batch timing.  Counters are plain
/// (non-atomic) -- each Scratch owns its own block and the batch layer
/// merges per-worker blocks after the workers have joined, so there is
/// never concurrent mutation of one block.
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_ENGINE_STATS_H
#define DRAGON4_ENGINE_STATS_H

#include "fp/format_id.h"

#include <cstdint>
#include <cstdio>

namespace dragon4::obs {
class Registry;
}

namespace dragon4::engine {

/// Counters for engine conversions.  All counts are cumulative since
/// construction (or the last reset()).
struct EngineStats {
  /// Histogram buckets for slow-path significant-digit counts; the last
  /// bucket collects everything at or beyond DigitBuckets - 1 digits.
  static constexpr int DigitBuckets = 26;

  uint64_t Conversions = 0;    ///< Finite non-zero values converted.
  uint64_t Specials = 0;       ///< NaN / infinity / zero renderings.
  uint64_t RyuHits = 0;        ///< Ryu produced the result (front line).
  uint64_t RyuFallbacks = 0;   ///< Ryu eligible but out of certified range.
  uint64_t SlowPathDirect = 0; ///< The exact loop ran (incl. fixed format).
  uint64_t Truncated = 0;      ///< Outputs that did not fit the buffer.

  /// Conversions per format (indexed by FormatId); sums to Conversions.
  uint64_t FormatConversions[NumFormatIds] = {};

  /// Digit-count histogram of conversions that ran the exact BigInt loop.
  uint64_t SlowDigitLength[DigitBuckets] = {};

  uint64_t ArenaHighWaterBytes = 0; ///< Max live arena bytes ever observed.
  uint64_t ArenaBlockAllocs = 0;    ///< Arena growth events (heap blocks).

  uint64_t Batches = 0;    ///< BatchEngine::convert calls.
  uint64_t BatchValues = 0; ///< Values across all batches.
  uint64_t BatchNanos = 0; ///< Wall-clock ns spent inside batches.

  /// Verdict counters maintained by the verification harness (src/verify/):
  /// oracle checks executed through this Scratch and how many mismatched.
  uint64_t VerifyChecked = 0;
  uint64_t VerifyMismatches = 0;

  /// Outcome counters maintained by the fast parser (src/parse/): calls
  /// the Eisel-Lemire product decided (specials included), calls that
  /// took the certified exact fallback (the halfway comparison for
  /// binary32/64, the bignum reader for the other formats), and rejected
  /// (malformed) inputs.  Hits + Fallbacks + Rejected == parseFloat calls.
  uint64_t FastParseHits = 0;
  uint64_t FastParseFallbacks = 0;
  uint64_t FastParseRejected = 0;

  /// Conversions that ran the exact loop: everything Ryu did not serve,
  /// Ryu fallbacks included.
  uint64_t slowPathRuns() const { return SlowPathDirect; }

  /// Adds \p RHS into this block.  High-water marks take the max; counts
  /// add.
  void merge(const EngineStats &RHS) {
    Conversions += RHS.Conversions;
    Specials += RHS.Specials;
    RyuHits += RHS.RyuHits;
    RyuFallbacks += RHS.RyuFallbacks;
    SlowPathDirect += RHS.SlowPathDirect;
    Truncated += RHS.Truncated;
    for (int I = 0; I < NumFormatIds; ++I)
      FormatConversions[I] += RHS.FormatConversions[I];
    for (int I = 0; I < DigitBuckets; ++I)
      SlowDigitLength[I] += RHS.SlowDigitLength[I];
    if (RHS.ArenaHighWaterBytes > ArenaHighWaterBytes)
      ArenaHighWaterBytes = RHS.ArenaHighWaterBytes;
    ArenaBlockAllocs += RHS.ArenaBlockAllocs;
    Batches += RHS.Batches;
    BatchValues += RHS.BatchValues;
    BatchNanos += RHS.BatchNanos;
    VerifyChecked += RHS.VerifyChecked;
    VerifyMismatches += RHS.VerifyMismatches;
    FastParseHits += RHS.FastParseHits;
    FastParseFallbacks += RHS.FastParseFallbacks;
    FastParseRejected += RHS.FastParseRejected;
  }

  void reset() { *this = EngineStats(); }

  /// Human-readable dump (tools/soak and the batch benchmark).  A thin
  /// view over obs::makeSnapshot, so the eyeball rendering and the
  /// machine-readable exports always agree; batch timing is reported as
  /// derived values/s and mean ns/value.  When \p Reg is non-null the
  /// sampled observability metrics are printed alongside the exact ones.
  void print(std::FILE *Out, const obs::Registry *Reg = nullptr) const;
};

} // namespace dragon4::engine

#endif // DRAGON4_ENGINE_STATS_H
