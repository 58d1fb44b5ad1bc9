//===- obs/exemplar/exemplar.h - Tail-latency exemplar capture ---*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tail-latency exemplar capture and workload characterization.  Aggregate
/// histograms say that p99 moved; exemplars say *which inputs* moved it.
/// Every sampled conversion is offered to an ExemplarReservoir, which
///
///  * keeps the single worst-by-latency record per {format, path-class}
///    cell (the exemplar the Prometheus exporter attaches to the matching
///    dragon4_latency_ns series),
///  * keeps a bounded ring of recent *tail* captures -- a record is a tail
///    event when its log2-latency bucket is within TailMarginBuckets of
///    the highest bucket that cell has ever seen, and
///  * accumulates per-format workload-characterization histograms (digit
///    count and decimal-exponent magnitude) from every offered record,
///    tail or not.
///
/// Each record carries the raw bit pattern, the print options, the digit
/// count, the decimal scale k, the path, and the latency -- enough to
/// replay the exact conversion through `verify_exhaustive --replay` or a
/// `bench_engine_batch --corpus=` workload (tools/exemplar_dump does the
/// corpus translation).
///
/// Like the Registry it sits beside, a reservoir is plain single-writer
/// data with no atomics: each engine::Scratch's ObsState owns one shard
/// and the batch layer merges shards after the workers join.  Capture
/// rides the same SampleEvery draw as every other sampled metric and
/// compiles out of the hot path entirely under DRAGON4_OBS=OFF (the cold
/// types still build, so exporters and tools link in both configs).
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_OBS_EXEMPLAR_EXEMPLAR_H
#define DRAGON4_OBS_EXEMPLAR_EXEMPLAR_H

#include "obs/registry.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dragon4::obs::exemplar {

/// One captured worst-case input: everything needed to name the series it
/// annotates and to replay the conversion offline.
struct ExemplarRecord {
  uint64_t BitsLo = 0;        ///< Encoding (zero-extended) of the value.
  uint64_t BitsHi = 0;        ///< High half (binary128/extended80 only).
  uint64_t LatencyNanos = 0;  ///< Wall-clock cost of this conversion.
  uint64_t TimestampNanos = 0; ///< obs::nowNanos() at capture (monotonic).
  int32_t FinalK = 0;         ///< Decimal scale the conversion settled on.
  uint32_t DigitsEmitted = 0; ///< Significant digits produced (print side).
  FormatId Fmt = FormatId::Binary64;
  PathClass PathC = PathClass::Count;
  uint8_t OptionsBase = 10;   ///< PrintOptions::Base (0 on the parse side).
  uint8_t OptionsMode = 0;    ///< Packed (Boundaries << 2) | Ties.
  bool Valid = false;         ///< False for empty reservoir cells.

  /// "0x..."-style hex of the encoding (two limbs when BitsHi != 0).
  std::string bitsHex() const;
  /// Compact options rendering, e.g. "b10:ne:up" ("-" on the parse side).
  std::string optionsText() const;
};

/// Recent tail captures each per-thread reservoir keeps beside the
/// per-{format, path} worst records.
inline constexpr size_t TailRingCapacity = 64;

/// A sampled conversion is captured as a tail exemplar when its
/// log2-latency bucket is within this many buckets of the highest bucket
/// its {format, path} cell has seen: 1 is within a factor of two.
inline constexpr uint32_t TailMarginBuckets = 1;

/// Lock-free (single-writer) worst-by-latency reservoir keyed by
/// {format, path-class}, plus a bounded ring of recent tail captures and
/// the per-format workload histograms.  merge() is commutative in the
/// worst cells and the histograms; ring order under merge follows merge
/// order (it is recent context, not a metric).
class ExemplarReservoir {
public:
  /// \p RingCapacity bounds the recent-capture ring; 0 keeps only the
  /// per-cell worst records.
  explicit ExemplarReservoir(size_t RingCapacity = TailRingCapacity)
      : Ring(RingCapacity) {}

  /// Offers one sampled conversion.  Always feeds the workload histograms;
  /// captures into the worst cell / ring only when the record lands within
  /// \p MarginBuckets log2 buckets of the cell's high-water bucket.
  /// Records with PathC == PathClass::Count characterize only.
  void consider(const ExemplarRecord &R, uint32_t MarginBuckets);

  /// Adds \p RHS into this reservoir (worst cells keep the higher latency,
  /// high-water buckets take the max, histograms and counters add, RHS's
  /// ring records are re-pushed oldest first).
  void merge(const ExemplarReservoir &RHS);

  void reset();

  /// The worst record for one grid cell, or nullptr when none captured.
  const ExemplarRecord *worst(FormatId Fmt, PathClass P) const {
    const ExemplarRecord &R =
        Worst[static_cast<size_t>(Fmt)][static_cast<size_t>(P)];
    return R.Valid ? &R : nullptr;
  }

  size_t ringCapacity() const { return Ring.size(); }
  size_t ringSize() const { return Filled; }
  /// Ring record \p Age steps back from the newest (0 = newest).
  const ExemplarRecord &ringRecent(size_t Age) const {
    return Ring[(Head + Ring.size() - 1 - Age % Ring.size()) % Ring.size()];
  }

  uint64_t considered() const { return Considered_; }
  uint64_t captured() const { return Captured_; }

  const Log2Histogram &digitCount(FormatId Fmt) const {
    return Digits_[static_cast<size_t>(Fmt)];
  }
  /// |k| distribution -- the decimal-exponent *magnitude* (log2 buckets
  /// cannot carry signed values; the sign split adds no cost insight).
  const Log2Histogram &decimalExponentMagnitude(FormatId Fmt) const {
    return DecExp_[static_cast<size_t>(Fmt)];
  }

private:
  void ringPush(const ExemplarRecord &R) {
    if (Ring.empty())
      return;
    Ring[Head] = R;
    Head = (Head + 1) % Ring.size();
    if (Filled < Ring.size())
      ++Filled;
  }

  ExemplarRecord Worst[NumFormatIds][NumPathClasses];
  int HighBucket[NumFormatIds][NumPathClasses] = {};
  std::vector<ExemplarRecord> Ring;
  size_t Head = 0;
  size_t Filled = 0;
  uint64_t Considered_ = 0;
  uint64_t Captured_ = 0;
  Log2Histogram Digits_[NumFormatIds];
  Log2Histogram DecExp_[NumFormatIds];
};

/// Packs PrintOptions-style knobs into ExemplarRecord::OptionsMode.
uint8_t packOptionsMode(unsigned Boundaries, unsigned Ties);

/// Folds \p Ex into \p Snap: attaches the per-cell worst records as
/// OpenMetrics exemplars on the matching dragon4_latency_ns series, emits
/// the dragon4_digit_count / dragon4_decimal_exponent_mag workload
/// families, adds the exemplars_considered/captured counters, and appends
/// the flat record list (worst cells first, then the recent ring, newest
/// first) that /exemplars.json renders.
void attachExemplars(Snapshot &Snap, const ExemplarReservoir &Ex);

} // namespace dragon4::obs::exemplar

#endif // DRAGON4_OBS_EXEMPLAR_EXEMPLAR_H
