//===- perfbench/harness/workloads.h - The four workloads -------*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every workload is a closed loop in one process: the library surface and
/// the toolchain reference run over the same inputs in alternating short
/// chunks, so host-speed drift hits both sides of the cost_vs_ref ratio.
/// Every library output is checked by common.h's independent checks.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "common.h"

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// What one workload measured.
struct Results {
  std::vector<double> LibNs; ///< Library ns/value, one per chunk or batch.
  std::vector<double> RefNs; ///< Reference ns/value, same chunks.
  std::vector<double> BatchWallUs; ///< Per-batch convert wall time (batch).
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Realized share of each input class, and input facts such as the
  /// realized parse fallback share.
  std::vector<std::pair<std::string, double>> Inputs;
  /// Per-layer metrics (traced run only).
  std::map<std::string, double> Layers;
  /// Extra timing summaries of the traced layers, for the report.
  std::vector<std::pair<std::string, Summary>> LayerTimings;
};

class Workload {
public:
  Workload() = default;
  Workload(const Workload &) = delete;
  Workload &operator=(const Workload &) = delete;
  virtual ~Workload() = default;
  /// Builds the inputs from \p Seed and records their realized mix.
  virtual void generate(uint64_t Seed, Results &R) = 0;
  /// One cold set-up of the library surface the workload drives: scratch
  /// (or BatchEngine) construction and the first conversion per format, on
  /// fixed inputs.  The caller runs it first thing in a fresh process, so
  /// every lazily built table, cache and thread-local is cold.
  virtual void coldSetup() = 0;
  /// Releases what coldSetup() built; not part of the set-up time.
  virtual void coldTeardown() {}
  /// Untraced closed loop until \p DeadlineNs.
  virtual void run(uint64_t DeadlineNs, Results &R) = 0;
  /// Traced loop until \p DeadlineNs: records one span per chunk of calls
  /// into each layer, then derives the layer metrics from those spans.
  /// Returns cost_vs_ref as measured with tracing on.
  virtual double trace(uint64_t DeadlineNs, Tracer &T, Results &R) = 0;
};

/// Wraps \p Cursor over [0, Size) in steps of \p Step and returns the
/// start of the next step.
inline size_t nextStep(size_t &Cursor, size_t Size, size_t Step) {
  if (Cursor + Step > Size)
    Cursor = 0;
  const size_t Begin = Cursor;
  Cursor += Step;
  return Begin;
}

/// A single-thread workload timed in chunks: the library surface and the
/// reference run over the same inputs back to back, in an order that flips
/// every round, and the library's outputs are checked after both.
class ChunkedWorkload : public Workload {
public:
  void run(uint64_t DeadlineNs, Results &R) final;

protected:
  ChunkedWorkload(size_t InputCount, size_t ChunkSize)
      : InputCount(InputCount), ChunkSize(ChunkSize) {}
  /// Start of the next chunk, cycling over all inputs.
  size_t nextChunk() { return nextStep(Cursor, InputCount, ChunkSize); }
  /// Warms thread-local scratch and caches before anything is timed.
  void warmUp() {
    for (int I = 0; I < 8; ++I)
      timeLib(nextChunk());
  }
  /// The library surface / the reference over the chunk at \p Begin;
  /// returns the nanoseconds taken.
  virtual uint64_t timeLib(size_t Begin) = 0;
  virtual uint64_t timeRef(size_t Begin) = 0;
  /// Library outputs of the chunk at \p Begin, as timeLib left them, that
  /// fail the workload's check.
  virtual uint64_t failures(size_t Begin) const = 0;

private:
  const size_t InputCount;
  const size_t ChunkSize;
  size_t Cursor = 0;
};

/// \p DelayTurns > 0 plants a spin of that many calibrated turns in the
/// harness wrapper around each dragon4_to_chars call (sensitivity check).
std::unique_ptr<Workload> makeShortest(uint64_t DelayTurns);
std::unique_ptr<Workload> makePrecision();
std::unique_ptr<Workload> makeParse();
std::unique_ptr<Workload> makeBatch();

/// Chunk-span helpers for trace(): median over chunks of a child's
/// ns/value, and of a self time (a child minus deeper children).
double medianChildNs(
    const std::vector<std::map<std::string, const Span *>> &Chunks,
    const std::string &Child);
double medianSelfNs(
    const std::vector<std::map<std::string, const Span *>> &Chunks,
    const std::string &Child, const std::vector<std::string> &Deeper);
/// Summed Count / summed Values of a child across chunks.
double childShare(
    const std::vector<std::map<std::string, const Span *>> &Chunks,
    const std::string &Child);

/// Decimal-origin text: a mantissa of 1..\p MaxDigits significant digits
/// scaled by 10^Scale, written positionally ("123.45", "0.0012").
std::string decimalText(Rng &G, int MaxDigits, int MinScale, int MaxScale);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
