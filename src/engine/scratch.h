//===- engine/scratch.h - Per-thread conversion workspace --------*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine's reusable workspace: a limb arena for every BigInt the
/// conversion core touches, the digit-loop result whose digit storage is
/// recycled across calls, the fixed path's positional result, and the
/// per-thread counters block.  One Scratch belongs to one thread at a time;
/// engine::format installs its arena for the duration of a conversion and
/// rewinds it afterwards, so after a warm-up call conversions perform zero
/// heap allocations on the slow (BigInt) path.
///
/// Thread-safety contract: a Scratch must not be shared between threads
/// concurrently.  BatchEngine owns one Scratch per worker; single-threaded
/// callers create one and keep it alive across calls (creating a fresh
/// Scratch per call works but forfeits the zero-allocation property).
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_ENGINE_SCRATCH_H
#define DRAGON4_ENGINE_SCRATCH_H

#include "bigint/limb_arena.h"
#include "core/digit_loop.h"
#include "core/digits.h"
#include "engine/stats.h"
#include "obs/trace.h"

#include <cstdint>
#include <vector>

namespace dragon4::engine {

/// Reusable per-thread conversion state.
class Scratch {
public:
  /// \p ArenaBytes sizes the arena's first block; the default comfortably
  /// holds the state of any double conversion, so warm-up normally costs a
  /// single block allocation.
  explicit Scratch(size_t ArenaBytes = 1 << 16) : Arena(ArenaBytes) {}

  Scratch(const Scratch &) = delete;
  Scratch &operator=(const Scratch &) = delete;

  /// Counters accumulated by conversions through this Scratch.
  const EngineStats &stats() const { return Stats; }

  /// Mutable counters block for sibling subsystems (the verify harness's
  /// parse oracle, parse::parseFloat) that charge their outcomes through
  /// this Scratch so they ride the normal per-worker merge path.
  EngineStats &counters() { return Stats; }

  /// This Scratch's observability shard: sampled-metric registry, flight
  /// recorder, span buffer.  Same ownership contract as the Scratch itself
  /// (single thread at a time); the batch layer drains it after workers
  /// join, alongside takeStats().
  obs::ObsState &obsState() { return Obs; }
  const obs::ObsState &obsState() const { return Obs; }

  /// Records one verification verdict (an oracle check run with this
  /// Scratch).  The verification harness calls this so per-worker verdict
  /// counts travel through the same merge path as every other counter.
  void noteVerifyVerdict(bool Ok) {
    ++Stats.VerifyChecked;
    if (!Ok)
      ++Stats.VerifyMismatches;
  }

  /// Returns the accumulated counters and zeroes them (the batch layer
  /// drains workers this way so nothing is counted twice).
  EngineStats takeStats() {
    syncArenaStats();
    BlockAllocsDrained = Arena.blockAllocs();
    EngineStats Out = Stats;
    Stats.reset();
    return Out;
  }

  /// Refreshes the arena counters inside stats() (they are sampled, not
  /// incrementally maintained).  Block allocations already handed out by
  /// takeStats() are excluded, so repeated drains never double-count.
  void syncArenaStats() {
    if (Arena.highWaterBytes() > Stats.ArenaHighWaterBytes)
      Stats.ArenaHighWaterBytes = Arena.highWaterBytes();
    Stats.ArenaBlockAllocs = Arena.blockAllocs() - BlockAllocsDrained;
  }

private:
  friend class ConversionScope;
  friend struct ScratchAccess;

  LimbArena Arena;               ///< Backing store for all conversion BigInts.
  DigitLoopResult Loop;          ///< Slow-path loop state, storage recycled.
  DigitString FixedDigits;       ///< Fixed-path positional result, recycled.
  EngineStats Stats;
  obs::ObsState Obs;               ///< Sampled-metrics shard + flight ring.
  uint64_t BlockAllocsDrained = 0; ///< Arena blocks already reported.
};

/// RAII for one conversion: installs the Scratch's arena on entry, rewinds
/// it on exit.  Internal to the engine implementation, exposed for the
/// allocation tests.
class ConversionScope {
public:
  explicit ConversionScope(Scratch &S) : S(S), Hook(&S.Arena) {}
  ~ConversionScope() {
    // The loop result may hold arena-backed BigInts; forget them before the
    // storage is rewound so nothing dangles.
    S.Loop.R = BigInt();
    S.Loop.MPlus = BigInt();
    S.Loop.S = BigInt();
    S.Arena.reset();
  }

private:
  Scratch &S;
  LimbArenaScope Hook;
};

} // namespace dragon4::engine

#endif // DRAGON4_ENGINE_SCRATCH_H
