//===- prof/phase.h - Scoped phase-attribution spans -------------*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The attribution machinery: a per-thread PhaseCollector maintains a small
/// stack of open PhaseSpans, reads the counter group at every boundary, and
/// archives each span's *self* cost (gross minus nested children minus the
/// calibrated cost of the counter reads themselves) into the obs Registry
/// shard it is bound to.  The accounting identity the tests enforce:
///
///   gross(Total) == sum over all phases of self ticks
///                   (including Total's own unattributed glue and the
///                    explicit Overhead pseudo-phase), up to clamping --
///   so attributed cost can never exceed measured cost, and coverage is
///   simply 1 - self(Total)/gross(Total).
///
/// Hot-path protocol mirrors obs tracing: a constinit thread-local
/// collector pointer, installed by PhaseScope only for sampled conversions,
/// checked by D4_PROF_SPAN in one load.  Under DRAGON4_OBS=OFF the macro
/// expands to nothing and none of this is in the hot path.
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_PROF_PHASE_H
#define DRAGON4_PROF_PHASE_H

#include "obs/registry.h"
#include "prof/perf.h"
#include "prof/phases.h"

#include <atomic>

namespace dragon4::prof {

class PhaseCollector;

/// Sampler registry hooks (defined in prof/sampler.cpp): every collector
/// announces itself so the continuous sampling profiler can sweep the live
/// span stacks.  Cold path -- construction/destruction only.
void samplerRegister(PhaseCollector *C);
void samplerUnregister(PhaseCollector *C);

/// Per-thread span stack + counter group, draining into a Registry shard.
/// Single-writer, like everything per-Scratch.
class PhaseCollector {
public:
  static constexpr int MaxDepth = 8;
  /// Bits per stack level in the packed live-stack word: holds any phase
  /// index + 1 (0 = empty level), 5*MaxDepth = 40 bits used.
  static constexpr int LiveStackBitsPerLevel = 5;

  PhaseCollector() { samplerRegister(this); }
  ~PhaseCollector() { samplerUnregister(this); }
  PhaseCollector(const PhaseCollector &) = delete;
  PhaseCollector &operator=(const PhaseCollector &) = delete;

  /// Points archived spans at \p Reg (the owning ObsState's shard).
  void bind(obs::Registry *Reg) { Sink = Reg; }
  obs::Registry *sink() const { return Sink; }

  /// Opens a span of \p P.  Returns false (span dropped, exit must not be
  /// called) when the stack is full or no sink is bound.
  bool enter(Phase P) {
    if (!Sink || Depth >= MaxDepth)
      return false;
    Frame &F = Stack[Depth++];
    F.P = P;
    F.Child = CounterSample{};
    // Publish the new stack word before the counter read so a concurrent
    // sampler attributes the span's whole duration.  Relaxed is enough:
    // the word is self-contained, and a one-sample skew is noise.
    Packed |= (static_cast<uint64_t>(P) + 1)
              << (LiveStackBitsPerLevel * (Depth - 1));
    LiveStack.store(Packed, std::memory_order_relaxed);
    Group.read(F.Entry);
    return true;
  }

  /// Closes the innermost span, attributing self = gross - children (each
  /// child already charged its gross plus two calibrated counter reads to
  /// this frame, the reads landing in the Overhead pseudo-phase).
  void exit() {
    CounterSample End;
    Group.read(End);
    Frame &F = Stack[--Depth];
    Packed &= ~(((uint64_t(1) << LiveStackBitsPerLevel) - 1)
                << (LiveStackBitsPerLevel * Depth));
    LiveStack.store(Packed, std::memory_order_relaxed);
    const uint64_t Gross = End.Ticks - F.Entry.Ticks;
    const size_t Parent =
        Depth > 0 ? static_cast<size_t>(Stack[Depth - 1].P) : PhaseRootIndex;
    Sink->recordPhaseSpan(F.P, Parent, clampedSelf(Gross, F.Child.Ticks),
                          Gross,
                          clampedSelf(End.Instructions - F.Entry.Instructions,
                                      F.Child.Instructions),
                          clampedSelf(End.BranchMisses - F.Entry.BranchMisses,
                                      F.Child.BranchMisses),
                          clampedSelf(End.CacheMisses - F.Entry.CacheMisses,
                                      F.Child.CacheMisses));
    if (Depth > 0) {
      Frame &PF = Stack[Depth - 1];
      PF.Child.Ticks += Gross;
      PF.Child.Instructions += End.Instructions - F.Entry.Instructions;
      PF.Child.BranchMisses += End.BranchMisses - F.Entry.BranchMisses;
      PF.Child.CacheMisses += End.CacheMisses - F.Entry.CacheMisses;
      // This span's two counter reads executed inside the parent but are
      // measurement, not algorithm: charge them to Overhead explicitly so
      // they are attributed rather than inflating the parent's self time.
      // readOverheadTicks() is a calibrated *minimum*, which keeps the
      // sum-of-phases <= total invariant safe.
      const uint64_t Overhead = 2 * readOverheadTicks();
      PF.Child.Ticks += Overhead;
      Sink->addPhaseOverhead(static_cast<size_t>(PF.P), Overhead);
    }
  }

  int depth() const { return Depth; }

  /// The packed open-span stack: LiveStackBitsPerLevel bits per level,
  /// innermost highest, each holding phase index + 1; 0 = no open spans.
  /// Readable from any thread (the sampler's view of in-flight work).
  uint64_t liveStackWord() const {
    return LiveStack.load(std::memory_order_relaxed);
  }

  /// True when this collector's counter group is reading hardware events.
  bool usingPerf() const { return Group.usingPerf(); }

private:
  struct Frame {
    Phase P = Phase::Total;
    CounterSample Entry; ///< Counter reading at span open.
    CounterSample Child; ///< Gross cost + overhead charged by children.
  };

  static uint64_t clampedSelf(uint64_t Gross, uint64_t Child) {
    return Gross > Child ? Gross - Child : 0;
  }

  obs::Registry *Sink = nullptr;
  PerfGroup Group;
  Frame Stack[MaxDepth];
  int Depth = 0;
  uint64_t Packed = 0; ///< Shadow of LiveStack (single-writer, no reload).
  std::atomic<uint64_t> LiveStack{0};
};

#if DRAGON4_OBS_ENABLED
/// The thread's active collector, or null when the current conversion is
/// not being profiled.  Same idiom as obs::ActiveTraceTls: constinit +
/// inline so the hot-path check is a single TLS load.
inline constinit thread_local PhaseCollector *ActivePhaseTls = nullptr;

inline PhaseCollector *activePhaseCollector() { return ActivePhaseTls; }
#else
inline PhaseCollector *activePhaseCollector() { return nullptr; }
#endif

/// RAII installer for the thread's active collector (null = suppression,
/// mirroring ActiveTraceScope).
class PhaseScope {
public:
#if DRAGON4_OBS_ENABLED
  explicit PhaseScope(PhaseCollector *C) : Prev(ActivePhaseTls) {
    ActivePhaseTls = C;
  }
  ~PhaseScope() { ActivePhaseTls = Prev; }

private:
  PhaseCollector *Prev;
#else
  explicit PhaseScope(PhaseCollector *) {}
#endif
  PhaseScope(const PhaseScope &) = delete;
  PhaseScope &operator=(const PhaseScope &) = delete;
};

/// Scoped span marker.  Construction opens the phase on the thread's
/// active collector (no-op when none is installed); destruction closes it.
/// Both are forced inline so an unprofiled conversion pays one TLS load
/// and a branch per span, never a call, however large the enclosing
/// function grows.
class PhaseSpan {
public:
#if DRAGON4_OBS_ENABLED
  [[gnu::always_inline]] explicit PhaseSpan(Phase P) : C(ActivePhaseTls) {
    if (C)
      Active = C->enter(P);
  }
  [[gnu::always_inline]] ~PhaseSpan() {
    if (Active)
      C->exit();
  }

private:
  PhaseCollector *C;
  bool Active = false;
#else
  explicit PhaseSpan(Phase) {}
#endif
  PhaseSpan(const PhaseSpan &) = delete;
  PhaseSpan &operator=(const PhaseSpan &) = delete;
};

#define D4_PROF_CONCAT_IMPL(A, B) A##B
#define D4_PROF_CONCAT(A, B) D4_PROF_CONCAT_IMPL(A, B)

/// Statement macro: attributes the rest of the enclosing block to \p P.
#if DRAGON4_OBS_ENABLED
#define D4_PROF_SPAN(P)                                                        \
  ::dragon4::prof::PhaseSpan D4_PROF_CONCAT(D4ProfSpan_, __LINE__) {           \
    ::dragon4::prof::Phase::P                                                  \
  }
#else
#define D4_PROF_SPAN(P)                                                        \
  do {                                                                         \
  } while (0)
#endif

} // namespace dragon4::prof

#endif // DRAGON4_PROF_PHASE_H
