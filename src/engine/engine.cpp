//===- engine/engine.cpp - Zero-allocation conversion engine ----------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single-value engine layer, one template over all five formats and
/// every output sink.  The conversion core is untouched: this file routes
/// it through reusable storage (Scratch's arena and digit buffers) and
/// renders the resulting digits through the same render_core layout rules
/// that back format/render.cpp, so engine::format(v) == toShortest(v)
/// holds byte for byte for every instantiation.  The Ryu rung skips the
/// reusable storage altogether: its decimal significand is rendered
/// straight into the sink, and only the exact rung opens a
/// ConversionScope.  formatInto is the one writer-generic body; format()
/// (BufferSink), the StringTable batch path (format() per slot),
/// RecordStream::push (StreamSink) and toShortest (StringSink) are its
/// instantiations, and formatFixedInto plays the same role for
/// formatFixed, toFixed, toPrecision and toExponential: one fixed-format
/// frame whose digit request and notation are parameters.
///
//===----------------------------------------------------------------------===//

#include "engine/engine.h"

#include "fastpath/ryu.h"
#include "format/option_maps.h"
#include "format/render_core.h"
#include "obs/trace.h"
#include "prof/phase.h"
#include "support/checks.h"

#include <span>
#include <type_traits>

using namespace dragon4;
using namespace dragon4::engine;

namespace dragon4::engine {

/// Engine-internal accessor for Scratch's private storage (befriended by
/// Scratch; keeps the reusable buffers out of the public surface).
struct ScratchAccess {
  static EngineStats &stats(Scratch &S) { return S.Stats; }
  static DigitLoopResult &loop(Scratch &S) { return S.Loop; }
  static DigitString &fixedDigits(Scratch &S) { return S.FixedDigits; }
};

} // namespace dragon4::engine

namespace {

void recordSlowDigits(EngineStats &Stats, size_t NumDigits) {
  constexpr size_t Last = EngineStats::DigitBuckets - 1;
  size_t Bucket = NumDigits < Last ? NumDigits : Last;
  ++Stats.SlowDigitLength[Bucket];
}

/// Closes out one call that started at sink position \p Start: counts
/// truncation (bounded sinks only -- an unbounded sink never overflows)
/// and returns this call's length.  A StreamSink arrives mid-stream, so
/// every length is relative to the call's first byte.
template <Sink W>
size_t finishCall(const W &Out, size_t Start, EngineStats &Stats) {
  if (sinkOverflowed(Out))
    ++Stats.Truncated;
  return Out.written() - Start;
}

/// Writes NaN / infinity / zero, or returns false for finite non-zero
/// values.  \p writeZero emits the format-specific zero text (sign already
/// written).
template <typename T, Sink W, typename WriteZero>
bool putSpecial(W &Out, T Value, EngineStats &Stats, WriteZero writeZero) {
  switch (classify(Value)) {
  case FpClass::NaN:
    Out.literal("nan");
    break;
  case FpClass::Infinity:
    Out.literal(signBit(Value) ? "-inf" : "inf");
    break;
  case FpClass::Zero:
    if (signBit(Value))
      Out.put('-');
    writeZero();
    break;
  case FpClass::Normal:
  case FpClass::Subnormal:
    return false;
  }
  ++Stats.Specials;
  return true;
}

/// The observability frame every engine conversion runs in: the sampling
/// decision, the installed trace and phase collector, and the Total span
/// around \p Convert, which performs the conversion, names the path it
/// took in its obs::Path argument, and returns the length.  A sampled
/// conversion is archived after the Total span closes -- the observer's
/// own bookkeeping is not conversion time, so the phase profile describes
/// the conversion alone.
template <typename T, Sink W, typename ConvertFn>
size_t observeConversion([[maybe_unused]] T Value,
                         [[maybe_unused]] const PrintOptions &Options,
                         [[maybe_unused]] Scratch &S,
                         [[maybe_unused]] const W &Out, ConvertFn &&Convert) {
  obs::Path PathKind = obs::Path::Unknown;
#if DRAGON4_OBS_ENABLED
  // Sampling decision up front: one branch when sampling is off.  When this
  // conversion is not sampled the previous active trace (if any -- tests
  // and the verify harness install their own) is left in place.
  obs::ObsState &Obs = S.obsState();
  const bool Sampled = Obs.tick();
  uint64_t StartNs = 0;
  if (Sampled) {
    Obs.Current.reset();
    // Stamp the active options so a tail-exemplar capture can name the
    // exact configuration that was slow.
    Obs.Current.noteOptions(
        Options.Base,
        obs::exemplar::packOptionsMode(
            static_cast<unsigned>(Options.Boundaries),
            static_cast<unsigned>(Options.Ties)));
    StartNs = obs::nowNanos();
  }
  obs::ActiveTraceScope TraceScope(Sampled ? &Obs.Current
                                           : obs::activeTrace());
  // Phase attribution rides the same sampling decision: sampled
  // conversions install this Scratch's collector; unsampled ones leave
  // whatever is installed (tests profile explicitly) in place.
  prof::PhaseScope ProfScope(Sampled ? &Obs.Phases
                                     : prof::activePhaseCollector());
  size_t Len = 0;
  {
    D4_PROF_SPAN(Total);
    Len = Convert(PathKind);
  }
  if (Sampled) {
    const uint64_t LatencyNs = obs::nowNanos() - StartNs;
    uint64_t BitsLo, BitsHi;
    FormatTraits<T>::encodingBits(Value, BitsLo, BitsHi);
    Obs.finishConversion(Obs.Current, PathKind, FormatTraits<T>::Id, BitsLo,
                         BitsHi, StartNs, LatencyNs,
                         /*Truncated=*/sinkOverflowed(Out),
                         /*Mismatch=*/false);
  }
  return Len;
#else
  return Convert(PathKind);
#endif
}

/// The shortest-output ladder behind formatInto, run inside
/// observeConversion's frame.  Returns the length of this call's output.
template <typename T, Sink W>
size_t shortestInto(T Value, const PrintOptions &Options, Scratch &S, W &Out,
                    obs::Path &PathKind) {
  using Traits = IeeeTraits<T>;
  using Format = FormatTraits<T>;
  EngineStats &Stats = ScratchAccess::stats(S);
  const size_t Start = Out.written();
  bool Negative = false;
  {
    D4_PROF_SPAN(Decompose);
    if (putSpecial(Out, Value, Stats, [&Out] { Out.put('0'); })) {
      PathKind = obs::Path::Special;
      return finishCall(Out, Start, Stats);
    }
    Negative = signBit(Value);
  }
  ++Stats.Conversions;
  ++Stats.FormatConversions[static_cast<int>(Format::Id)];

  std::span<const uint8_t> Digits;
  int K = 0;
  // The exact rung, which produces a digit string.  Callers hold a
  // ConversionScope: every BigInt limb it touches comes from the Scratch
  // arena, rewound when the scope closes.  The digits themselves land in
  // the Scratch's loop result, whose storage outlives the scope.
  auto ExactLoop = [&](const auto &D) {
    ++Stats.SlowPathDirect;
    PathKind = obs::Path::SlowDirect;
    DigitLoopResult &Loop = ScratchAccess::loop(S);
    if constexpr (Format::WideMantissa)
      K = freeFormatDigitsBigInto(D.F, D.E, Traits::Precision,
                                  Traits::MinExponent,
                                  freeOptionsFrom(Options), Loop);
    else
      K = freeFormatDigitsInto(D.F, D.E, Traits::Precision,
                               Traits::MinExponent, freeOptionsFrom(Options),
                               Loop);
    Digits = Loop.Digits;
    recordSlowDigits(Stats, Digits.size());
  };

  if constexpr (Format::WideMantissa) {
    // D is declared after Scope and therefore destroyed (its arena-backed
    // BigInt first) before the arena rewinds.
    ConversionScope Scope(S);
    DecomposedBig D;
    {
      D4_PROF_SPAN(Decompose);
      D = decomposeBig(Value);
    }
    ExactLoop(D);
  } else {
    Decomposed D;
    {
      D4_PROF_SPAN(Decompose);
      D = decompose(Value);
    }
    // The ladder: Ryu -> exact loop.  Ryu is the front line for every
    // certified narrow format (binary16/32/64) and any symmetric reader
    // model, and renders straight from its decimal significand: no digit
    // vector, no arena.  Its only failures are defensive range checks,
    // counted as RyuFallbacks; those conversions, like every one Ryu does
    // not model, run the exact loop.  The RyuPath span lives inside the
    // converter itself.
    if constexpr (Format::RyuCertified) {
      bool AcceptBounds = false;
      if (ryuEligible(Options.Base, Options.Boundaries, (D.F & 1) == 0,
                      AcceptBounds)) {
        uint64_t Significand = 0;
        int Length = 0;
        if (ryuShortestDecimal(D.F, D.E, Traits::Precision,
                               Traits::MinExponent, AcceptBounds, Options.Ties,
                               Significand, Length, K)) {
          ++Stats.RyuHits;
          PathKind = obs::Path::Ryu;
          if (auto *Trace = obs::activeTrace()) {
            // The fast path bypasses the digit loop's trace point.
            Trace->DigitsEmitted = static_cast<uint32_t>(Length);
            Trace->FinalK = K;
          }
          D4_PROF_SPAN(Render);
          render_detail::renderDecimalAutoInto<maxShortestBufferSize<T>(10)>(
              Out, Significand, Length, K, Negative,
              renderOptionsFrom(Options));
          return finishCall(Out, Start, Stats);
        }
        ++Stats.RyuFallbacks;
      }
    }
    ConversionScope Scope(S);
    ExactLoop(D);
  }

  {
    D4_PROF_SPAN(Render);
    render_detail::renderAutoInto(Out, Digits, K, /*TrailingMarks=*/0,
                                  Negative, renderOptionsFrom(Options));
  }
  S.syncArenaStats();
  return finishCall(Out, Start, Stats);
}

/// The fixed-format conversion behind formatFixedInto, run inside
/// observeConversion's frame: the digits \p Request asks for, laid out in
/// its notation.  A zero is one 0 digit followed by zero fill to the
/// requested width.  Returns the length of this call's output.
template <typename T, Sink W>
size_t fixedInto(T Value, const FixedRequest &Request,
                 const PrintOptions &Options, Scratch &S, W &Out,
                 obs::Path &PathKind) {
  using Format = FormatTraits<T>;
  EngineStats &Stats = ScratchAccess::stats(S);
  const size_t Start = Out.written();
  const RenderOptions Render = renderOptionsFrom(Options);
  auto Layout = [&](const render_detail::SpanDigits &Source, int K,
                    bool Negative) {
    switch (Request.Notation) {
    case FixedNotation::Positional:
      render_detail::layoutPositional(Out, Source, K, Negative);
      break;
    case FixedNotation::Scientific:
      render_detail::layoutScientific(Out, Source, K, Negative, Render);
      break;
    case FixedNotation::Auto:
      render_detail::layoutAuto(Out, Source, K, Negative, Render);
      break;
    }
  };

  if (putSpecial(Out, Value, Stats, [&] {
        static constexpr uint8_t ZeroDigit[] = {0};
        RenderOptions Zeros = Render;
        Zeros.MarkChar = '0';
        const int Fill =
            Request.Significant ? Request.Count - 1 : Request.Count;
        Layout(render_detail::SpanDigits(ZeroDigit, Fill, Zeros), /*K=*/1,
               /*Negative=*/false);
      })) {
    PathKind = obs::Path::Special;
    return finishCall(Out, Start, Stats);
  }
  PathKind = obs::Path::Fixed;

  ConversionScope Scope(S);
  // Scratch-resident loop state and result: warm calls reuse both digit
  // buffers, so the fixed path is allocation-free like the shortest path
  // (the BigInt limbs come from the arena).
  DigitString &Digits = ScratchAccess::fixedDigits(S);
  if (Request.Significant)
    fixedDigitsRelativeInto(Value, Request.Count, fixedOptionsFrom(Options),
                            ScratchAccess::loop(S), Digits);
  else
    fixedDigitsAbsoluteInto(Value, -Request.Count, fixedOptionsFrom(Options),
                            ScratchAccess::loop(S), Digits);
  ++Stats.Conversions;
  ++Stats.FormatConversions[static_cast<int>(Format::Id)];
  ++Stats.SlowPathDirect;
  recordSlowDigits(Stats, Digits.Digits.size());

  {
    D4_PROF_SPAN(Render);
    Layout(render_detail::SpanDigits(Digits.Digits, Digits.TrailingMarks,
                                     Render),
           Digits.K, signBit(Value));
  }
  S.syncArenaStats();
  return finishCall(Out, Start, Stats);
}

} // namespace

template <typename T, typename W>
size_t dragon4::engine::formatInto(T Value, const PrintOptions &Options,
                                   Scratch &S, W &Out) {
  return observeConversion(Value, Options, S, Out, [&](obs::Path &PathKind) {
    return shortestInto(Value, Options, S, Out, PathKind);
  });
}

template <typename T>
size_t dragon4::engine::format(T Value, char *Buffer, size_t BufferSize,
                               const PrintOptions &Options, Scratch &S) {
  BufferSink Out(Buffer, BufferSize);
  return formatInto(Value, Options, S, Out);
}

template <typename T, typename W>
size_t dragon4::engine::formatFixedInto(T Value, const FixedRequest &Request,
                                        const PrintOptions &Options,
                                        Scratch &S, W &Out) {
  D4_ASSERT(Request.Count >= (Request.Significant ? 1 : 0),
            "fixed-format digit request out of range");
  return observeConversion(Value, Options, S, Out, [&](obs::Path &PathKind) {
    return fixedInto(Value, Request, Options, S, Out, PathKind);
  });
}

template <typename T>
size_t dragon4::engine::formatFixed(T Value, int FractionDigits, char *Buffer,
                                    size_t BufferSize,
                                    const PrintOptions &Options, Scratch &S) {
  BufferSink Out(Buffer, BufferSize);
  return formatFixedInto(Value, FixedRequest{.Count = FractionDigits},
                         Options, S, Out);
}

namespace dragon4::engine {

template size_t formatInto<Binary16, BufferSink>(Binary16,
                                                 const PrintOptions &,
                                                 Scratch &, BufferSink &);
template size_t formatInto<float, BufferSink>(float, const PrintOptions &,
                                              Scratch &, BufferSink &);
template size_t formatInto<double, BufferSink>(double, const PrintOptions &,
                                               Scratch &, BufferSink &);
template size_t formatInto<long double, BufferSink>(long double,
                                                    const PrintOptions &,
                                                    Scratch &, BufferSink &);
template size_t formatInto<Binary128, BufferSink>(Binary128,
                                                  const PrintOptions &,
                                                  Scratch &, BufferSink &);
template size_t formatInto<Binary16, StreamSink>(Binary16,
                                                 const PrintOptions &,
                                                 Scratch &, StreamSink &);
template size_t formatInto<float, StreamSink>(float, const PrintOptions &,
                                              Scratch &, StreamSink &);
template size_t formatInto<double, StreamSink>(double, const PrintOptions &,
                                               Scratch &, StreamSink &);
template size_t formatInto<long double, StreamSink>(long double,
                                                    const PrintOptions &,
                                                    Scratch &, StreamSink &);
template size_t formatInto<Binary128, StreamSink>(Binary128,
                                                  const PrintOptions &,
                                                  Scratch &, StreamSink &);
template size_t formatInto<Binary16, StringSink>(Binary16,
                                                 const PrintOptions &,
                                                 Scratch &, StringSink &);
template size_t formatInto<float, StringSink>(float, const PrintOptions &,
                                              Scratch &, StringSink &);
template size_t formatInto<double, StringSink>(double, const PrintOptions &,
                                               Scratch &, StringSink &);
template size_t formatInto<long double, StringSink>(long double,
                                                    const PrintOptions &,
                                                    Scratch &, StringSink &);
template size_t formatInto<Binary128, StringSink>(Binary128,
                                                  const PrintOptions &,
                                                  Scratch &, StringSink &);
template size_t formatFixedInto<Binary16, StringSink>(Binary16,
                                                      const FixedRequest &,
                                                      const PrintOptions &,
                                                      Scratch &, StringSink &);
template size_t formatFixedInto<float, StringSink>(float, const FixedRequest &,
                                                   const PrintOptions &,
                                                   Scratch &, StringSink &);
template size_t formatFixedInto<double, StringSink>(double,
                                                    const FixedRequest &,
                                                    const PrintOptions &,
                                                    Scratch &, StringSink &);
template size_t formatFixedInto<long double, StringSink>(long double,
                                                         const FixedRequest &,
                                                         const PrintOptions &,
                                                         Scratch &,
                                                         StringSink &);
template size_t formatFixedInto<Binary128, StringSink>(Binary128,
                                                       const FixedRequest &,
                                                       const PrintOptions &,
                                                       Scratch &,
                                                       StringSink &);

template size_t format<Binary16>(Binary16, char *, size_t,
                                 const PrintOptions &, Scratch &);
template size_t format<float>(float, char *, size_t, const PrintOptions &,
                              Scratch &);
template size_t format<double>(double, char *, size_t, const PrintOptions &,
                               Scratch &);
template size_t format<long double>(long double, char *, size_t,
                                    const PrintOptions &, Scratch &);
template size_t format<Binary128>(Binary128, char *, size_t,
                                  const PrintOptions &, Scratch &);
template size_t formatFixed<Binary16>(Binary16, int, char *, size_t,
                                      const PrintOptions &, Scratch &);
template size_t formatFixed<float>(float, int, char *, size_t,
                                   const PrintOptions &, Scratch &);
template size_t formatFixed<double>(double, int, char *, size_t,
                                    const PrintOptions &, Scratch &);
template size_t formatFixed<long double>(long double, int, char *, size_t,
                                         const PrintOptions &, Scratch &);
template size_t formatFixed<Binary128>(Binary128, int, char *, size_t,
                                       const PrintOptions &, Scratch &);

} // namespace dragon4::engine
