//===- engine/engine.h - Zero-allocation conversion engine -------*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batch conversion engine's single-value layer: a char-buffer API that
/// bypasses std::string entirely.  Where toShortest() heap-allocates a
/// string and fresh BigInt state per call, engine::format() writes into a
/// caller-provided buffer and draws every intermediate from a reusable
/// Scratch -- loop state, digits, and BigInt limbs all come from warm
/// storage, so a warmed-up conversion performs zero heap allocations even
/// when it falls back to the exact BigInt path.
///
/// Two conversion bodies serve every surface: formatInto (shortest output)
/// and formatFixedInto (the paper's Section 4 output, for a FixedRequest:
/// digits to an absolute position or a count of significant digits, laid
/// out positionally, scientifically or automatically).  The string API
/// (toShortest, toFixed, toPrecision, toExponential) is these over a
/// StringSink on threadScratch().
///
/// The API is format-generic: one template pipeline, explicitly
/// instantiated for all five supported formats (Binary16, float, double,
/// long double / x87 extended80, Binary128).  Formats whose significand
/// exceeds 64 bits take the BigInt-mantissa path; the Ryu front line is
/// taken only for formats whose cached-power range and exactness analysis
/// are certified (FormatTraits<T>::RyuCertified -- binary16/32/64), and
/// everything it does not model runs the exact loop.
///
/// Truncation semantics (snprintf-like, minus the NUL): format() always
/// returns the full length the rendering requires and writes at most
/// BufferSize bytes.  A return value greater than BufferSize means the
/// output was truncated at BufferSize bytes; the written prefix is exactly
/// the first BufferSize characters of the full rendering.  No NUL
/// terminator is written.
///
/// See docs/engine.md for the design discussion.
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_ENGINE_ENGINE_H
#define DRAGON4_ENGINE_ENGINE_H

#include "engine/scratch.h"
#include "format/dtoa.h"
#include "format/render.h"
#include "format/sink.h"
#include "fp/format_traits.h"

#include <cstddef>

namespace dragon4::engine {

/// The writer-generic conversion core: renders the shortest round-tripping
/// form of \p Value into any Sink and returns the characters the sink
/// accepted (for a BufferSink this is the full required length -- bytes
/// past the capacity are dropped by the sink, never by the engine).  The
/// public surfaces are instantiations of this one template: format() is
/// formatInto over a BufferSink, RecordStream::push is formatInto over a
/// StreamSink, toShortest is formatInto over a StringSink, and the
/// StringTable batch path is format() per slot.
template <typename T, typename W>
size_t formatInto(T Value, const PrintOptions &Options, Scratch &S, W &Out);

/// How a fixed-format conversion lays out its digits.
enum class FixedNotation : uint8_t {
  Positional, ///< "123.450" -- toFixed.
  Scientific, ///< "1.23450e+2" -- toExponential.
  Auto,       ///< Positional or scientific per the K window -- toPrecision.
};

/// What a fixed-format conversion asks for: where its digits stop, and
/// the notation they are laid out in.
struct FixedRequest {
  /// True: Count significant digits (a relative position).  False: Count
  /// places after the radix point (the absolute position -Count).
  bool Significant = false;
  int Count = 0;
  FixedNotation Notation = FixedNotation::Positional;
};

/// The writer-generic fixed conversion (the paper's Section 4): renders
/// the digits \p Request asks for into any Sink and returns the
/// characters this call wrote.  formatFixed() is formatFixedInto over a
/// BufferSink; toFixed, toPrecision and toExponential are formatFixedInto
/// over a StringSink.
template <typename T, typename W>
size_t formatFixedInto(T Value, const FixedRequest &Request,
                       const PrintOptions &Options, Scratch &S, W &Out);

/// The calling thread's default workspace: one lazily constructed Scratch
/// per thread, which is what makes the string API (toShortest, toFixed,
/// toPrecision, toExponential) and the C ABI's plain entry points
/// reentrant across threads with no locking and no caller bookkeeping.
inline Scratch &threadScratch() {
  thread_local Scratch S;
  return S;
}

/// Shortest round-tripping rendering of \p Value (the buffer counterpart
/// of toShortest): writes up to \p BufferSize bytes at \p Buffer and
/// returns the full required length.  Identical output, byte for byte, to
/// toShortest(Value, Options).
template <typename T>
size_t format(T Value, char *Buffer, size_t BufferSize,
              const PrintOptions &Options, Scratch &S);

/// Convenience overload with default options.
template <typename T>
inline size_t format(T Value, char *Buffer, size_t BufferSize, Scratch &S) {
  return format(Value, Buffer, BufferSize, PrintOptions{}, S);
}

/// Buffer counterpart of toFixed: exactly \p FractionDigits positions
/// after the radix point.  Same truncation semantics as format().
template <typename T>
size_t formatFixed(T Value, int FractionDigits, char *Buffer,
                   size_t BufferSize, const PrintOptions &Options, Scratch &S);

// The templates above are defined, and explicitly instantiated for the
// five formats, in engine.cpp: format and formatFixed; formatInto over
// BufferSink, StreamSink and StringSink; formatFixedInto over
// StringSink.  No definition is visible here, so callers link against
// those instantiations.

namespace engine_detail {

/// Decimal digit count of a non-negative value (at least 1).
constexpr int decimalDigitCount(int Value) {
  int Count = 1;
  while (Value >= 10) {
    Value /= 10;
    ++Count;
  }
  return Count;
}

/// Upper bound on the number of significant digits a shortest conversion
/// of a Precision-bit format can emit in \p Base.  Decimal-and-above bases
/// use the exact ceil(p log10 2) + 1 bound (larger bases only shorten the
/// string); small bases fall back to per-bit bounds.
constexpr int shortestDigitBound(int Precision, unsigned Base) {
  if (Base >= 10)
    return Precision * 30103 / 100000 + 2;
  if (Base >= 4)
    return Precision / 2 + 2; // log2(B) >= 2.
  if (Base == 3)
    return Precision * 2 / 3 + 2; // log2(3) > 3/2.
  return Precision + 1; // Base 2: the mantissa bits themselves.
}

/// Upper bound on the decimal digits of the scientific exponent |K - 1|
/// for a format spanning [2^MinExponent, 2^(MaxExponent + Precision)).
constexpr int exponentDigitBound(int Precision, int MinExponent,
                                 int MaxExponent, unsigned Base) {
  int MaxAbs2 = MaxExponent + Precision;
  if (-MinExponent > MaxAbs2)
    MaxAbs2 = -MinExponent;
  // |K - 1| <= maxAbs2 * log_B(2) + 2; bases below 10 keep the base-2
  // bound (log_B(2) <= 1).
  int MaxAbsK =
      Base >= 10 ? MaxAbs2 * 30103 / 100000 + 2 : MaxAbs2 + 2;
  return decimalDigitCount(MaxAbsK);
}

} // namespace engine_detail

/// Tight upper bound on the length format<T>() can produce in \p Base with
/// default rendering: no output ever exceeds it (tested exhaustively for
/// binary16 and at the adversarial extremes of the wider formats).
/// Derived from IeeeTraits, so a new format gets its bound for free.
template <typename T> constexpr size_t maxShortestBufferSize(unsigned Base) {
  using Traits = IeeeTraits<T>;
  const int Digits = engine_detail::shortestDigitBound(Traits::Precision, Base);
  const int ExpDigits = engine_detail::exponentDigitBound(
      Traits::Precision, Traits::MinExponent, Traits::MaxExponent, Base);
  // Scientific: sign + d + '.' + (Digits-1) + marker + expsign + ExpDigits.
  const int Scientific = Digits + ExpDigits + 4;
  // Positional (renderAuto shows it only for K in (MinK, MaxK]):
  //   K <= 0:  sign + "0." + up to -MinK-1 zeros + Digits
  //   K > 0:   sign + max(K, Digits) integer places + '.' + fraction
  constexpr RenderOptions Defaults{};
  const int Positional = Digits + 3 + (-Defaults.PositionalMinK - 1);
  const int Integral = 1 + Defaults.PositionalMaxK + 1;
  int Max = Scientific;
  if (Positional > Max)
    Max = Positional;
  if (Integral > Max)
    Max = Integral;
  return static_cast<size_t>(Max);
}

/// A slot size sufficient for any shortest-form rendering of \p T in base
/// \p Base with format(): maxShortestBufferSize rounded up for alignment.
/// This is what BatchEngine<T> sizes StringTable slots with.
template <typename T> constexpr size_t shortestSlotSize(unsigned Base) {
  return (maxShortestBufferSize<T>(Base) + 7) / 8 * 8;
}

// The bounds must stay within the historically validated double slot sizes
// and grow with the format -- binary128 genuinely needs more than double.
// ("-1.7976931348623157e+308" is the length-24 double witness; the small
// formats are floored by the 21-integer-digit positional window, which is
// why binary16 and float share a bound.)
static_assert(maxShortestBufferSize<double>(10) <= 32 &&
                  maxShortestBufferSize<double>(3) <= 48 &&
                  maxShortestBufferSize<double>(2) <= 64,
              "double bounds regressed past the proven slot sizes");
static_assert(maxShortestBufferSize<Binary16>(10) <=
                  maxShortestBufferSize<float>(10) &&
              maxShortestBufferSize<float>(10) <=
                  maxShortestBufferSize<double>(10) &&
              maxShortestBufferSize<double>(10) <
                  maxShortestBufferSize<long double>(10) &&
              maxShortestBufferSize<long double>(10) <
                  maxShortestBufferSize<Binary128>(10),
              "bounds must be ordered by significand width");
static_assert(maxShortestBufferSize<Binary16>(10) == 23 &&
                  maxShortestBufferSize<float>(10) == 23 &&
                  maxShortestBufferSize<double>(10) == 24 &&
                  maxShortestBufferSize<long double>(10) == 29 &&
                  maxShortestBufferSize<Binary128>(10) == 44,
              "decimal buffer-bound table drifted");
static_assert(shortestSlotSize<Binary16>(10) == 24 &&
                  shortestSlotSize<float>(10) == 24 &&
                  shortestSlotSize<double>(10) == 24 &&
                  shortestSlotSize<long double>(10) == 32 &&
                  shortestSlotSize<Binary128>(10) == 48,
              "decimal slot-size table drifted");

} // namespace dragon4::engine

#endif // DRAGON4_ENGINE_ENGINE_H
