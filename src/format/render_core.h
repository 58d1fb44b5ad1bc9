//===- format/render_core.h - Writer-generic digit rendering -----*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one implementation of positional/scientific/auto rendering, written
/// against the Sink concept (format/sink.h) so every surface -- the
/// std::string renderers in render.cpp, the zero-allocation char-buffer
/// engine, the fixed-stride StringTable batch slots, the push-style
/// RecordStream, and formatPrintf -- emits byte-identical text from the
/// same code instead of hand-kept twins.  printf's extras are parameters
/// of the layout rules: a radix point kept after the last digit (C's '#')
/// and a minimum exponent width (C's two digits).
///
/// The layout rules take their digits from one of two sources:
///
///   SpanDigits     a digit array in any base followed by trailing marks:
///                  the exact loop's and the fixed path's digit strings.
///   DecimalDigits  a base-10 significand held in a uint64_t, turned into
///                  ASCII with a two-digit table: the shortest digit core's
///                  output, rendered without a digit-array intermediate.
///
/// A source writes a run of output positions at once, so the layout rules
/// below exist once and serve both.
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_FORMAT_RENDER_CORE_H
#define DRAGON4_FORMAT_RENDER_CORE_H

#include "format/render.h"
#include "format/sink.h"
#include "support/checks.h"

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace dragon4::render_detail {

inline char digitChar(uint8_t Value, bool Uppercase) {
  static const char Lower[] = "0123456789abcdefghijklmnopqrstuvwxyz";
  static const char Upper[] = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ";
  return Uppercase ? Upper[Value] : Lower[Value];
}

/// "00" "01" ... "99": two decimal digits per lookup.
inline constexpr char TwoDigits[] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/// Writes the \p Length low-order decimal digits of \p Value to
/// \p Out[0, Length), most significant first, zero-padded on the left.
inline void writeDecimal(uint64_t Value, int Length, char *Out) {
  int Pos = Length;
  while (Pos >= 2) {
    const uint64_t Quotient = Value / 100;
    const size_t Pair = static_cast<size_t>(Value - 100 * Quotient);
    Pos -= 2;
    std::memcpy(Out + Pos, TwoDigits + 2 * Pair, 2);
    Value = Quotient;
  }
  if (Pos == 1)
    Out[0] = static_cast<char>('0' + Value % 10);
}

/// Number of decimal digits of V >= 1: floor(log10(V)) + 1, estimated
/// from the bit width (1233 / 4096 ~ log10(2)) and corrected by one
/// comparison against the power of ten at the estimate.
inline int decimalLength(uint64_t V) {
  static constexpr auto Pow10 = [] {
    std::array<uint64_t, 20> Table{};
    uint64_t Power = 1;
    for (uint64_t &Entry : Table) {
      Entry = Power;
      Power *= 10; // Wraps once, after 10^19 is stored; never read.
    }
    return Table;
  }();
  const int Estimate = (static_cast<int>(std::bit_width(V)) * 1233) >> 12;
  return Estimate + (V >= Pow10[static_cast<size_t>(Estimate)]);
}

/// Stores the \p Length base-10 digits of \p Value into \p Digits, most
/// significant first (Digits is cleared; capacity is reused, so a warm
/// vector allocates nothing).  The digit-array form of a digit-core
/// result, for callers that want a DigitString rather than text.
inline void storeDecimalDigits(uint64_t Value, int Length,
                               std::vector<uint8_t> &Digits) {
  Digits.clear();
  Digits.resize(static_cast<size_t>(Length));
  for (int Index = Length - 1; Index >= 0; --Index) {
    Digits[static_cast<size_t>(Index)] = static_cast<uint8_t>(Value % 10);
    Value /= 10;
  }
}

/// Digit source over a digit array in any base followed by \p TrailingMarks
/// insignificant positions, rendered as Options.MarkChar.
class SpanDigits {
public:
  SpanDigits(std::span<const uint8_t> Digits, int TrailingMarks,
             const RenderOptions &Options)
      : Digits(Digits), TrailingMarks(TrailingMarks), Options(Options) {}

  int width() const { return static_cast<int>(Digits.size()) + TrailingMarks; }

  /// Writes output positions [From, To) (0-based from the most
  /// significant end): digits, then marks past the digits.
  template <Sink Writer> void put(Writer &W, int From, int To) const {
    const int Size = static_cast<int>(Digits.size());
    for (int Index = From; Index < To; ++Index) {
      if (Index < Size)
        W.put(digitChar(Digits[static_cast<size_t>(Index)],
                        Options.UppercaseDigits));
      else
        W.put(Options.MarkChar);
    }
  }

private:
  std::span<const uint8_t> Digits;
  int TrailingMarks;
  const RenderOptions &Options;
};

/// Digit source over a base-10 significand of \p Length digits (at most
/// 20, the width of a uint64_t), converted to ASCII once, up front.
class DecimalDigits {
public:
  DecimalDigits(uint64_t Significand, int Length) : Length(Length) {
    D4_ASSERT(Length >= 1 && Length <= MaxLength,
              "decimal significand length out of range");
    writeDecimal(Significand, Length, Chars);
  }

  int width() const { return Length; }

  template <Sink Writer> void put(Writer &W, int From, int To) const {
    W.append(Chars + From, static_cast<size_t>(To - From));
  }

private:
  static constexpr int MaxLength = 20;
  char Chars[MaxLength];
  int Length;
};

/// Decimal exponent with an explicit sign and at least \p MinDigits digits
/// -- snprintf("%+.*d", MinDigits, Exponent); C's %e asks for two.
template <Sink Writer>
void putExponent(Writer &W, int Exponent, int MinDigits = 1) {
  char Text[12];
  char *End = Text + sizeof(Text);
  char *Begin = End;
  unsigned Magnitude = Exponent < 0 ? 0u - static_cast<unsigned>(Exponent)
                                    : static_cast<unsigned>(Exponent);
  do {
    *--Begin = static_cast<char>('0' + Magnitude % 10);
    Magnitude /= 10;
  } while (Magnitude != 0);
  while (End - Begin < MinDigits)
    *--Begin = '0';
  *--Begin = Exponent < 0 ? '-' : '+';
  W.append(Begin, static_cast<size_t>(End - Begin));
}

/// Positional notation, e.g. "123.45", "0.00078", "12300".  \p KeepPoint
/// writes the radix point even when no digit follows it (C's '#' flag).
template <Sink Writer, typename Source>
void layoutPositional(Writer &W, const Source &Digits, int K, bool Negative,
                      bool KeepPoint = false) {
  const int Width = Digits.width();
  if (Negative)
    W.put('-');

  if (K <= 0) {
    // Pure fraction: 0.000ddd...
    W.literal("0.");
    W.fill(static_cast<size_t>(-K), '0');
    Digits.put(W, 0, Width);
    return;
  }
  if (K >= Width) {
    // Nothing after the point; zero-padded if the conversion stopped left
    // of the radix point.
    Digits.put(W, 0, Width);
    W.fill(static_cast<size_t>(K - Width), '0');
    if (KeepPoint)
      W.put('.');
    return;
  }
  Digits.put(W, 0, K);
  W.put('.');
  Digits.put(W, K, Width);
}

/// Scientific notation "d.ddd...e±x"; the exponent is always decimal, with
/// at least \p MinExponentDigits digits.  \p KeepPoint writes the point
/// after a lone leading digit too.
template <Sink Writer, typename Source>
void layoutScientific(Writer &W, const Source &Digits, int K, bool Negative,
                      const RenderOptions &Options, bool KeepPoint = false,
                      int MinExponentDigits = 1) {
  const int Width = Digits.width();
  D4_ASSERT(Width > 0, "cannot render an empty digit string");
  if (Negative)
    W.put('-');
  Digits.put(W, 0, 1);
  if (Width > 1 || KeepPoint) {
    W.put('.');
    Digits.put(W, 1, Width);
  }
  W.put(Options.ExponentMarker);
  putExponent(W, K - 1, MinExponentDigits);
}

/// Chooses positional or scientific per the options' K window.
template <Sink Writer, typename Source>
void layoutAuto(Writer &W, const Source &Digits, int K, bool Negative,
                const RenderOptions &Options) {
  if (K > Options.PositionalMinK && K <= Options.PositionalMaxK)
    layoutPositional(W, Digits, K, Negative);
  else
    layoutScientific(W, Digits, K, Negative, Options);
}

/// The digit-span entry point: \p Digits (any base) followed by
/// \p TrailingMarks insignificant positions.
template <Sink Writer>
void renderAutoInto(Writer &W, std::span<const uint8_t> Digits, int K,
                    int TrailingMarks, bool Negative,
                    const RenderOptions &Options) {
  layoutAuto(W, SpanDigits(Digits, TrailingMarks, Options), K, Negative,
             Options);
}

/// renderAutoInto for v = Significand * 10^(K - Length), Length the exact
/// digit count: the text is laid out in a \p Capacity-byte stack buffer
/// and reaches \p W in one append.  Capacity should bound every rendering
/// the caller produces (engine: maxShortestBufferSize<T>); a rendering
/// that does not fit -- only possible with a widened positional window --
/// is laid out again straight into \p W, so the bytes never depend on it.
template <size_t Capacity, Sink Writer>
void renderDecimalAutoInto(Writer &W, uint64_t Significand, int Length, int K,
                           bool Negative, const RenderOptions &Options) {
  const DecimalDigits Digits(Significand, Length);
  char Local[Capacity];
  BufferSink Stack(Local, Capacity);
  layoutAuto(Stack, Digits, K, Negative, Options);
  if (Stack.overflowed()) [[unlikely]] {
    layoutAuto(W, Digits, K, Negative, Options);
    return;
  }
  W.append(Local, Stack.required());
}

} // namespace dragon4::render_detail

#endif // DRAGON4_FORMAT_RENDER_CORE_H
