//===- format/printf_compat.cpp - printf-style formatting --------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "format/printf_compat.h"

#include "baselines/fixed17.h"
#include "format/render_core.h"
#include "format/sink.h"
#include "fp/ieee_traits.h"
#include "support/checks.h"

#include <algorithm>
#include <climits>
#include <span>

using namespace dragon4;

namespace {

/// Writes the sign and the body \p Layout lays out (it is called with the
/// sink to write into) padded to the field width: spaces outside, or
/// zeros between the sign and the body when '0' is given (and '-' is
/// not).  The body is measured with a CountingSink first, and only when a
/// width is given.
template <Sink W, typename LayoutFn>
void emitPadded(W &Out, char Sign, const PrintfSpec &Spec, bool AllowZeroPad,
                const LayoutFn &Layout) {
  size_t Fill = 0;
  if (Spec.Width > 0) {
    CountingSink Measure;
    Layout(Measure);
    const size_t Have = Measure.written() + (Sign ? 1 : 0);
    const size_t Want = static_cast<size_t>(Spec.Width);
    Fill = Have < Want ? Want - Have : 0;
  }
  const bool ZeroFill = AllowZeroPad && Spec.ZeroPad && !Spec.LeftJustify;
  if (!Spec.LeftJustify && !ZeroFill)
    Out.fill(Fill, ' ');
  if (Sign)
    Out.put(Sign);
  if (ZeroFill)
    Out.fill(Fill, '0');
  Layout(Out);
  if (Spec.LeftJustify)
    Out.fill(Fill, ' ');
}

/// One printf conversion rendered into any sink.  The digits come from
/// the exact generators of baselines/fixed17.h and are laid out by
/// render_core, the layout every other surface uses; a zero is one 0
/// digit followed by zero fill.  printf adds only what C requires: the
/// sign and flags, the two-digit exponent, the '#' point and the %g
/// trim of trailing zeros.
template <typename T, Sink W>
void printfInto(W &Out, T Value, const PrintfSpec &Spec) {
  const char C = Spec.Conversion;
  D4_ASSERT(C == 'e' || C == 'E' || C == 'f' || C == 'F' || C == 'g' ||
                C == 'G',
            "unsupported printf conversion");
  const bool Uppercase = C == 'E' || C == 'F' || C == 'G';
  const bool Fixed = C == 'f' || C == 'F';
  const bool General = C == 'g' || C == 'G';
  const int Precision = Spec.Precision < 0 ? 6 : Spec.Precision;
  const char Sign = signBit(Value) ? '-'
                    : Spec.ForceSign ? '+'
                    : Spec.SpaceSign ? ' '
                                     : '\0';

  const FpClass Class = classify(Value);
  if (Class == FpClass::NaN || Class == FpClass::Infinity) {
    // glibc prints the sign of a NaN as well.
    const char *Text = Class == FpClass::NaN ? (Uppercase ? "NAN" : "nan")
                                             : (Uppercase ? "INF" : "inf");
    emitPadded(Out, Sign, Spec, /*AllowZeroPad=*/false,
               [Text](auto &Body) { Body.literal(Text); });
    return;
  }

  // %f stops at position -Precision; %e asks for Precision + 1
  // significant digits and %g for max(Precision, 1).
  const int Significant = General ? std::max(Precision, 1) : Precision + 1;
  static constexpr uint8_t ZeroDigit[] = {0};
  std::span<const uint8_t> Digits(ZeroDigit);
  int K = 1;
  int TrailingZeros = Fixed ? Precision : Significant - 1;
  DigitString D;
  if (Class != FpClass::Zero) {
    D = Fixed ? straightforwardDigitsAbsolute(Value, -Precision, 10,
                                              TieBreak::RoundEven)
              : straightforwardDigits(Value, Significant, 10,
                                      TieBreak::RoundEven);
    Digits = D.Digits;
    K = D.K;
    TrailingZeros = 0;
  }

  bool Scientific = !Fixed;
  if (General) {
    Scientific = K - 1 < -4 || K - 1 >= Significant;
    if (!Spec.Alternate) {
      TrailingZeros = 0;
      while (Digits.size() > 1 && Digits.back() == 0)
        Digits = Digits.first(Digits.size() - 1);
    }
  }

  RenderOptions Render;
  Render.ExponentMarker = Uppercase ? 'E' : 'e';
  Render.MarkChar = '0';
  const render_detail::SpanDigits Source(Digits, TrailingZeros, Render);
  emitPadded(Out, Sign, Spec, /*AllowZeroPad=*/true, [&](auto &Body) {
    if (Scientific)
      render_detail::layoutScientific(Body, Source, K, /*Negative=*/false,
                                      Render, Spec.Alternate,
                                      /*MinExponentDigits=*/2);
    else
      render_detail::layoutPositional(Body, Source, K, /*Negative=*/false,
                                      Spec.Alternate);
  });
}

/// Reads a decimal width or precision field.  A field past INT_MAX is
/// malformed, as C printf fails there too (EOVERFLOW).
int parseField(const char *&P) {
  int Value = 0;
  while (*P >= '0' && *P <= '9') {
    const int Digit = *P++ - '0';
    D4_ASSERT(Value <= (INT_MAX - Digit) / 10,
              "malformed printf specification");
    Value = Value * 10 + Digit;
  }
  return Value;
}

PrintfSpec parseSpec(const char *Spec) {
  D4_ASSERT(Spec && *Spec, "empty printf specification");
  PrintfSpec Parsed;
  const char *P = Spec;
  if (*P == '%')
    ++P;
  for (;; ++P) {
    if (*P == '-')
      Parsed.LeftJustify = true;
    else if (*P == '+')
      Parsed.ForceSign = true;
    else if (*P == ' ')
      Parsed.SpaceSign = true;
    else if (*P == '0')
      Parsed.ZeroPad = true;
    else if (*P == '#')
      Parsed.Alternate = true;
    else
      break;
  }
  Parsed.Width = parseField(P);
  if (*P == '.') {
    ++P;
    Parsed.Precision = parseField(P);
  }
  D4_ASSERT(*P && P[1] == '\0', "malformed printf specification");
  Parsed.Conversion = *P;
  return Parsed;
}

} // namespace

namespace dragon4 {

template <typename T>
std::string formatPrintf(T Value, const PrintfSpec &Spec) {
  StringSink Out;
  printfInto(Out, Value, Spec);
  return std::move(Out.Out);
}

template <typename T> std::string formatPrintf(T Value, const char *Spec) {
  return formatPrintf(Value, parseSpec(Spec));
}

template <typename T>
size_t formatPrintf(T Value, const PrintfSpec &Spec, char *Buffer,
                    size_t BufferSize) {
  BufferSink Out(Buffer, BufferSize);
  printfInto(Out, Value, Spec);
  return Out.required();
}

template <typename T>
size_t formatPrintf(T Value, const char *Spec, char *Buffer,
                    size_t BufferSize) {
  return formatPrintf(Value, parseSpec(Spec), Buffer, BufferSize);
}

template std::string formatPrintf<Binary16>(Binary16, const PrintfSpec &);
template std::string formatPrintf<float>(float, const PrintfSpec &);
template std::string formatPrintf<double>(double, const PrintfSpec &);
template std::string formatPrintf<long double>(long double,
                                               const PrintfSpec &);
template std::string formatPrintf<Binary128>(Binary128, const PrintfSpec &);

template std::string formatPrintf<Binary16>(Binary16, const char *);
template std::string formatPrintf<float>(float, const char *);
template std::string formatPrintf<double>(double, const char *);
template std::string formatPrintf<long double>(long double, const char *);
template std::string formatPrintf<Binary128>(Binary128, const char *);

template size_t formatPrintf<Binary16>(Binary16, const PrintfSpec &, char *,
                                       size_t);
template size_t formatPrintf<float>(float, const PrintfSpec &, char *,
                                    size_t);
template size_t formatPrintf<double>(double, const PrintfSpec &, char *,
                                     size_t);
template size_t formatPrintf<long double>(long double, const PrintfSpec &,
                                          char *, size_t);
template size_t formatPrintf<Binary128>(Binary128, const PrintfSpec &, char *,
                                        size_t);

template size_t formatPrintf<Binary16>(Binary16, const char *, char *,
                                       size_t);
template size_t formatPrintf<float>(float, const char *, char *, size_t);
template size_t formatPrintf<double>(double, const char *, char *, size_t);
template size_t formatPrintf<long double>(long double, const char *, char *,
                                          size_t);
template size_t formatPrintf<Binary128>(Binary128, const char *, char *,
                                        size_t);

} // namespace dragon4
