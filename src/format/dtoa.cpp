//===- format/dtoa.cpp - Convenience printing API ----------------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "format/dtoa.h"

#include "engine/engine.h"
#include "format/option_maps.h"
#include "support/checks.h"

using namespace dragon4;

namespace {

/// Handles NaN / infinity / zero.  Returns true (with Out filled in) when
/// \p Value was special.  ZeroText is format-specific ("0", "0.00", ...).
template <typename T>
bool renderSpecial(T Value, const std::string &ZeroText, std::string &Out) {
  switch (classify(Value)) {
  case FpClass::NaN:
    Out = "nan";
    return true;
  case FpClass::Infinity:
    Out = signBit(Value) ? "-inf" : "inf";
    return true;
  case FpClass::Zero:
    Out = signBit(Value) ? "-" + ZeroText : ZeroText;
    return true;
  case FpClass::Normal:
  case FpClass::Subnormal:
    return false;
  }
  return false;
}

} // namespace

// toShortest and toFixed are the engine's conversions over a StringSink,
// on the calling thread's Scratch: one ladder, one set of bytes, for the
// string, buffer, stream, batch and C surfaces alike.
template <typename T>
std::string dragon4::toShortest(T Value, const PrintOptions &Options) {
  StringSink Out;
  engine::formatInto(Value, Options, engine::threadScratch(), Out);
  return std::move(Out.Out);
}

template <typename T>
std::string dragon4::toFixed(T Value, int FractionDigits,
                             const PrintOptions &Options) {
  StringSink Out;
  engine::formatFixedInto(Value, FractionDigits, Options,
                          engine::threadScratch(), Out);
  return std::move(Out.Out);
}

template <typename T>
std::string dragon4::toPrecision(T Value, int SignificantDigits,
                                 const PrintOptions &Options) {
  D4_ASSERT(SignificantDigits >= 1, "need at least one significant digit");
  std::string Zero = "0";
  if (SignificantDigits > 1) {
    Zero.push_back('.');
    Zero.append(static_cast<size_t>(SignificantDigits - 1), '0');
  }
  std::string Special;
  if (renderSpecial(Value, Zero, Special))
    return Special;
  DigitString Digits =
      fixedDigitsRelative(Value, SignificantDigits, fixedOptionsFrom(Options));
  return renderAuto(Digits, signBit(Value), renderOptionsFrom(Options));
}

template <typename T>
std::string dragon4::toExponential(T Value, int FractionDigits,
                                   const PrintOptions &Options) {
  D4_ASSERT(FractionDigits >= 0, "negative fraction-digit count");
  std::string Zero = "0";
  if (FractionDigits > 0) {
    Zero.push_back('.');
    Zero.append(static_cast<size_t>(FractionDigits), '0');
  }
  Zero.push_back(Options.ExponentMarker);
  Zero.append("+0");
  std::string Special;
  if (renderSpecial(Value, Zero, Special))
    return Special;
  DigitString Digits =
      fixedDigitsRelative(Value, FractionDigits + 1, fixedOptionsFrom(Options));
  return renderScientific(Digits, signBit(Value), renderOptionsFrom(Options));
}

// Explicit instantiations for the supported formats.
template std::string dragon4::toShortest<double>(double, const PrintOptions &);
template std::string dragon4::toShortest<float>(float, const PrintOptions &);
template std::string dragon4::toShortest<Binary16>(Binary16,
                                                   const PrintOptions &);
template std::string dragon4::toShortest<long double>(long double,
                                                      const PrintOptions &);
template std::string dragon4::toFixed<double>(double, int,
                                              const PrintOptions &);
template std::string dragon4::toFixed<float>(float, int, const PrintOptions &);
template std::string dragon4::toFixed<Binary16>(Binary16, int,
                                                const PrintOptions &);
template std::string dragon4::toFixed<long double>(long double, int,
                                                   const PrintOptions &);
template std::string dragon4::toPrecision<double>(double, int,
                                                  const PrintOptions &);
template std::string dragon4::toPrecision<float>(float, int,
                                                 const PrintOptions &);
template std::string dragon4::toPrecision<Binary16>(Binary16, int,
                                                    const PrintOptions &);
template std::string dragon4::toPrecision<long double>(long double, int,
                                                       const PrintOptions &);
template std::string dragon4::toExponential<double>(double, int,
                                                    const PrintOptions &);
template std::string dragon4::toExponential<float>(float, int,
                                                   const PrintOptions &);
template std::string dragon4::toExponential<Binary16>(Binary16, int,
                                                      const PrintOptions &);
template std::string dragon4::toExponential<long double>(long double, int,
                                                         const PrintOptions &);
template std::string dragon4::toShortest<Binary128>(Binary128,
                                                    const PrintOptions &);
template std::string dragon4::toFixed<Binary128>(Binary128, int,
                                                 const PrintOptions &);
template std::string dragon4::toPrecision<Binary128>(Binary128, int,
                                                     const PrintOptions &);
template std::string dragon4::toExponential<Binary128>(Binary128, int,
                                                       const PrintOptions &);
