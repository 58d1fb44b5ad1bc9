//===- format/dtoa.h - Convenience printing API -------------------*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one-call public API most users want: value in, string out.  Each
/// function is an engine conversion over a StringSink on the calling
/// thread's engine::threadScratch(): toShortest is engine::formatInto,
/// and toFixed, toPrecision and toExponential are formatFixedInto with
/// their digit request and notation.  The engine screens the special
/// values (zero, infinities, NaN), runs the conversion with its BigInt
/// limbs on the Scratch's arena, and renders the digits, so these
/// functions share every byte and every counter with the buffer and C
/// APIs.
///
///   toShortest(0.3)            == "0.3"          (not "0.29999999999999999")
///   toFixed(1.0/3, 10)         == "0.3333333333"
///   toPrecision(1.0f/3, 10)    == "0.3333333###" (float runs out of bits)
///   toExponential(1e23, 3)     == "1.000e+23"
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_FORMAT_DTOA_H
#define DRAGON4_FORMAT_DTOA_H

#include "core/options.h"
#include "fp/binary128.h"
#include "fp/binary16.h"
#include "fp/extended80.h"

#include <string>

namespace dragon4 {

/// How insignificant trailing positions are rendered.
enum class MarkStyle : uint8_t {
  Hash,  ///< The paper's '#' marks (honest about lost precision).
  Zeros, ///< Plain zeros, for printf-compatible consumers.
};

/// Options shared by the convenience printers.
struct PrintOptions {
  unsigned Base = 10;                  ///< Output base, 2-36.
  BoundaryMode Boundaries = BoundaryMode::NearestEven; ///< Reader model.
  TieBreak Ties = TieBreak::RoundUp;   ///< Halfway-case strategy.
  ScalingAlgorithm Scaling = ScalingAlgorithm::Estimate; ///< Scaling knob.
  MarkStyle Marks = MarkStyle::Hash;   ///< '#' or zeros.
  char ExponentMarker = 'e';           ///< Scientific-notation marker.
  bool UppercaseDigits = false;        ///< 'A'-'Z' for digits above 9.
};

/// Shortest string that reads back as exactly \p Value, rendered
/// positionally or scientifically depending on magnitude (%g-style).
template <typename T>
std::string toShortest(T Value, const PrintOptions &Options = {});

/// Correctly rounded positional rendering with exactly \p FractionDigits
/// positions after the radix point (absolute digit position
/// -FractionDigits).  Positions beyond the value's precision render as
/// marks.
template <typename T>
std::string toFixed(T Value, int FractionDigits,
                    const PrintOptions &Options = {});

/// Correctly rounded rendering with \p SignificantDigits total positions
/// (relative digit position), auto-choosing positional or scientific.
template <typename T>
std::string toPrecision(T Value, int SignificantDigits,
                        const PrintOptions &Options = {});

/// Correctly rounded scientific rendering "d.{FractionDigits}e±x".
template <typename T>
std::string toExponential(T Value, int FractionDigits,
                          const PrintOptions &Options = {});

extern template std::string toShortest<double>(double, const PrintOptions &);
extern template std::string toShortest<float>(float, const PrintOptions &);
extern template std::string toShortest<Binary16>(Binary16,
                                                 const PrintOptions &);
extern template std::string toShortest<long double>(long double,
                                                    const PrintOptions &);
extern template std::string toFixed<double>(double, int, const PrintOptions &);
extern template std::string toFixed<float>(float, int, const PrintOptions &);
extern template std::string toFixed<Binary16>(Binary16, int,
                                              const PrintOptions &);
extern template std::string toFixed<long double>(long double, int,
                                                 const PrintOptions &);
extern template std::string toPrecision<double>(double, int,
                                                const PrintOptions &);
extern template std::string toPrecision<float>(float, int,
                                               const PrintOptions &);
extern template std::string toPrecision<Binary16>(Binary16, int,
                                                  const PrintOptions &);
extern template std::string toPrecision<long double>(long double, int,
                                                     const PrintOptions &);
extern template std::string toExponential<double>(double, int,
                                                  const PrintOptions &);
extern template std::string toExponential<float>(float, int,
                                                 const PrintOptions &);
extern template std::string toExponential<Binary16>(Binary16, int,
                                                    const PrintOptions &);
extern template std::string toExponential<long double>(long double, int,
                                                       const PrintOptions &);

extern template std::string toShortest<Binary128>(Binary128,
                                                  const PrintOptions &);
extern template std::string toFixed<Binary128>(Binary128, int,
                                               const PrintOptions &);
extern template std::string toPrecision<Binary128>(Binary128, int,
                                                   const PrintOptions &);
extern template std::string toExponential<Binary128>(Binary128, int,
                                                     const PrintOptions &);

} // namespace dragon4

#endif // DRAGON4_FORMAT_DTOA_H
