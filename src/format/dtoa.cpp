//===- format/dtoa.cpp - Convenience printing API ----------------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "format/dtoa.h"

#include "engine/engine.h"

using namespace dragon4;

namespace {

/// One fixed-format request on the calling thread's Scratch.
template <typename T>
std::string fixedString(T Value, const engine::FixedRequest &Request,
                        const PrintOptions &Options) {
  StringSink Out;
  engine::formatFixedInto(Value, Request, Options, engine::threadScratch(),
                          Out);
  return std::move(Out.Out);
}

} // namespace

// Every function here is an engine conversion over a StringSink, on the
// calling thread's Scratch: one ladder, one set of bytes, for the
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
  return fixedString(Value, {.Count = FractionDigits}, Options);
}

template <typename T>
std::string dragon4::toPrecision(T Value, int SignificantDigits,
                                 const PrintOptions &Options) {
  return fixedString(Value,
                     {.Significant = true,
                      .Count = SignificantDigits,
                      .Notation = engine::FixedNotation::Auto},
                     Options);
}

template <typename T>
std::string dragon4::toExponential(T Value, int FractionDigits,
                                   const PrintOptions &Options) {
  return fixedString(Value,
                     {.Significant = true,
                      .Count = FractionDigits + 1,
                      .Notation = engine::FixedNotation::Scientific},
                     Options);
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
