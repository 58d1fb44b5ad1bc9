//===- format/printf_compat.h - printf-style formatting ----------*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A printf-compatible formatting front end over the exact conversion
/// machinery: the %e/%E, %f/%F, and %g/%G conversions with precision,
/// width, and the -, +, space, 0, and # flags, producing byte-identical
/// output to a correctly rounded C library (glibc) for every finite
/// value and every precision -- including precisions beyond the value's
/// information, where the *true decimal expansion* digits are printed
/// (printf semantics), not the #-marked Section 4 output.
///
/// This exists for two reasons: downstream users get a drop-in formatter
/// with no locale or buffer-size pitfalls, and the test suite gets a
/// byte-level cross-validation oracle against the C library.
///
/// The formatter is one format-generic template, explicitly instantiated
/// for all five supported formats; the C library can only cross-check the
/// hardware types, but the software formats flow through the identical
/// code.  Its digits come from the traits-driven exact generator of
/// baselines/fixed17.h; its layout is render_core's layoutPositional /
/// layoutScientific over a digit span -- the rules every other surface
/// uses -- written straight into the caller's sink.  printf adds only what
/// C requires: the sign and flags, the two-digit exponent, the '#' point
/// and the %g zero trim.  Field width is measured with a CountingSink.
/// Unlike toFixed/toPrecision/toExponential it does not run on the
/// engine's Scratch.
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_FORMAT_PRINTF_COMPAT_H
#define DRAGON4_FORMAT_PRINTF_COMPAT_H

#include "fp/binary128.h"
#include "fp/binary16.h"
#include "fp/extended80.h"

#include <string>

namespace dragon4 {

/// Parsed printf conversion specification (the part after '%').
struct PrintfSpec {
  char Conversion = 'g';   ///< One of e, E, f, F, g, G.
  int Precision = -1;      ///< -1 means "not given" (defaults to 6).
  int Width = 0;           ///< Minimum field width.
  bool LeftJustify = false;   ///< '-'
  bool ForceSign = false;     ///< '+'
  bool SpaceSign = false;     ///< ' '
  bool ZeroPad = false;       ///< '0'
  bool Alternate = false;     ///< '#' (keep the point; keep %g zeros)
};

/// Formats \p Value per \p Spec.  Handles NaN/infinity/signed zero with C
/// semantics ("inf"/"nan", upper-cased for E/F/G).
template <typename T>
std::string formatPrintf(T Value, const PrintfSpec &Spec);

/// Parses a specification string like "%.17e" or "%+012.3f" (the leading
/// '%' is optional) and formats.  Asserts on malformed specifications --
/// this is a programmer-supplied format, not untrusted input.
template <typename T> std::string formatPrintf(T Value, const char *Spec);

/// Caller-buffer surface: snprintf semantics minus the NUL.  Writes at
/// most \p BufferSize bytes at \p Buffer and returns the full required
/// length (a return greater than BufferSize means the output was
/// truncated; the written prefix is the first BufferSize characters).
/// Byte-identical to the std::string overloads by construction: both are
/// sink instantiations of one emitter (see format/sink.h).
template <typename T>
size_t formatPrintf(T Value, const PrintfSpec &Spec, char *Buffer,
                    size_t BufferSize);

/// Spec-string counterpart of the caller-buffer surface.
template <typename T>
size_t formatPrintf(T Value, const char *Spec, char *Buffer,
                    size_t BufferSize);

extern template std::string formatPrintf<Binary16>(Binary16,
                                                   const PrintfSpec &);
extern template std::string formatPrintf<float>(float, const PrintfSpec &);
extern template std::string formatPrintf<double>(double, const PrintfSpec &);
extern template std::string formatPrintf<long double>(long double,
                                                      const PrintfSpec &);
extern template std::string formatPrintf<Binary128>(Binary128,
                                                    const PrintfSpec &);

extern template std::string formatPrintf<Binary16>(Binary16, const char *);
extern template std::string formatPrintf<float>(float, const char *);
extern template std::string formatPrintf<double>(double, const char *);
extern template std::string formatPrintf<long double>(long double,
                                                      const char *);
extern template std::string formatPrintf<Binary128>(Binary128, const char *);

extern template size_t formatPrintf<Binary16>(Binary16, const PrintfSpec &,
                                              char *, size_t);
extern template size_t formatPrintf<float>(float, const PrintfSpec &, char *,
                                           size_t);
extern template size_t formatPrintf<double>(double, const PrintfSpec &,
                                            char *, size_t);
extern template size_t formatPrintf<long double>(long double,
                                                 const PrintfSpec &, char *,
                                                 size_t);
extern template size_t formatPrintf<Binary128>(Binary128, const PrintfSpec &,
                                               char *, size_t);

extern template size_t formatPrintf<Binary16>(Binary16, const char *, char *,
                                              size_t);
extern template size_t formatPrintf<float>(float, const char *, char *,
                                           size_t);
extern template size_t formatPrintf<double>(double, const char *, char *,
                                            size_t);
extern template size_t formatPrintf<long double>(long double, const char *,
                                                 char *, size_t);
extern template size_t formatPrintf<Binary128>(Binary128, const char *,
                                               char *, size_t);

} // namespace dragon4

#endif // DRAGON4_FORMAT_PRINTF_COMPAT_H
