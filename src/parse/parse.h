//===- parse/parse.h - Fast decimal -> binary parser -------------*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The production read side of the engine: parse::parseFloat<T> is a
/// locale-free, correctly rounded (nearest-even) decimal parser.
/// binary32/64 run the Eisel-Lemire fast path (eisel_lemire.h); the
/// literals it provably cannot decide -- decimal significands truncated
/// past 19 digits whose bracketing values round differently -- are
/// settled by one exact comparison with the halfway point between the
/// two candidate encodings (halfway.h).  Both rungs work on the stack, so
/// binary32/64 parsing allocates nothing at any literal length.  The
/// non-hardware formats (Binary16, x87 extended, Binary128) take the
/// exact bignum reader (reader/readFloat), which may allocate.  Every
/// outcome is correctly rounded by construction.
///
/// Unlike readFloat (verification-side, whole-string, throws nothing
/// away), parseFloat consumes the longest valid literal prefix and
/// reports how many bytes it took, the strtod shape production parsers
/// need.  Grammar (no locale, no whitespace skip, no hex):
///
///   [+-]? ( digits [. digits?]? | . digits | digits? . digits )
///         ( [eE] [+-]? digits )?
///   [+-]? inf | infinity | nan        (ASCII case-insensitive)
///
/// Every call reports its outcome -- FastParseHits / FastParseFallbacks /
/// FastParseRejected -- through the optional EngineStats block, the same
/// counters the obs snapshot exports, so the fallback rate is measured,
/// never assumed.
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_PARSE_PARSE_H
#define DRAGON4_PARSE_PARSE_H

#include "fp/binary128.h"
#include "fp/binary16.h"

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace dragon4::engine {
struct EngineStats;
class Scratch;
} // namespace dragon4::engine

namespace dragon4::parse {

enum class ParseStatus : uint8_t {
  Ok,        ///< A literal was parsed; Consumed covers it.
  Malformed, ///< No valid literal prefix; Value is +0, Consumed is 0.
};

/// Which mechanism produced the value (observability; correctness is
/// identical across paths).
enum class ParsePath : uint8_t {
  None,          ///< Malformed input -- no conversion ran.
  Fast,          ///< The Eisel-Lemire product was decisive.
  ExactFallback, ///< binary32/64: the exact halfway comparison decided;
                 ///< other formats: the exact bignum reader.
  Special,       ///< Zero / infinity / NaN literal; no arithmetic needed.
};

template <typename T> struct ParseResult {
  T Value{};
  ParseStatus Status = ParseStatus::Malformed;
  ParsePath Path = ParsePath::None;
  size_t Consumed = 0;

  bool ok() const { return Status == ParseStatus::Ok; }
};

/// Parses the longest valid literal prefix of \p Text.  When \p Stats is
/// non-null the outcome is charged to its fast-parse counters (pass
/// engine::Scratch::counters() to route them through the normal per-worker
/// merge).  Instantiated for double, float, Binary16, long double, and
/// Binary128; only the first two have a fast path today.
template <typename T>
ParseResult<T> parseFloat(std::string_view Text,
                          engine::EngineStats *Stats = nullptr);

extern template ParseResult<double> parseFloat<double>(std::string_view,
                                                       engine::EngineStats *);
extern template ParseResult<float> parseFloat<float>(std::string_view,
                                                     engine::EngineStats *);
extern template ParseResult<Binary16>
parseFloat<Binary16>(std::string_view, engine::EngineStats *);
extern template ParseResult<long double>
parseFloat<long double>(std::string_view, engine::EngineStats *);
extern template ParseResult<Binary128>
parseFloat<Binary128>(std::string_view, engine::EngineStats *);

/// Scratch-routed variant: charges the outcome counters to \p S and, when
/// this parse wins the Scratch's obs sampling draw, records its wall-clock
/// ns into the per-format latency grid under path="parse".  This is the
/// overload service front-ends should call; the EngineStats* one stays for
/// callers with no obs shard.
template <typename T>
ParseResult<T> parseFloat(std::string_view Text, engine::Scratch &S);

extern template ParseResult<double> parseFloat<double>(std::string_view,
                                                       engine::Scratch &);
extern template ParseResult<float> parseFloat<float>(std::string_view,
                                                     engine::Scratch &);
extern template ParseResult<Binary16> parseFloat<Binary16>(std::string_view,
                                                           engine::Scratch &);
extern template ParseResult<long double>
parseFloat<long double>(std::string_view, engine::Scratch &);
extern template ParseResult<Binary128>
parseFloat<Binary128>(std::string_view, engine::Scratch &);

} // namespace dragon4::parse

#endif // DRAGON4_PARSE_PARSE_H
