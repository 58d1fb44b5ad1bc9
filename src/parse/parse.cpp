//===- parse/parse.cpp - Fast decimal -> binary parser ----------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// parseFloat implementation: a single-pass decimal scanner feeding the
/// Eisel-Lemire core, with an exact halfway comparison as the certified
/// binary32/64 fallback.
///
/// The scanner accumulates at most the first 19 significant digits into a
/// uint64 (so w < 10^19 and the decisive zero/infinity exponent clamps in
/// eisel_lemire.h hold).  When more digits exist, the dropped ones only
/// shift the decimal exponent -- unless one of them is non-zero, in which
/// case the true value lies strictly between w*10^q and (w+1)*10^q.  Both
/// brackets are run through the core; if they round to the same encoding,
/// monotonicity of rounding makes that encoding correct for everything in
/// between.  Only when they disagree -- the provably undecidable residue
/// -- does resolveHalfway (halfway.h) compare the whole literal with the
/// halfway point between the two encodings, on the stack.  The other
/// formats have no fast path and take the exact bignum reader.
///
//===----------------------------------------------------------------------===//

#include "parse/parse.h"

#include "engine/scratch.h"
#include "engine/stats.h"
#include "fp/format_traits.h"
#include "fp/ieee_traits.h"
#include "parse/eisel_lemire.h"
#include "parse/halfway.h"
#include "reader/reader.h"
#include "support/checks.h"

namespace dragon4::parse {

namespace {

/// Scanner output: the literal reduced to sign * W * 10^Q plus the
/// truncation and special-class facts the conversion step needs.
struct DecimalScan {
  uint64_t W = 0;
  int64_t Q = 0;
  bool Negative = false;
  bool Truncated = false; ///< Non-zero digits were dropped past 19.
  size_t TailBegin = 0;   ///< Offset of the 20th significant digit.
  bool IsInfinity = false;
  bool IsNaN = false;
  size_t Consumed = 0;
};

constexpr int MaxFastDigits = 19; ///< 10^19 > 2^63: last width safe in u64.

/// Exponents past this never change the outcome for any format we
/// support; clamping keeps the Q arithmetic overflow-free while agreeing
/// with the exact reader's own clamp.
constexpr int64_t ExponentClamp = 1000000000;

bool asciiPrefixCaseEq(std::string_view Text, size_t Pos,
                       std::string_view Lower) {
  if (Text.size() - Pos < Lower.size())
    return false;
  for (size_t I = 0; I < Lower.size(); ++I)
    if ((Text[Pos + I] | 0x20) != Lower[I])
      return false;
  return true;
}

/// Longest-valid-prefix scan.  Returns false (Consumed untouched at 0)
/// when no literal starts at the beginning of \p Text.
bool scanDecimal(std::string_view Text, DecimalScan &Scan) {
  size_t I = 0;
  const size_t N = Text.size();
  if (I < N && (Text[I] == '+' || Text[I] == '-')) {
    Scan.Negative = Text[I] == '-';
    ++I;
  }

  if (asciiPrefixCaseEq(Text, I, "inf")) {
    Scan.IsInfinity = true;
    Scan.Consumed = I + (asciiPrefixCaseEq(Text, I, "infinity") ? 8 : 3);
    return true;
  }
  if (asciiPrefixCaseEq(Text, I, "nan")) {
    Scan.IsNaN = true;
    Scan.Consumed = I + 3;
    return true;
  }

  uint64_t W = 0;
  int SigDigits = 0;       // Digits accumulated into W.
  int64_t DroppedDigits = 0; // Digits past MaxFastDigits (zero or not).
  int64_t FracDigits = 0;  // Digits after the point (leading zeros too).
  bool SawDigit = false;
  bool SawPoint = false;
  bool Truncated = false;
  for (; I < N; ++I) {
    char C = Text[I];
    if (C == '.') {
      if (SawPoint)
        break;
      SawPoint = true;
      continue;
    }
    if (C < '0' || C > '9')
      break;
    SawDigit = true;
    if (SawPoint)
      ++FracDigits;
    if (SigDigits == 0 && C == '0')
      continue; // Leading zeros carry no information.
    if (SigDigits < MaxFastDigits) {
      W = W * 10 + static_cast<uint64_t>(C - '0');
      ++SigDigits;
    } else {
      if (DroppedDigits == 0)
        Scan.TailBegin = I;
      ++DroppedDigits;
      if (C != '0')
        Truncated = true;
    }
  }
  if (!SawDigit)
    return false; // ".", "+", "e5", "" ... no literal at all.

  int64_t ExplicitExp = 0;
  if (I < N && (Text[I] | 0x20) == 'e') {
    size_t Mark = I++;
    bool ExpNegative = false;
    if (I < N && (Text[I] == '+' || Text[I] == '-')) {
      ExpNegative = Text[I] == '-';
      ++I;
    }
    if (I >= N || Text[I] < '0' || Text[I] > '9') {
      I = Mark; // "1e", "1e+": the exponent marker is not part of it.
    } else {
      for (; I < N && Text[I] >= '0' && Text[I] <= '9'; ++I)
        if (ExplicitExp < ExponentClamp)
          ExplicitExp = ExplicitExp * 10 + (Text[I] - '0');
      if (ExpNegative)
        ExplicitExp = -ExplicitExp;
    }
  }

  Scan.W = W;
  Scan.Q = ExplicitExp - FracDigits + DroppedDigits;
  Scan.Truncated = Truncated;
  Scan.Consumed = I;
  return true;
}

/// Per-format composition of special encodings.  Only the formats with a
/// fast path need this; the others reach specials through readFloat.
template <typename T> struct SpecialBits {
  using Traits = IeeeTraits<T>;
  using Bits = typename Traits::Bits;
  static constexpr Bits SignBit =
      Bits(1) << (Traits::StoredBits + Traits::ExponentBitCount);
  static T zero(bool Negative) {
    return Traits::fromBits(Negative ? SignBit : Bits(0));
  }
  static T infinity(bool Negative) {
    Bits B = Bits(ElParams<T>::InfinitePower) << Traits::StoredBits;
    return Traits::fromBits(Negative ? (B | SignBit) : B);
  }
  static T quietNaN(bool Negative) {
    Bits B = (Bits(ElParams<T>::InfinitePower) << Traits::StoredBits) |
             (Bits(1) << (Traits::StoredBits - 1));
    return Traits::fromBits(Negative ? (B | SignBit) : B);
  }
  static T compose(bool Negative, const AdjustedMantissa &Am) {
    Bits B = static_cast<Bits>(Am.Mantissa) |
             (static_cast<Bits>(Am.Power2) << Traits::StoredBits);
    return Traits::fromBits(Negative ? (B | SignBit) : B);
  }
};

template <typename T> struct HasFastPath : std::false_type {};
template <> struct HasFastPath<double> : std::true_type {};
template <> struct HasFastPath<float> : std::true_type {};

void charge(engine::EngineStats *Stats, uint64_t engine::EngineStats::*Member) {
  if (Stats)
    ++(Stats->*Member);
}

/// The non-hardware formats' path: the scanned literal is by construction
/// inside readFloat's (whole-string) grammar, so the exact reader must
/// accept it.
template <typename T>
void fallbackExact(std::string_view Literal, ParseResult<T> &Result,
                   engine::EngineStats *Stats) {
  std::optional<T> Exact = readFloat<T>(Literal);
  D4_ASSERT(Exact.has_value(),
            "scanned literal rejected by the exact reader");
  Result.Value = *Exact;
  Result.Path = ParsePath::ExactFallback;
  charge(Stats, &engine::EngineStats::FastParseFallbacks);
}

template <typename T>
ParseResult<T> parseFloatImpl(std::string_view Text,
                              engine::EngineStats *Stats) {
  ParseResult<T> Result;
  DecimalScan Scan;
  if (!scanDecimal(Text, Scan)) {
    charge(Stats, &engine::EngineStats::FastParseRejected);
    return Result;
  }
  Result.Status = ParseStatus::Ok;
  Result.Consumed = Scan.Consumed;

  if constexpr (HasFastPath<T>::value) {
    if (Scan.IsNaN) {
      Result.Value = SpecialBits<T>::quietNaN(Scan.Negative);
      Result.Path = ParsePath::Special;
      charge(Stats, &engine::EngineStats::FastParseHits);
      return Result;
    }
    if (Scan.IsInfinity) {
      Result.Value = SpecialBits<T>::infinity(Scan.Negative);
      Result.Path = ParsePath::Special;
      charge(Stats, &engine::EngineStats::FastParseHits);
      return Result;
    }
    if (Scan.W == 0) { // All-zero digits; never flagged truncated.
      Result.Value = SpecialBits<T>::zero(Scan.Negative);
      Result.Path = ParsePath::Special;
      charge(Stats, &engine::EngineStats::FastParseHits);
      return Result;
    }
    AdjustedMantissa Am = eiselLemire<T>(Scan.Q, Scan.W);
    if (Scan.Truncated) {
      // The true value is in (W*10^Q, (W+1)*10^Q).  Rounding is monotone,
      // so identical endpoint encodings decide the whole interval.
      AdjustedMantissa Upper = eiselLemire<T>(Scan.Q, Scan.W + 1);
      if (!(Am == Upper)) {
        // A halfway point lies in the bracket: the exact comparison of
        // the whole literal with it picks Am or its successor.
        Am = resolveHalfway<T>(
            Scan.W, Text.substr(Scan.TailBegin, Scan.Consumed - Scan.TailBegin),
            Scan.Q, Am);
        Result.Value = SpecialBits<T>::compose(Scan.Negative, Am);
        Result.Path = ParsePath::ExactFallback;
        charge(Stats, &engine::EngineStats::FastParseFallbacks);
        return Result;
      }
    }
    Result.Value = SpecialBits<T>::compose(Scan.Negative, Am);
    Result.Path = ParsePath::Fast;
    charge(Stats, &engine::EngineStats::FastParseHits);
    return Result;
  } else {
    // Non-hardware formats: no certified Eisel-Lemire parameters yet, so
    // the whole literal (specials included) takes the exact reader.
    fallbackExact(Text.substr(0, Scan.Consumed), Result, Stats);
    return Result;
  }
}

} // namespace

template <typename T>
ParseResult<T> parseFloat(std::string_view Text, engine::EngineStats *Stats) {
  return parseFloatImpl<T>(Text, Stats);
}

template ParseResult<double> parseFloat<double>(std::string_view,
                                                engine::EngineStats *);
template ParseResult<float> parseFloat<float>(std::string_view,
                                              engine::EngineStats *);
template ParseResult<Binary16> parseFloat<Binary16>(std::string_view,
                                                    engine::EngineStats *);
template ParseResult<long double>
parseFloat<long double>(std::string_view, engine::EngineStats *);
template ParseResult<Binary128> parseFloat<Binary128>(std::string_view,
                                                      engine::EngineStats *);

template <typename T>
ParseResult<T> parseFloat(std::string_view Text, engine::Scratch &S) {
#if DRAGON4_OBS_ENABLED
  obs::ObsState &Obs = S.obsState();
  if (Obs.tick()) {
    uint64_t StartNs = obs::nowNanos();
    ParseResult<T> Result = parseFloatImpl<T>(Text, &S.counters());
    uint64_t LatencyNs = obs::nowNanos() - StartNs;
    Obs.Reg.recordPathLatency(FormatTraits<T>::Id, obs::PathClass::Parse,
                              LatencyNs);
    if (Result.ok()) {
      // Parse-side exemplar: the resulting encoding is the replayable
      // identity (the parse oracle round-trips it back through the
      // reader); digit count approximates input length, OptionsBase 0
      // marks the parse direction.
      obs::exemplar::ExemplarRecord Ex;
      FormatTraits<T>::encodingBits(Result.Value, Ex.BitsLo, Ex.BitsHi);
      Ex.LatencyNanos = LatencyNs;
      Ex.TimestampNanos = StartNs + LatencyNs;
      Ex.DigitsEmitted = static_cast<uint32_t>(Result.Consumed);
      Ex.Fmt = FormatTraits<T>::Id;
      Ex.PathC = obs::PathClass::Parse;
      Ex.OptionsBase = 0;
      Obs.Exemplars.consider(Ex, obs::exemplar::TailMarginBuckets);
    }
    return Result;
  }
#endif
  return parseFloatImpl<T>(Text, &S.counters());
}

template ParseResult<double> parseFloat<double>(std::string_view,
                                                engine::Scratch &);
template ParseResult<float> parseFloat<float>(std::string_view,
                                              engine::Scratch &);
template ParseResult<Binary16> parseFloat<Binary16>(std::string_view,
                                                    engine::Scratch &);
template ParseResult<long double> parseFloat<long double>(std::string_view,
                                                          engine::Scratch &);
template ParseResult<Binary128> parseFloat<Binary128>(std::string_view,
                                                      engine::Scratch &);

} // namespace dragon4::parse
