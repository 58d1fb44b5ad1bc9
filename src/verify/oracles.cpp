//===- verify/oracles.cpp - Differential verification oracles ---------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Oracle implementations.  Each oracle is written against the public
/// conversion API so it exercises exactly what users run, and each failure
/// produces a one-line detail naming the oracle, the text produced, and
/// the bits involved -- the same line the corpus records as a comment.
///
//===----------------------------------------------------------------------===//

#include "verify/verify.h"

#include "core/free_format.h"
#include "core/reference.h"
#include "engine/engine.h"
#include "format/dtoa.h"
#include "format/render.h"
#include "format/render_core.h"
#include "fp/binary128.h"
#include "fp/binary16.h"
#include "parse/parse.h"
#include "reader/reader.h"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string_view>

using namespace dragon4;
using namespace dragon4::verify;

namespace {

struct OracleName {
  unsigned Bit;
  const char *Name;
};

constexpr OracleName OracleTable[] = {
    {OracleRoundTrip, "roundtrip"}, {OracleShortest, "shortest"},
    {OracleReference, "reference"}, {OracleLibc, "libc"},
    {OracleEngine, "engine"},       {OracleParse, "parse"},
    {OracleStd, "std"},             {OracleCore, "core"},
};

std::string hex(uint64_t Value, int Digits) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%0*" PRIx64, Digits, Value);
  return Buf;
}

/// Per-format bit plumbing: construct the value, read its bits back, and
/// name the encoding width.  Binary128 gets explicit specializations since
/// it does not share the narrow Decomposed/traits path.
template <typename T> struct BitOps {
  using Traits = IeeeTraits<T>;
  static T fromPattern(const BitPattern &Bits) {
    return Traits::fromBits(
        static_cast<typename Traits::Bits>(Bits.Lo));
  }
  static bool sameBits(T L, T R) {
    return Traits::toBits(L) == Traits::toBits(R);
  }
  static T magnitude(T Value) {
    constexpr int TotalBits = Traits::StoredBits + Traits::ExponentBitCount;
    return Traits::fromBits(Traits::toBits(Value) &
                            ~(typename Traits::Bits(1) << TotalBits));
  }
  static std::string showBits(T Value) {
    return "0x" + hex(Traits::toBits(Value), (int)sizeof(typename Traits::Bits) * 2);
  }
};

template <> struct BitOps<Binary128> {
  static Binary128 fromPattern(const BitPattern &Bits) {
    return Binary128::fromBits(Bits.Hi, Bits.Lo);
  }
  static bool sameBits(Binary128 L, Binary128 R) { return L == R; }
  static Binary128 magnitude(Binary128 Value) {
    return Binary128::fromBits(Value.highBits() & ~(uint64_t(1) << 63),
                               Value.lowBits());
  }
  static std::string showBits(Binary128 Value) {
    return "0x" + hex(Value.highBits(), 16) + hex(Value.lowBits(), 16);
  }
};

/// Free-format digit string of |Value| under the default contract
/// (base 10, nearest-even reader, round-up ties).
template <typename T> DigitString defaultShortestDigits(T Value) {
  return shortestDigits(Value, FreeFormatOptions{});
}

/// Reference (Section 2, exact rationals) digit string of |Value| under
/// the same contract.
template <typename T> DigitString referenceShortestDigits(T Value) {
  using Traits = IeeeTraits<T>;
  Decomposed D = decompose(Value);
  return referenceFreeFormat(D.F, D.E, Traits::Precision, Traits::MinExponent,
                             10, BoundaryFlags::resolve(BoundaryMode::NearestEven, D.F),
                             TieBreak::RoundUp);
}

template <> DigitString referenceShortestDigits<Binary128>(Binary128 Value) {
  DecomposedBig D = decomposeBig(Value);
  BoundaryFlags Flags = BoundaryFlags::resolveEven(BoundaryMode::NearestEven,
                                                   D.F.isEven());
  return referenceFreeFormatBig(D.F, D.E, IeeeTraits<Binary128>::Precision,
                                IeeeTraits<Binary128>::MinExponent, 10, Flags,
                                TieBreak::RoundUp);
}

/// Scientific text of a raw digit vector at scale K, in the form the
/// reader accepts (used by the minimality candidates).
std::string digitsToText(const std::vector<uint8_t> &Digits, int K) {
  DigitString D;
  D.Digits = Digits;
  D.K = K;
  return renderScientific(D, /*Negative=*/false, RenderOptions{});
}

template <typename T> bool readsBackTo(const std::string &Text, T Value) {
  auto Back = readFloat<T>(Text);
  return Back.has_value() && BitOps<T>::sameBits(*Back, Value);
}

/// Class/sign-preserving round trip for NaN, infinity, and zero.
template <typename T>
bool checkSpecial(T Value, FpClass Class, std::string &Detail) {
  std::string Text = toShortest(Value);
  auto Back = readFloat<T>(Text);
  if (!Back) {
    Detail = "roundtrip: special \"" + Text + "\" does not parse";
    return false;
  }
  if (classify(*Back) != Class) {
    Detail = "roundtrip: special \"" + Text + "\" reads back as a different class";
    return false;
  }
  // NaN payloads and signs are not preserved by design; everything else is.
  if (Class != FpClass::NaN && signBit(*Back) != signBit(Value)) {
    Detail = "roundtrip: special \"" + Text + "\" loses the sign";
    return false;
  }
  if (Class == FpClass::Zero && !BitOps<T>::sameBits(*Back, Value)) {
    Detail = "roundtrip: zero \"" + Text + "\" reads back as different bits";
    return false;
  }
  return true;
}

template <typename T> bool oracleRoundTrip(T Value, std::string &Detail) {
  std::string Text = toShortest(Value);
  auto Back = readFloat<T>(Text);
  if (!Back) {
    Detail = "roundtrip: \"" + Text + "\" does not parse";
    return false;
  }
  if (!BitOps<T>::sameBits(*Back, Value)) {
    Detail = "roundtrip: \"" + Text + "\" reads back as " +
             BitOps<T>::showBits(*Back) + ", not " + BitOps<T>::showBits(Value);
    return false;
  }
  return true;
}

template <typename T> bool oracleShortest(T Value, std::string &Detail) {
  // Minimality is a property of the magnitude: the digit core ignores the
  // sign and the candidate texts below are unsigned.
  T Magnitude = BitOps<T>::magnitude(Value);
  DigitString D = defaultShortestDigits(Magnitude);
  if (D.Digits.empty() || D.Digits.front() == 0) {
    Detail = "shortest: degenerate digit string \"" + D.digitsAsText() + "\"";
    return false;
  }
  if (!readsBackTo(digitsToText(D.Digits, D.K), Magnitude)) {
    Detail = "shortest: own digits \"" + digitsToText(D.Digits, D.K) +
             "\" do not read back";
    return false;
  }
  if (D.Digits.size() == 1)
    return true; // One digit is trivially minimal (the reader rejects "").

  // The only (n-1)-digit candidates are the truncated prefix and the
  // truncated prefix plus one (with carry); anything else is farther away.
  std::vector<uint8_t> Truncated(D.Digits.begin(), D.Digits.end() - 1);
  if (readsBackTo(digitsToText(Truncated, D.K), Magnitude)) {
    Detail = "shortest: truncation \"" + digitsToText(Truncated, D.K) +
             "\" of \"" + digitsToText(D.Digits, D.K) + "\" still reads back";
    return false;
  }

  std::vector<uint8_t> Bumped = Truncated;
  int I = static_cast<int>(Bumped.size()) - 1;
  for (; I >= 0; --I) {
    if (Bumped[static_cast<size_t>(I)] + 1u < 10u) {
      ++Bumped[static_cast<size_t>(I)];
      break;
    }
    Bumped[static_cast<size_t>(I)] = 0;
  }
  int BumpedK = D.K;
  if (I < 0) { // Full carry: the single digit 1, one scale higher.
    Bumped.assign(1, 1);
    ++BumpedK;
  }
  if (readsBackTo(digitsToText(Bumped, BumpedK), Magnitude)) {
    Detail = "shortest: bumped truncation \"" + digitsToText(Bumped, BumpedK) +
             "\" of \"" + digitsToText(D.Digits, D.K) + "\" still reads back";
    return false;
  }
  return true;
}

/// The digit core against the exact loop, under the default contract.
template <typename T>
bool oracleCore(T Value, DigitCore Core, std::string &Detail) {
  using Traits = IeeeTraits<T>;
  Decomposed D = decompose(Value);
  FreeFormatOptions Options;
  bool AcceptBounds = false;
  const bool Symmetric = ryuEligible(Options.Base, Options.Boundaries,
                                     (D.F & 1) == 0, AcceptBounds);
  D4_ASSERT(Symmetric, "the default contract is symmetric");
  uint64_t Significand = 0;
  int Length = 0;
  DigitString Fast;
  if (!Core(D.F, D.E, Traits::Precision, Traits::MinExponent, AcceptBounds,
            Options.Ties, Significand, Length, Fast.K)) {
    Detail = "core: declined an in-range value " + BitOps<T>::showBits(Value);
    return false;
  }
  render_detail::storeDecimalDigits(Significand, Length, Fast.Digits);
  DigitString Exact = defaultShortestDigits(Value);
  if (!(Fast == Exact)) {
    Detail = "core: digit core \"" + Fast.digitsAsText() + "\" (K=" +
             std::to_string(Fast.K) + ") vs exact loop \"" +
             Exact.digitsAsText() + "\" (K=" + std::to_string(Exact.K) + ")";
    return false;
  }
  return true;
}

template <typename T> bool oracleReference(T Value, std::string &Detail) {
  DigitString Fast = defaultShortestDigits(Value);
  DigitString Ref = referenceShortestDigits(Value);
  if (!(Fast == Ref)) {
    Detail = "reference: fast path \"" + Fast.digitsAsText() + "\" (K=" +
             std::to_string(Fast.K) + ") vs rational oracle \"" +
             Ref.digitsAsText() + "\" (K=" + std::to_string(Ref.K) + ")";
    return false;
  }
  return true;
}

bool oracleLibcRead(double Value, std::string &Detail) {
  std::string Text = toShortest(Value);
  char *End = nullptr;
  double Back = std::strtod(Text.c_str(), &End);
  if (End != Text.c_str() + Text.size() ||
      IeeeTraits<double>::toBits(Back) != IeeeTraits<double>::toBits(Value)) {
    Detail = "libc: strtod(\"" + Text + "\") gives " +
             BitOps<double>::showBits(Back) + ", not " +
             BitOps<double>::showBits(Value);
    return false;
  }
  return true;
}

bool oracleLibcRead(float Value, std::string &Detail) {
  std::string Text = toShortest(Value);
  char *End = nullptr;
  float Back = std::strtof(Text.c_str(), &End);
  if (End != Text.c_str() + Text.size() ||
      IeeeTraits<float>::toBits(Back) != IeeeTraits<float>::toBits(Value)) {
    Detail = "libc: strtof(\"" + Text + "\") gives " +
             BitOps<float>::showBits(Back) + ", not " +
             BitOps<float>::showBits(Value);
    return false;
  }
  return true;
}

/// Significant digits of a decimal rendering: the digits before any
/// exponent, less leading and trailing zeros ("0.00120" -> 2).
size_t significantDigits(std::string_view Text) {
  std::string Digits;
  for (char C : Text.substr(0, Text.find_first_of("eE")))
    if (C >= '0' && C <= '9')
      Digits.push_back(C);
  const size_t First = Digits.find_first_not_of('0');
  if (First == std::string::npos)
    return 0;
  return Digits.find_last_not_of('0') + 1 - First;
}

/// The oracle that shares no code with src/: libstdc++'s reader must take
/// our default shortest output back to the same bits, and libstdc++'s
/// shortest writer must need exactly as many significant digits.
template <typename T> bool oracleStd(T Value, std::string &Detail) {
  std::string Text = toShortest(Value);
  T Back{};
  auto [End, Ec] =
      std::from_chars(Text.data(), Text.data() + Text.size(), Back);
  if (Ec != std::errc() || End != Text.data() + Text.size() ||
      !BitOps<T>::sameBits(Back, Value)) {
    Detail = "std: std::from_chars(\"" + Text + "\") does not read back " +
             BitOps<T>::showBits(Value);
    return false;
  }
  char Buf[64];
  auto Res = std::to_chars(Buf, Buf + sizeof(Buf), Value,
                           std::chars_format::scientific);
  const std::string_view Ref(Buf, static_cast<size_t>(Res.ptr - Buf));
  if (Res.ec != std::errc() ||
      significantDigits(Text) != significantDigits(Ref)) {
    Detail = "std: \"" + Text + "\" vs std::to_chars \"" +
             std::string(Ref) + "\": significant-digit counts differ";
    return false;
  }
  return true;
}

/// Fast-parser-vs-exact-reader agreement on the shortest output: the
/// production parser must consume the whole text and land on the same
/// bits as both the exact reader and the original value.  Outcomes are
/// charged to the Scratch's fast-parse counters, so sweeps measure the
/// observed fallback rate for free.
template <typename T>
bool oracleParseRead(T Value, engine::Scratch *S, std::string &Detail) {
  std::string Text = toShortest(Value);
  parse::ParseResult<T> Fast =
      parse::parseFloat<T>(Text, S ? &S->counters() : nullptr);
  if (!Fast.ok() || Fast.Consumed != Text.size()) {
    Detail = "parse: fast parser consumed " + std::to_string(Fast.Consumed) +
             " of \"" + Text + "\"";
    return false;
  }
  auto Exact = readFloat<T>(Text);
  if (!Exact) {
    Detail = "parse: \"" + Text + "\" rejected by the exact reader";
    return false;
  }
  if (!BitOps<T>::sameBits(Fast.Value, *Exact)) {
    Detail = "parse: fast parser reads \"" + Text + "\" as " +
             BitOps<T>::showBits(Fast.Value) + ", exact reader as " +
             BitOps<T>::showBits(*Exact);
    return false;
  }
  if (!BitOps<T>::sameBits(Fast.Value, Value)) {
    Detail = "parse: \"" + Text + "\" reads back as " +
             BitOps<T>::showBits(Fast.Value) + ", not " +
             BitOps<T>::showBits(Value);
    return false;
  }
  return true;
}

/// Class/sign-preserving fast parse for NaN, infinity, and zero (the
/// parse-oracle counterpart of checkSpecial).
template <typename T>
bool checkParseSpecial(T Value, FpClass Class, engine::Scratch *S,
                       std::string &Detail) {
  std::string Text = toShortest(Value);
  parse::ParseResult<T> Fast =
      parse::parseFloat<T>(Text, S ? &S->counters() : nullptr);
  if (!Fast.ok() || Fast.Consumed != Text.size()) {
    Detail = "parse: special \"" + Text + "\" not fully consumed";
    return false;
  }
  if (classify(Fast.Value) != Class) {
    Detail = "parse: special \"" + Text + "\" parses as a different class";
    return false;
  }
  // Same contract as the round-trip oracle: NaN payloads and signs are
  // not preserved by design; everything else is.
  if (Class != FpClass::NaN && signBit(Fast.Value) != signBit(Value)) {
    Detail = "parse: special \"" + Text + "\" loses the sign";
    return false;
  }
  if (Class == FpClass::Zero && !BitOps<T>::sameBits(Fast.Value, Value)) {
    Detail = "parse: zero \"" + Text + "\" parses as different bits";
    return false;
  }
  return true;
}

/// Engine-vs-string equivalence for any format: the buffer API must be
/// byte-identical to toShortest through the same traits-driven pipeline.
/// The buffer is the format's proven worst-case bound, so a length beyond
/// it is itself a failure (the overflow-impossible contract).
template <typename T>
bool oracleEngineFormat(T Value, engine::Scratch &S, std::string &Detail) {
  char Buf[engine::maxShortestBufferSize<T>(10)];
  size_t Length = engine::format(Value, Buf, sizeof(Buf), PrintOptions{}, S);
  std::string Expected = toShortest(Value);
  if (Length > sizeof(Buf) ||
      std::string_view(Buf, Length) != std::string_view(Expected)) {
    Detail = "engine: format() wrote \"" +
             std::string(Buf, Length < sizeof(Buf) ? Length : sizeof(Buf)) +
             "\", toShortest is \"" + Expected + "\"";
    return false;
  }
  return true;
}

/// Runs the mask of oracles over one decoded value.
template <typename T>
Verdict checkValue(T Value, unsigned Oracles, engine::Scratch *S,
                   DigitCore Core) {
  Verdict Result;
  auto Record = [&](unsigned Bit, bool Ok, const std::string &Detail) {
    if (S)
      S->noteVerifyVerdict(Ok);
    if (!Ok) {
      if (Result.ok())
        Result.Detail = Detail;
      Result.Failed |= Bit;
    }
  };

  FpClass Class = classify(Value);
  if (Class == FpClass::NaN || Class == FpClass::Infinity ||
      Class == FpClass::Zero) {
    if (Oracles & OracleRoundTrip) {
      std::string Detail;
      Record(OracleRoundTrip, checkSpecial(Value, Class, Detail), Detail);
    }
    if (Oracles & OracleParse) {
      std::string Detail;
      Record(OracleParse, checkParseSpecial(Value, Class, S, Detail), Detail);
    }
    return Result; // The remaining finite-value oracles are vacuous here.
  }

  if (Oracles & OracleRoundTrip) {
    std::string Detail;
    Record(OracleRoundTrip, oracleRoundTrip(Value, Detail), Detail);
  }
  if (Oracles & OracleShortest) {
    std::string Detail;
    Record(OracleShortest, oracleShortest(Value, Detail), Detail);
  }
  if (Oracles & OracleReference) {
    std::string Detail;
    Record(OracleReference, oracleReference(Value, Detail), Detail);
  }
  if constexpr (std::is_same_v<T, double> || std::is_same_v<T, float>) {
    if (Oracles & OracleLibc) {
      std::string Detail;
      Record(OracleLibc, oracleLibcRead(Value, Detail), Detail);
    }
    if (Oracles & OracleStd) {
      std::string Detail;
      Record(OracleStd, oracleStd(Value, Detail), Detail);
    }
  }
  if constexpr (!std::is_same_v<T, Binary128>) {
    if (Oracles & OracleCore) {
      std::string Detail;
      Record(OracleCore, oracleCore(Value, Core, Detail), Detail);
    }
  }
  if (Oracles & OracleEngine) {
    std::string Detail;
    if (S) {
      Record(OracleEngine, oracleEngineFormat(Value, *S, Detail), Detail);
    } else {
      engine::Scratch Local;
      Record(OracleEngine, oracleEngineFormat(Value, Local, Detail), Detail);
    }
  }
  if (Oracles & OracleParse) {
    std::string Detail;
    Record(OracleParse, oracleParseRead(Value, S, Detail), Detail);
  }
  return Result;
}

} // namespace

const char *dragon4::verify::formatName(FloatFormat Format) {
  switch (Format) {
  case FloatFormat::Binary16:
    return "binary16";
  case FloatFormat::Binary32:
    return "binary32";
  case FloatFormat::Binary64:
    return "binary64";
  case FloatFormat::Binary128:
    return "binary128";
  }
  return "?";
}

std::optional<FloatFormat>
dragon4::verify::formatByName(std::string_view Name) {
  for (FloatFormat F : {FloatFormat::Binary16, FloatFormat::Binary32,
                        FloatFormat::Binary64, FloatFormat::Binary128})
    if (Name == formatName(F))
      return F;
  return std::nullopt;
}

uint64_t dragon4::verify::encodingCount(FloatFormat Format) {
  switch (Format) {
  case FloatFormat::Binary16:
    return uint64_t(1) << 16;
  case FloatFormat::Binary32:
    return uint64_t(1) << 32;
  case FloatFormat::Binary64:
  case FloatFormat::Binary128:
    return 0; // Not enumerable in practice.
  }
  return 0;
}

unsigned dragon4::verify::supportedOracles(FloatFormat Format) {
  // The engine and parse oracles are format-generic (the buffer pipeline
  // is one traits-driven template; parseFloat falls back to the exact
  // reader where it has no fast path), so only libc and std -- which need
  // a hardware type with a library reader -- and core -- which serves the
  // narrow formats -- are restricted.
  switch (Format) {
  case FloatFormat::Binary16:
    return OracleAll & ~(OracleLibc | OracleStd);
  case FloatFormat::Binary128:
    return OracleAll & ~(OracleLibc | OracleStd | OracleCore);
  case FloatFormat::Binary32:
  case FloatFormat::Binary64:
    return OracleAll;
  }
  return 0;
}

std::string dragon4::verify::oracleNames(unsigned Mask) {
  std::string Names;
  for (const OracleName &Entry : OracleTable)
    if (Mask & Entry.Bit) {
      if (!Names.empty())
        Names.push_back(',');
      Names += Entry.Name;
    }
  return Names;
}

std::optional<unsigned> dragon4::verify::parseOracles(std::string_view Text) {
  if (Text == "all")
    return OracleAll;
  unsigned Mask = 0;
  while (!Text.empty()) {
    size_t Comma = Text.find(',');
    std::string_view Name = Text.substr(0, Comma);
    Text = Comma == std::string_view::npos ? std::string_view()
                                           : Text.substr(Comma + 1);
    bool Found = false;
    for (const OracleName &Entry : OracleTable)
      if (Name == Entry.Name) {
        Mask |= Entry.Bit;
        Found = true;
      }
    if (!Found)
      return std::nullopt;
  }
  return Mask ? std::optional<unsigned>(Mask) : std::nullopt;
}

std::string dragon4::verify::bitsToHex(const BitPattern &Bits) {
  switch (Bits.Format) {
  case FloatFormat::Binary16:
    return "0x" + hex(Bits.Lo, 4);
  case FloatFormat::Binary32:
    return "0x" + hex(Bits.Lo, 8);
  case FloatFormat::Binary64:
    return "0x" + hex(Bits.Lo, 16);
  case FloatFormat::Binary128:
    return "0x" + hex(Bits.Hi, 16) + hex(Bits.Lo, 16);
  }
  return "0x0";
}

namespace {

/// FormatId of a verify-harness \c BitPattern, for the obs latency grid.
FormatId formatIdFor(FloatFormat F) {
  switch (F) {
  case FloatFormat::Binary16:
    return FormatId::Binary16;
  case FloatFormat::Binary32:
    return FormatId::Binary32;
  case FloatFormat::Binary64:
    return FormatId::Binary64;
  case FloatFormat::Binary128:
    return FormatId::Binary128;
  }
  return FormatId::Binary64;
}

Verdict dispatchChecks(const BitPattern &Bits, unsigned Oracles,
                       engine::Scratch *S, DigitCore Core) {
  switch (Bits.Format) {
  case FloatFormat::Binary16:
    return checkValue(BitOps<Binary16>::fromPattern(Bits), Oracles, S, Core);
  case FloatFormat::Binary32:
    return checkValue(BitOps<float>::fromPattern(Bits), Oracles, S, Core);
  case FloatFormat::Binary64:
    return checkValue(BitOps<double>::fromPattern(Bits), Oracles, S, Core);
  case FloatFormat::Binary128:
    return checkValue(BitOps<Binary128>::fromPattern(Bits), Oracles, S, Core);
  }
  return Verdict{};
}

} // namespace

Verdict dragon4::verify::checkBits(const BitPattern &Bits, unsigned Oracles,
                                   engine::Scratch *S, DigitCore Core) {
  Oracles &= supportedOracles(Bits.Format);

#if DRAGON4_OBS_ENABLED
  if (S && obs::enabled()) {
    obs::ObsState &Obs = S->obsState();
    if (!Obs.tick()) {
      Verdict V = dispatchChecks(Bits, Oracles, S, Core);
      if (V.ok())
        return V;
      // A mismatch on an unsampled check: re-run it traced (mismatches are
      // rare, so the duplicated work is irrelevant) so the failing
      // conversion is archived in the flight recorder with full context.
      // The re-check is not charged to the verdict counters (S = null).
      Obs.Current.reset();
      uint64_t StartNs = obs::nowNanos();
      {
        obs::ActiveTraceScope Scope(&Obs.Current);
        dispatchChecks(Bits, Oracles, nullptr, Core);
      }
      Obs.finishConversion(Obs.Current, obs::Path::VerifyCheck,
                           formatIdFor(Bits.Format), Bits.Lo, Bits.Hi, StartNs,
                           obs::nowNanos() - StartNs,
                           /*Truncated=*/false, /*Mismatch=*/true);
      return V;
    }
    // Sampled check: trace the whole oracle bundle as one record.  The
    // library-level conversions the oracles run (toShortest, the reference
    // algorithm, the minimality candidates) all feed this trace; an inner
    // engine::format call that wins its own sampling draw records its own
    // window separately, exactly as it would outside the harness.
    Obs.Current.reset();
    uint64_t StartNs = obs::nowNanos();
    Verdict V;
    {
      obs::ActiveTraceScope Scope(&Obs.Current);
      V = dispatchChecks(Bits, Oracles, S, Core);
    }
    Obs.finishConversion(Obs.Current, obs::Path::VerifyCheck,
                         formatIdFor(Bits.Format), Bits.Lo, Bits.Hi, StartNs,
                         obs::nowNanos() - StartNs,
                         /*Truncated=*/false, /*Mismatch=*/!V.ok());
    return V;
  }
#endif

  return dispatchChecks(Bits, Oracles, S, Core);
}
