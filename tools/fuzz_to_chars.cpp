//===- tools/fuzz_to_chars.cpp - Differential fuzzer for the output stack ----===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded, deterministic differential fuzzing of every output surface
/// against every other: random bits x random options across all five
/// formats, each case asserting
///
///   * dragon4_to_chars == toShortest == engine::format, byte for byte;
///   * dragon4_to_chars_fixed == toFixed == engine::formatFixed;
///   * formatPrintf(string) == formatPrintf(buffer), full and truncated;
///   * RecordStream bytes == concatenated toShortest records;
///   * the ERR_SIZE contract: one byte short fails with the exact
///     required length, the exact length succeeds;
///   * round-trip: shortest decimal output parses back to the identical
///     encoding through dragon4_from_chars AND parse::parseFloat
///     (decimal output with the default marker only -- other bases and
///     markers are outside the parser's grammar);
///   * the verify tier's std oracle on binary32/64: the value's default
///     shortest output reads back through std::from_chars and carries as
///     many significant digits as std::to_chars' -- a judge that shares
///     no code with the library;
///   * parse agreement on binary32/64: the exact midpoint between the
///     value and its successor, and that midpoint cut to 20-40 digits
///     and moved one unit up or down in the last one, read through
///     dragon4_from_chars bit-equal to std::from_chars;
///   * the printf precision oracle on binary32/64: formatPrintf equals
///     glibc snprintf under a random specification (flags "-+ 0#", width
///     0-30, precision 0-20, e/E/f/F/g/G), and "%.{p}e" / "%.{p}f" equal
///     std::to_chars(scientific / fixed, p) for every p in 0-17 -- two
///     judges that share no code with the library.
///
/// Same seed, same cases: a reported failure prints a one-line
/// reproducer (format, bits, option bytes, case index).
///
///   fuzz_to_chars [--cases=N] [--seed=S]
///
/// Defaults: 10000 cases, seed 0xD4A60001.  Exit 0 clean, 1 on any
/// mismatch.  Tier-1 ctest runs the default slice; nightly CI runs a
/// long one.
///
//===----------------------------------------------------------------------===//

#include "dragon4.h"
#include "engine/stream.h"
#include "verify/verify.h"

#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

using namespace dragon4;
namespace eng = dragon4::engine;

namespace {

struct Reproducer {
  uint64_t CaseIndex;
  dragon4_format Format;
  uint64_t Lo, Hi;
  dragon4_options Options;
};

int Failures = 0;

void reportFailure(const Reproducer &R, const char *What,
                   const std::string &Got, const std::string &Want) {
  std::fprintf(stderr,
               "FAIL case %" PRIu64 ": %s\n"
               "  format=%d lo=0x%016" PRIx64 " hi=0x%016" PRIx64
               " base=%u boundaries=%u ties=%u marks=%u upper=%u marker=%d\n"
               "  got  \"%s\"\n  want \"%s\"\n",
               R.CaseIndex, What, static_cast<int>(R.Format), R.Lo, R.Hi,
               R.Options.base, R.Options.boundaries, R.Options.ties,
               R.Options.marks_as_zeros, R.Options.uppercase_digits,
               R.Options.exponent_marker, Got.c_str(), Want.c_str());
  ++Failures;
}

/// NaN classification straight from the encoding (the soft formats'
/// operator== is bitwise, so `V == V` cannot detect their NaNs).
bool isNaNBits(dragon4_format Format, uint64_t Lo, uint64_t Hi) {
  switch (Format) {
  case DRAGON4_FORMAT_BINARY16:
    return (Lo & 0x7C00) == 0x7C00 && (Lo & 0x03FF) != 0;
  case DRAGON4_FORMAT_BINARY32:
    return (Lo & 0x7F800000) == 0x7F800000 && (Lo & 0x007FFFFF) != 0;
  case DRAGON4_FORMAT_BINARY64:
    return (Lo & 0x7FF0000000000000ull) == 0x7FF0000000000000ull &&
           (Lo & 0x000FFFFFFFFFFFFFull) != 0;
  case DRAGON4_FORMAT_EXTENDED80:
    return (Hi & 0x7FFF) == 0x7FFF && (Lo & ~(1ull << 63)) != 0;
  case DRAGON4_FORMAT_BINARY128:
    return (Hi & 0x7FFF000000000000ull) == 0x7FFF000000000000ull &&
           ((Hi & 0x0000FFFFFFFFFFFFull) | Lo) != 0;
  }
  return false;
}

/// PrintOptions equivalent of the C option block (the same mapping
/// abi.cpp documents; re-derived here so the fuzzer is an independent
/// check of that table, not a copy of its output).
PrintOptions toPrintOptions(const dragon4_options &O) {
  PrintOptions Out;
  Out.Base = O.base == 0 ? 10u : O.base;
  const BoundaryMode Map[5] = {
      BoundaryMode::NearestEven, BoundaryMode::Conservative,
      BoundaryMode::BothInclusive, BoundaryMode::LowInclusive,
      BoundaryMode::HighInclusive};
  Out.Boundaries = Map[O.boundaries];
  Out.Ties = static_cast<TieBreak>(O.ties);
  Out.Marks = O.marks_as_zeros ? MarkStyle::Zeros : MarkStyle::Hash;
  Out.UppercaseDigits = O.uppercase_digits != 0;
  Out.ExponentMarker = O.exponent_marker == 0 ? 'e' : O.exponent_marker;
  return Out;
}

/// std::from_chars of a whole literal.  It reports a result that rounds
/// to zero or infinity as out of range without storing it; glibc's
/// strto* then supplies the rounded value.
template <typename T> bool stdFromChars(const std::string &Text, T &Value) {
  auto [Ptr, Ec] = std::from_chars(Text.data(), Text.data() + Text.size(),
                                   Value);
  if (Ec == std::errc::result_out_of_range) {
    if constexpr (std::is_same_v<T, float>)
      Value = std::strtof(Text.c_str(), nullptr);
    else
      Value = std::strtod(Text.c_str(), nullptr);
  } else if (Ec != std::errc()) {
    return false;
  }
  return Ptr == Text.data() + Text.size();
}

/// Parse agreement on the hardest literals there are: the exact midpoint
/// between \p Value and its successor (a tie, resolved to even), and the
/// midpoint cut to 20-40 significant digits with the last one moved a
/// unit up or down (just above or below it).  The midpoint needs one bit
/// more than T, which x87 extended (binary64) or double (binary32) holds,
/// and %.800Le prints every such midpoint exactly.
template <typename T>
void checkParseAgreement(const Reproducer &R, T Value) {
  using Wide = std::conditional_t<std::is_same_v<T, float>, double,
                                  long double>;
  if constexpr (std::numeric_limits<Wide>::digits >
                std::numeric_limits<T>::digits) {
    if (!std::isfinite(Value))
      return;
    const T Magnitude = std::fabs(Value);
    const T Next = std::nextafter(Magnitude, std::numeric_limits<T>::infinity());
    const Wide Low = Magnitude;
    const Wide Mid =
        std::isinf(Next)
            ? Low + (Low - std::nextafter(Magnitude, T(0))) / 2
            : (Low + Next) / 2;
    char Buf[1024];
    std::snprintf(Buf, sizeof Buf, "%s%.800Le", std::signbit(Value) ? "-" : "",
                  static_cast<long double>(Mid));
    std::string Exact = Buf;
    const size_t Marker = Exact.find('e');
    const std::string Exponent = Exact.substr(Marker);
    std::string Digits = Exact.substr(0, Marker); // [-]d.ddd...
    Digits.erase(Digits.find_last_not_of('0') + 1);
    if (Digits.back() == '.')
      Digits.pop_back();

    // The cut: 20-40 significant digits, then +-1 in the last of them.
    const size_t Lead = Digits.find_first_of("123456789");
    const size_t Cut = 20 + (R.CaseIndex * 0x9E3779B97F4A7C15ull >> 59) % 21;
    std::string Padded = Digits.find('.') == std::string::npos
                             ? Digits + "."
                             : Digits;
    Padded.resize(Lead + 1 + Cut, '0'); // Lead digit, '.', Cut - 1 more.
    std::string Literals[3] = {Digits + Exponent, Padded + Exponent,
                               Padded + Exponent};
    // +1 and -1 in the last digit: the cut is at most the midpoint and
    // less than one unit of its last digit below it, so the first lands
    // above the midpoint and the second below.
    for (int Delta : {+1, -1}) {
      std::string &L = Literals[Delta > 0 ? 1 : 2];
      for (size_t I = Lead + Cut; I > Lead; --I) {
        if (L[I] == '.')
          continue;
        const int D = L[I] - '0' + Delta;
        if (D >= 0 && D <= 9) {
          L[I] = static_cast<char>('0' + D);
          break;
        }
        L[I] = Delta > 0 ? '0' : '9';
      }
    }
    for (const std::string &Text : Literals) {
      uint64_t Lo = 0, Hi = 0;
      size_t Consumed = 0;
      T Std{};
      const bool StdOk = stdFromChars(Text, Std);
      uint64_t StdLo = 0, StdHi = 0;
      FormatTraits<T>::encodingBits(Std, StdLo, StdHi);
      if (dragon4_from_chars(R.Format, Text.data(), Text.size(), &Lo, &Hi,
                             &Consumed) != DRAGON4_OK ||
          Consumed != Text.size() || !StdOk || Lo != StdLo) {
        reportFailure(R, "dragon4_from_chars vs std::from_chars (midpoint)",
                      "lo=" + std::to_string(Lo) + " for " + Text,
                      "lo=" + std::to_string(StdLo));
        return;
      }
    }
  }
}

/// The precision oracle on binary32/64: formatPrintf against two judges
/// that share no code with the library.  glibc snprintf formats a random
/// specification -- flags from "-+ 0#", width 0-30, precision 0-20, one
/// of e/E/f/F/g/G -- and std::to_chars(scientific|fixed, p) formats every
/// p in 0-17, which "%.{p}e" / "%.{p}f" must match.  binary32 is promoted
/// to double for snprintf, as printf itself does.  The draws come from
/// the case's bits and index, so a reproducer replays them.
template <typename T>
void checkPrecisionOracle(const Reproducer &R, T Value) {
  // %f of a value near 1e308 runs past 330 characters.
  char Want[512];
  SplitMix64 Draw(R.Lo * 0x9E3779B97F4A7C15ull + R.CaseIndex);
  std::string Spec = "%";
  for (char Flag : {'-', '+', ' ', '0', '#'})
    if (Draw.below(4) == 0)
      Spec.push_back(Flag);
  if (const uint64_t Width = Draw.below(31))
    Spec += std::to_string(Width);
  Spec += "." + std::to_string(Draw.below(21));
  Spec.push_back("eEfFgG"[Draw.below(6)]);
  const int Length = std::snprintf(Want, sizeof Want, Spec.c_str(),
                                   static_cast<double>(Value));
  std::string Got = formatPrintf(Value, Spec.c_str());
  if (Length < 0 || static_cast<size_t>(Length) >= sizeof Want ||
      Got != std::string(Want, static_cast<size_t>(Length))) {
    reportFailure(R, ("formatPrintf vs snprintf, " + Spec).c_str(), Got,
                  Want);
    return;
  }

  for (int Precision = 0; Precision <= 17; ++Precision) {
    for (std::chars_format Form :
         {std::chars_format::scientific, std::chars_format::fixed}) {
      const auto [End, Ec] =
          std::to_chars(Want, Want + sizeof Want, Value, Form, Precision);
      PrintfSpec Std;
      Std.Conversion = Form == std::chars_format::fixed ? 'f' : 'e';
      Std.Precision = Precision;
      Got = formatPrintf(Value, Std);
      if (Ec != std::errc() || Got != std::string(Want, End)) {
        reportFailure(R,
                      ("formatPrintf vs std::to_chars, %." +
                       std::to_string(Precision) + Std.Conversion)
                          .c_str(),
                      Got, Ec == std::errc() ? std::string(Want, End)
                                             : "<to_chars error>");
        return;
      }
    }
  }
}

template <typename T>
void fuzzOne(const Reproducer &R, eng::Scratch &S) {
  T Value = FormatTraits<T>::fromEncoding(R.Lo, R.Hi);
  PrintOptions Options = toPrintOptions(R.Options);
  // The stream binds its options at construction, like a file handle
  // binds a mode; each case gets a stream carrying its own options.
  eng::RecordStream Stream(S, '\n', Options);
  const dragon4_format Format = R.Format;

  // Reference: the string surface.
  std::string Reference = toShortest(Value, Options);

  // engine::format must agree and report the same length.  The buffer
  // must cover the worst base: binary128 in base 2 runs to ~123 chars
  // (113 mantissa digits plus sign, point, marker, and exponent).
  char Buf[256];
  static_assert(sizeof(Buf) >= 2 * DRAGON4_MAX_CHARS10);
  size_t EngineLen = eng::format(Value, Buf, sizeof(Buf), Options, S);
  if (EngineLen > sizeof(Buf) ||
      std::string(Buf, EngineLen) != Reference) {
    reportFailure(R, "engine::format vs toShortest",
                  std::string(Buf, EngineLen < sizeof(Buf) ? EngineLen : 0),
                  Reference);
    return;
  }

  // The C ABI must agree...
  size_t AbiLen = 0;
  dragon4_status Status = dragon4_to_chars(Format, R.Lo, R.Hi, &R.Options,
                                           Buf, sizeof(Buf), &AbiLen);
  if (Status != DRAGON4_OK || std::string(Buf, AbiLen) != Reference) {
    reportFailure(R, "dragon4_to_chars vs toShortest",
                  Status == DRAGON4_OK ? std::string(Buf, AbiLen)
                                       : "<status " +
                                             std::to_string(Status) + ">",
                  Reference);
    return;
  }

  // ...and honor the boundary contract: exact size fits, one short
  // reports ERR_SIZE with the true required length.
  size_t Len = 0;
  if (dragon4_to_chars(Format, R.Lo, R.Hi, &R.Options, Buf, Reference.size(),
                       &Len) != DRAGON4_OK ||
      Len != Reference.size()) {
    reportFailure(R, "exact-capacity call failed", std::to_string(Len),
                  std::to_string(Reference.size()));
    return;
  }
  if (!Reference.empty()) {
    if (dragon4_to_chars(Format, R.Lo, R.Hi, &R.Options, Buf,
                         Reference.size() - 1, &Len) != DRAGON4_ERR_SIZE ||
        Len != Reference.size()) {
      reportFailure(R, "one-byte-short call broke the ERR_SIZE contract",
                    std::to_string(Len), std::to_string(Reference.size()));
      return;
    }
  }

  // The streaming surface.
  Stream.clear();
  Stream.push(Value);
  if (std::string(Stream.bytes()) != Reference) {
    reportFailure(R, "RecordStream vs toShortest",
                  std::string(Stream.bytes()), Reference);
    return;
  }

  // Round-trip through both parse surfaces -- only where the output is
  // inside the parser's grammar (base 10, default 'e' marker, not NaN)
  // AND the reader model guarantees closure under a nearest-even parse:
  // the inclusive boundary modes may legitimately emit an exact rounding
  // midpoint, which nearest-even reading sends to the even neighbour.
  bool Parseable = Options.Base == 10 && Options.ExponentMarker == 'e' &&
                   !isNaNBits(Format, R.Lo, R.Hi) &&
                   (Options.Boundaries == BoundaryMode::NearestEven ||
                    Options.Boundaries == BoundaryMode::Conservative);
  if (Parseable) {
    uint64_t Lo = 0, Hi = 0;
    size_t Consumed = 0;
    if (dragon4_from_chars(Format, Reference.data(), Reference.size(), &Lo,
                           &Hi, &Consumed) != DRAGON4_OK ||
        Consumed != Reference.size() || Lo != R.Lo || Hi != R.Hi) {
      reportFailure(R, "dragon4_from_chars round-trip",
                    "lo=" + std::to_string(Lo) + " hi=" + std::to_string(Hi),
                    Reference);
      return;
    }
    parse::ParseResult<T> Parsed = parse::parseFloat<T>(Reference);
    uint64_t PLo = 0, PHi = 0;
    FormatTraits<T>::encodingBits(Parsed.Value, PLo, PHi);
    if (!Parsed.ok() || PLo != R.Lo || PHi != R.Hi) {
      reportFailure(R, "parse::parseFloat round-trip",
                    "lo=" + std::to_string(PLo), Reference);
      return;
    }
  }

  if constexpr (std::is_same_v<T, float> || std::is_same_v<T, double>) {
    verify::BitPattern Bits;
    Bits.Format = std::is_same_v<T, float> ? verify::FloatFormat::Binary32
                                           : verify::FloatFormat::Binary64;
    Bits.Lo = R.Lo;
    verify::Verdict Std = verify::checkBits(Bits, verify::OracleStd);
    if (!Std.ok()) {
      reportFailure(R, "std oracle (default options)", Std.Detail,
                    toShortest(Value));
      return;
    }
    checkParseAgreement(R, Value);
    checkPrecisionOracle(R, Value);
  }

  // The fixed surface (decimal only: toFixed's contract).
  if (Options.Base == 10) {
    int Precision = static_cast<int>(R.CaseIndex % 19);
    std::string FixedReference = toFixed(Value, Precision, Options);
    std::vector<char> FixedBuf(FixedReference.size() + 8);
    size_t FixedEngineLen = eng::formatFixed(Value, Precision,
                                             FixedBuf.data(), FixedBuf.size(),
                                             Options, S);
    if (std::string(FixedBuf.data(), FixedEngineLen) != FixedReference) {
      reportFailure(R, "engine::formatFixed vs toFixed",
                    std::string(FixedBuf.data(),
                                FixedEngineLen < FixedBuf.size()
                                    ? FixedEngineLen
                                    : 0),
                    FixedReference);
      return;
    }
    size_t FixedAbiLen = 0;
    if (dragon4_to_chars_fixed(Format, R.Lo, R.Hi, Precision, &R.Options,
                               FixedBuf.data(), FixedBuf.size(),
                               &FixedAbiLen) != DRAGON4_OK ||
        std::string(FixedBuf.data(), FixedAbiLen) != FixedReference) {
      reportFailure(R, "dragon4_to_chars_fixed vs toFixed",
                    std::string(FixedBuf.data(), FixedAbiLen),
                    FixedReference);
      return;
    }
  }

  // printf's two surfaces against each other (hardware formats have a
  // glibc cross-check elsewhere; here the property is string==buffer).
  {
    const char *Specs[] = {"%g", "%.17e", "%+012.3f", "%-20G", "%#.5g"};
    const char *Spec = Specs[R.CaseIndex % 5];
    std::string PrintfString = formatPrintf(Value, Spec);
    std::vector<char> PrintfBuf(PrintfString.size() + 4);
    size_t PrintfLen = formatPrintf(Value, Spec, PrintfBuf.data(),
                                    PrintfBuf.size());
    if (PrintfLen != PrintfString.size() ||
        std::string(PrintfBuf.data(), PrintfLen) != PrintfString) {
      reportFailure(R, "formatPrintf string vs buffer",
                    std::string(PrintfBuf.data(),
                                PrintfLen < PrintfBuf.size() ? PrintfLen : 0),
                    PrintfString);
      return;
    }
    char Tiny[4];
    size_t TinyLen = formatPrintf(Value, Spec, Tiny, sizeof(Tiny));
    size_t Prefix = TinyLen < sizeof(Tiny) ? TinyLen : sizeof(Tiny);
    if (TinyLen != PrintfString.size() ||
        std::string(Tiny, Prefix) != PrintfString.substr(0, Prefix)) {
      reportFailure(R, "formatPrintf truncated-buffer prefix",
                    std::string(Tiny, Prefix), PrintfString);
      return;
    }
  }
}

} // namespace

int main(int Argc, char **Argv) {
  uint64_t Cases = 10000;
  uint64_t Seed = 0xD4A60001;
  for (int I = 1; I < Argc; ++I) {
    if (std::strncmp(Argv[I], "--cases=", 8) == 0) {
      Cases = std::strtoull(Argv[I] + 8, nullptr, 10);
    } else if (std::strncmp(Argv[I], "--seed=", 7) == 0) {
      Seed = std::strtoull(Argv[I] + 7, nullptr, 0);
    } else {
      std::fprintf(stderr,
                   "usage: fuzz_to_chars [--cases=N] [--seed=S]\n");
      return 2;
    }
  }

  SplitMix64 Rng(Seed);
  eng::Scratch S;

  for (uint64_t Case = 0; Case < Cases; ++Case) {
    Reproducer R;
    R.CaseIndex = Case;
    R.Format = static_cast<dragon4_format>(Rng.below(5));
    R.Lo = Rng.next();
    R.Hi = Rng.next();

    // Mostly defaults (the hot configuration), a sprinkling of every
    // option knob; bases limited to the renderer's 2..36 range.
    R.Options = dragon4_options DRAGON4_OPTIONS_INIT;
    if (Rng.below(4) == 0)
      R.Options.base =
          static_cast<uint8_t>(2 + Rng.below(35)); // 2..36.
    if (Rng.below(4) == 0)
      R.Options.boundaries = static_cast<uint8_t>(Rng.below(5));
    if (Rng.below(4) == 0)
      R.Options.ties = static_cast<uint8_t>(Rng.below(3));
    if (Rng.below(8) == 0)
      R.Options.marks_as_zeros = 1;
    if (Rng.below(8) == 0)
      R.Options.uppercase_digits = 1;
    if (Rng.below(8) == 0)
      R.Options.exponent_marker = Rng.below(2) ? '^' : 'p';

    // A marker that collides with a digit of the base would make the
    // output ambiguous; the renderer's contract excludes it, so the
    // fuzzer does too (uppercase included when uppercase_digits is set).
    unsigned Base = R.Options.base == 0 ? 10 : R.Options.base;
    char Marker =
        R.Options.exponent_marker == 0 ? 'e' : R.Options.exponent_marker;
    unsigned MarkerDigit = 36;
    if (Marker >= '0' && Marker <= '9')
      MarkerDigit = static_cast<unsigned>(Marker - '0');
    else if (Marker >= 'a' && Marker <= 'z')
      MarkerDigit = static_cast<unsigned>(Marker - 'a') + 10;
    if (MarkerDigit < Base)
      R.Options.exponent_marker = '^';

    switch (R.Format) {
    case DRAGON4_FORMAT_BINARY16:
      R.Lo &= 0xFFFF;
      R.Hi = 0;
      fuzzOne<Binary16>(R, S);
      break;
    case DRAGON4_FORMAT_BINARY32:
      R.Lo &= 0xFFFFFFFF;
      R.Hi = 0;
      fuzzOne<float>(R, S);
      break;
    case DRAGON4_FORMAT_BINARY64:
      R.Hi = 0;
      fuzzOne<double>(R, S);
      break;
    case DRAGON4_FORMAT_EXTENDED80: {
      // Only canonical x87 encodings (integer bit set for non-zero
      // exponents) represent values; non-canonical bit patterns are
      // pseudo-denormals the format's own equality cannot round-trip.
      uint16_t SignExp = static_cast<uint16_t>(R.Hi & 0xFFFF);
      if ((SignExp & 0x7FFF) != 0)
        R.Lo |= 1ull << 63;
      else
        R.Lo &= ~(1ull << 63);
      R.Hi = SignExp;
      fuzzOne<long double>(R, S);
      break;
    }
    case DRAGON4_FORMAT_BINARY128:
      fuzzOne<Binary128>(R, S);
      break;
    }
    if (Failures >= 10) {
      std::fprintf(stderr, "stopping after %d failures\n", Failures);
      break;
    }
  }

  if (Failures) {
    std::fprintf(stderr,
                 "fuzz_to_chars: %d failure(s) over %" PRIu64
                 " case(s), seed 0x%" PRIx64 "\n",
                 Failures, Cases, Seed);
    return 1;
  }
  std::printf("fuzz_to_chars: %" PRIu64 " case(s) clean, seed 0x%" PRIx64
              "\n",
              Cases, Seed);
  return 0;
}
