//===- verify/verify.h - Differential verification oracles -------*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The verification subsystem's oracle layer.  The paper's whole contract
/// is a machine-checkable property -- the shortest free-format output must
/// read back to the identical binary value under the stated reader model --
/// and this header turns that property (and its supporting invariants)
/// into pluggable oracles that can be run over any encoding of any
/// supported format:
///
///   roundtrip  print -> readFloat -> identical bits (output condition 1)
///   shortest   no (n-1)-digit string reads back (Theorem 5, minimality)
///   reference  digit-for-digit agreement with the Section 2 algorithm
///              over exact rationals (core/reference.cpp, an independent
///              implementation sharing no code with the fast path)
///   libc       strtod/strtof read-back of our output (an oracle outside
///              this codebase entirely; binary32/binary64 only)
///   engine     engine::format byte-identical to toShortest (every format:
///              both are sinks over the one engine ladder, so this checks
///              the sinks, not the digits)
///   parse      parse::parseFloat (the Eisel-Lemire production reader)
///              agrees bit-for-bit with the exact reader and the original
///              value on the shortest output, consuming every byte
///   std        libstdc++ judges our output with no code from src/:
///              std::from_chars reads it back to the same bits, and it
///              carries as many significant digits as std::to_chars'
///              shortest form (binary32/binary64, default options)
///   core       the shortest digit core (the ladder's front rung) yields
///              the exact loop's digits and scale (binary16/32/64: the
///              formats the core serves)
///
/// Values are addressed by raw bit pattern, so every mismatch is trivially
/// replayable (see verify/corpus.h) and exhaustive sweeps are plain
/// integer loops.  checkBits() optionally charges its verdicts to an
/// engine::Scratch, which routes per-worker counts through EngineStats.
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_VERIFY_VERIFY_H
#define DRAGON4_VERIFY_VERIFY_H

#include "engine/scratch.h"
#include "fastpath/ryu.h"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace dragon4::verify {

/// The IEEE-754 interchange formats the harness can sweep.
enum class FloatFormat : uint8_t { Binary16, Binary32, Binary64, Binary128 };

/// Lower-case name used on the command line and in corpus records.
const char *formatName(FloatFormat Format);

/// Inverse of formatName(); nullopt for unknown names.
std::optional<FloatFormat> formatByName(std::string_view Name);

/// Total number of encodings (exhaustive-sweep domain size); only
/// meaningful for the formats small enough to enumerate.
uint64_t encodingCount(FloatFormat Format);

// Oracle bitmask values.
enum : unsigned {
  OracleRoundTrip = 1u << 0,
  OracleShortest = 1u << 1,
  OracleReference = 1u << 2,
  OracleLibc = 1u << 3,
  OracleEngine = 1u << 4,
  OracleParse = 1u << 5,
  OracleStd = 1u << 6,
  OracleCore = 1u << 7,
  OracleAll = (1u << 8) - 1,
};

/// The subset of OracleAll implemented for \p Format (everything except
/// libc and std, which need a hardware type with a library reader, and
/// core, which has no binary128 digit core to judge).
unsigned supportedOracles(FloatFormat Format);

/// Comma-separated lower-case names of the oracles in \p Mask.
std::string oracleNames(unsigned Mask);

/// Parses a comma-separated oracle list ("roundtrip,libc", or "all");
/// nullopt on an unknown name.
std::optional<unsigned> parseOracles(std::string_view Text);

/// A value addressed by encoding.  Lo holds the (zero-extended) encoding
/// for the 16/32/64-bit formats; binary128 uses both halves.
struct BitPattern {
  FloatFormat Format = FloatFormat::Binary64;
  uint64_t Hi = 0;
  uint64_t Lo = 0;

  friend bool operator==(const BitPattern &L, const BitPattern &R) {
    return L.Format == R.Format && L.Hi == R.Hi && L.Lo == R.Lo;
  }
};

/// "0x..." rendering of the encoding (32 hex digits for binary128).
std::string bitsToHex(const BitPattern &Bits);

/// A shortest digit core, with ryuShortestDecimal's contract.  The core
/// oracle judges the library's own by default; tests pass a planted
/// mutation of it (fastpath/schubfach.h) to prove that a sweep catches a
/// wrong core, the minimizer shrinks it and replay reproduces it.
using DigitCore = bool (*)(uint64_t F, int E, int Precision, int MinExponent,
                           bool AcceptBounds, TieBreak Ties, uint64_t &Output,
                           int &Length, int &K);

/// Outcome of running a set of oracles over one value.
struct Verdict {
  unsigned Failed = 0; ///< Mask of oracles that found a mismatch.
  std::string Detail;  ///< Human-readable report of the first mismatch.

  bool ok() const { return Failed == 0; }
};

/// Runs every oracle in \p Oracles (silently masked to the format's
/// supported set) over the value encoded by \p Bits.  Special encodings
/// (NaN, infinity, zero) are checked for class- and sign-preserving
/// round-trips; the remaining oracles apply to finite non-zero values.
/// When \p S is non-null each oracle run is charged to its verdict
/// counters and the engine oracle reuses its warm storage.
/// \p Core is the digit core the core oracle judges; every other oracle
/// judges the library as built.
Verdict checkBits(const BitPattern &Bits, unsigned Oracles = OracleAll,
                  engine::Scratch *S = nullptr,
                  DigitCore Core = ryuShortestDecimal);

} // namespace dragon4::verify

#endif // DRAGON4_VERIFY_VERIFY_H
