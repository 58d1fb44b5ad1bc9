//===- verify/corpus.h - Failure corpus, replay, minimizer -------*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The failure corpus: every mismatch a sweep finds becomes a replayable
/// bit-pattern record, so a CI failure that took a multi-hour sweep to
/// find reproduces in milliseconds from two lines of text.
///
/// Record syntax (one record = at most one comment line + one record line):
///
///   # reference: fast path "826" (K=4) vs rational oracle "8264" (K=4)
///   binary16 0x7009 roundtrip,reference
///
/// i.e. `<format> <hex encoding> <comma-separated oracles>`; binary128
/// encodings are 32 hex digits.  Blank lines and further `#` lines are
/// ignored, so corpus files concatenate and hand-edit cleanly.
///
/// The minimizer shrinks a failing record toward a canonical simple form
/// -- sign cleared, exponent moved toward the bias (magnitude toward 1),
/// mantissa toward a boundary form (zeros, or a short run of ones) --
/// accepting a candidate only when it still fails one of the record's
/// oracles.  Minimized records make the failing regime obvious at a
/// glance and diff stably.
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_VERIFY_CORPUS_H
#define DRAGON4_VERIFY_CORPUS_H

#include "verify/verify.h"

#include <string>
#include <vector>

namespace dragon4::verify {

/// One replayable failure (or regression) record.
struct CorpusRecord {
  BitPattern Bits;
  unsigned Oracles = OracleAll; ///< Oracles to re-run on replay.
  std::string Comment;          ///< One-line detail; written as a '#' line.

  /// Optional multi-line flight-recorder excerpt captured when the
  /// mismatch was found (see obs::FlightRecorder::dumpText).  Written as
  /// leading '#' lines; replay ignores it (the loader keeps only the last
  /// comment line before a record), so dumps never affect reproduction.
  std::string FlightDump;
};

/// Renders \p Record as corpus text: flight-dump '#' lines (when present),
/// a '#' comment line (when the record carries one), then the record line.
std::string encodeRecord(const CorpusRecord &Record);

/// Parses one record line (not the comment).  Returns false on malformed
/// input.
bool parseRecordLine(std::string_view Line, CorpusRecord &Out);

/// Loads every record in \p Path; '#' lines immediately preceding a record
/// become its Comment.  Returns false (with \p Error filled) on I/O or
/// parse failure.
bool loadCorpus(const std::string &Path, std::vector<CorpusRecord> &Out,
                std::string *Error);

/// Appends \p Record to \p Path (creating it), with a trailing blank line
/// as a record separator.  Returns false on I/O failure.
bool appendRecord(const std::string &Path, const CorpusRecord &Record);

/// Re-runs the record's oracles over its bit pattern (the core oracle
/// judging \p Core).
Verdict replayRecord(const CorpusRecord &Record,
                     engine::Scratch *S = nullptr,
                     DigitCore Core = ryuShortestDecimal);

/// Shrinks \p Record while it keeps failing: sign toward 0, exponent
/// toward the bias, mantissa toward boundary forms.  Returns the simplest
/// still-failing record found (the input itself if nothing simpler fails),
/// with its comment refreshed to the minimized failure's detail.  Spends
/// at most \p MaxProbes oracle evaluations, each judging \p Core.
CorpusRecord minimizeRecord(const CorpusRecord &Record,
                            size_t MaxProbes = 4096,
                            DigitCore Core = ryuShortestDecimal);

} // namespace dragon4::verify

#endif // DRAGON4_VERIFY_CORPUS_H
