//===- verify/corpus.cpp - Failure corpus, replay, minimizer ----------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "verify/corpus.h"

#include "support/checks.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace dragon4;
using namespace dragon4::verify;

//===----------------------------------------------------------------------===//
// Record text format
//===----------------------------------------------------------------------===//

std::string dragon4::verify::encodeRecord(const CorpusRecord &Record) {
  std::string Text;
  if (!Record.FlightDump.empty()) {
    // One '#' line per dump line, before the detail comment: the loader
    // keeps only the last comment line before a record, so the dump is
    // annotation only and the detail stays the replayed record's Comment.
    Text += "# flight recorder (oldest first):\n";
    size_t Start = 0;
    while (Start < Record.FlightDump.size()) {
      size_t End = Record.FlightDump.find('\n', Start);
      if (End == std::string::npos)
        End = Record.FlightDump.size();
      if (End > Start) {
        Text += "#   ";
        Text.append(Record.FlightDump, Start, End - Start);
        Text += '\n';
      }
      Start = End + 1;
    }
  }
  if (!Record.Comment.empty()) {
    Text += "# ";
    // Keep the record at two lines even if the detail has embedded breaks.
    for (char C : Record.Comment)
      Text += C == '\n' ? ' ' : C;
    Text += '\n';
  }
  Text += formatName(Record.Bits.Format);
  Text += ' ';
  Text += bitsToHex(Record.Bits);
  Text += ' ';
  Text += oracleNames(Record.Oracles);
  Text += '\n';
  return Text;
}

namespace {

/// Splits \p Line into whitespace-separated fields.
std::vector<std::string_view> splitFields(std::string_view Line) {
  std::vector<std::string_view> Fields;
  size_t I = 0;
  while (I < Line.size()) {
    while (I < Line.size() && std::isspace(static_cast<unsigned char>(Line[I])))
      ++I;
    size_t Start = I;
    while (I < Line.size() && !std::isspace(static_cast<unsigned char>(Line[I])))
      ++I;
    if (I > Start)
      Fields.push_back(Line.substr(Start, I - Start));
  }
  return Fields;
}

bool parseHexBits(std::string_view Text, FloatFormat Format, BitPattern &Out) {
  if (Text.size() > 2 && Text[0] == '0' && (Text[1] == 'x' || Text[1] == 'X'))
    Text.remove_prefix(2);
  if (Text.empty() || Text.size() > 32)
    return false;
  uint64_t Hi = 0, Lo = 0;
  // Accumulate into a 128-bit Hi:Lo pair one nibble at a time.
  for (char C : Text) {
    unsigned Nibble;
    if (C >= '0' && C <= '9')
      Nibble = static_cast<unsigned>(C - '0');
    else if (C >= 'a' && C <= 'f')
      Nibble = static_cast<unsigned>(C - 'a') + 10;
    else if (C >= 'A' && C <= 'F')
      Nibble = static_cast<unsigned>(C - 'A') + 10;
    else
      return false;
    Hi = (Hi << 4) | (Lo >> 60);
    Lo = (Lo << 4) | Nibble;
  }
  if (Format != FloatFormat::Binary128 && Hi != 0)
    return false;
  Out.Format = Format;
  Out.Hi = Hi;
  Out.Lo = Lo;
  return true;
}

} // namespace

bool dragon4::verify::parseRecordLine(std::string_view Line,
                                      CorpusRecord &Out) {
  std::vector<std::string_view> Fields = splitFields(Line);
  if (Fields.size() != 3)
    return false;
  std::optional<FloatFormat> Format = formatByName(Fields[0]);
  if (!Format)
    return false;
  CorpusRecord Record;
  if (!parseHexBits(Fields[1], *Format, Record.Bits))
    return false;
  std::optional<unsigned> Oracles = parseOracles(Fields[2]);
  if (!Oracles || *Oracles == 0)
    return false;
  Record.Oracles = *Oracles;
  Out = std::move(Record);
  return true;
}

bool dragon4::verify::loadCorpus(const std::string &Path,
                                 std::vector<CorpusRecord> &Out,
                                 std::string *Error) {
  std::ifstream In(Path);
  if (!In) {
    if (Error)
      *Error = "cannot open " + Path;
    return false;
  }
  std::string Line, PendingComment;
  size_t LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    size_t First = Line.find_first_not_of(" \t\r");
    if (First == std::string::npos) {
      PendingComment.clear();
      continue;
    }
    if (Line[First] == '#') {
      size_t Start = Line.find_first_not_of(" \t", First + 1);
      PendingComment =
          Start == std::string::npos ? std::string() : Line.substr(Start);
      continue;
    }
    CorpusRecord Record;
    if (!parseRecordLine(Line, Record)) {
      if (Error) {
        std::ostringstream OS;
        OS << Path << ":" << LineNo << ": malformed corpus record: " << Line;
        *Error = OS.str();
      }
      return false;
    }
    Record.Comment = std::move(PendingComment);
    PendingComment.clear();
    Out.push_back(std::move(Record));
  }
  return true;
}

bool dragon4::verify::appendRecord(const std::string &Path,
                                   const CorpusRecord &Record) {
  std::ofstream OutFile(Path, std::ios::app);
  if (!OutFile)
    return false;
  OutFile << encodeRecord(Record) << '\n';
  return static_cast<bool>(OutFile);
}

//===----------------------------------------------------------------------===//
// Replay and minimization
//===----------------------------------------------------------------------===//

Verdict dragon4::verify::replayRecord(const CorpusRecord &Record,
                                      engine::Scratch *S, DigitCore Core) {
  return checkBits(Record.Bits, Record.Oracles, S, Core);
}

namespace {

/// Per-format field widths, mirrored from the encoding layouts.
struct FieldGeometry {
  int StoredBits;
  int ExponentBits;
  uint64_t Bias() const { return (uint64_t(1) << (ExponentBits - 1)) - 1; }
  uint64_t MaxBiased() const { return (uint64_t(1) << ExponentBits) - 1; }
};

FieldGeometry fieldGeometry(FloatFormat Format) {
  switch (Format) {
  case FloatFormat::Binary16:
    return {10, 5};
  case FloatFormat::Binary32:
    return {23, 8};
  case FloatFormat::Binary64:
    return {52, 11};
  case FloatFormat::Binary128:
    return {112, 15};
  }
  return {52, 11};
}

using UInt128 = unsigned __int128;

/// A candidate encoding split into fields so shrink moves stay in-range.
struct Fields {
  FloatFormat Format;
  bool Sign;
  uint64_t Biased;
  UInt128 Mantissa; // The stored-mantissa field only.
};

Fields splitFields(const BitPattern &Bits) {
  FieldGeometry G = fieldGeometry(Bits.Format);
  Fields F;
  F.Format = Bits.Format;
  if (Bits.Format == FloatFormat::Binary128) {
    F.Sign = (Bits.Hi >> 63) != 0;
    F.Biased = (Bits.Hi >> 48) & 0x7FFF;
    F.Mantissa = (UInt128(Bits.Hi & ((uint64_t(1) << 48) - 1)) << 64) | Bits.Lo;
  } else {
    F.Sign = (Bits.Lo >> (G.StoredBits + G.ExponentBits)) != 0;
    F.Biased = (Bits.Lo >> G.StoredBits) & (G.MaxBiased());
    F.Mantissa = Bits.Lo & ((uint64_t(1) << G.StoredBits) - 1);
  }
  return F;
}

BitPattern joinFields(const Fields &F) {
  FieldGeometry G = fieldGeometry(F.Format);
  BitPattern Bits;
  Bits.Format = F.Format;
  if (F.Format == FloatFormat::Binary128) {
    Bits.Lo = static_cast<uint64_t>(F.Mantissa);
    Bits.Hi = static_cast<uint64_t>(F.Mantissa >> 64) | (F.Biased << 48) |
              (F.Sign ? uint64_t(1) << 63 : 0);
  } else {
    Bits.Lo = static_cast<uint64_t>(F.Mantissa) | (F.Biased << G.StoredBits) |
              (F.Sign ? uint64_t(1) << (G.StoredBits + G.ExponentBits) : 0);
  }
  return Bits;
}

int popcount128(UInt128 V) {
  return __builtin_popcountll(static_cast<uint64_t>(V)) +
         __builtin_popcountll(static_cast<uint64_t>(V >> 64));
}

/// Simplicity score; the minimizer accepts a candidate only when this
/// strictly decreases.  Exponent distance from the bias dominates, then
/// mantissa complexity (distance from all-zeros or all-ones), then sign.
uint64_t scoreFields(const Fields &F) {
  FieldGeometry G = fieldGeometry(F.Format);
  uint64_t Bias = G.Bias();
  uint64_t ExpDist = F.Biased > Bias ? F.Biased - Bias : Bias - F.Biased;
  int Ones = popcount128(F.Mantissa);
  uint64_t MantCost =
      static_cast<uint64_t>(std::min(Ones, G.StoredBits - Ones));
  return ExpDist * 1000000 + MantCost * 10 + (F.Sign ? 1 : 0);
}

} // namespace

CorpusRecord dragon4::verify::minimizeRecord(const CorpusRecord &Record,
                                             size_t MaxProbes,
                                             DigitCore Core) {
  engine::Scratch S;
  Verdict Initial = replayRecord(Record, &S, Core);
  if (Initial.ok())
    return Record; // Nothing to minimize; leave the record alone.

  FieldGeometry G = fieldGeometry(Record.Bits.Format);
  const UInt128 MantMask = (UInt128(1) << G.StoredBits) - 1;
  Fields Best = splitFields(Record.Bits);
  // Restrict replay to the oracles that actually failed so shrinking tracks
  // one bug, not whichever unrelated failure a candidate happens to hit.
  unsigned Oracles = Initial.Failed ? Initial.Failed : Record.Oracles;
  Verdict BestVerdict = Initial;
  size_t Probes = 0;

  auto StillFails = [&](const Fields &F, Verdict &Out) {
    if (Probes >= MaxProbes)
      return false;
    ++Probes;
    CorpusRecord Probe;
    Probe.Bits = joinFields(F);
    Probe.Oracles = Oracles;
    Out = replayRecord(Probe, &S, Core);
    return !Out.ok();
  };

  bool Progress = true;
  while (Progress && Probes < MaxProbes) {
    Progress = false;
    std::vector<Fields> Candidates;
    auto Propose = [&](Fields F) { Candidates.push_back(F); };

    // Sign toward positive.
    if (Best.Sign) {
      Fields F = Best;
      F.Sign = false;
      Propose(F);
    }

    // Exponent toward the bias: jump straight there, then halve the
    // remaining distance so the accepted path is logarithmic.
    uint64_t Bias = G.Bias();
    if (Best.Biased != Bias) {
      Fields F = Best;
      F.Biased = Bias;
      Propose(F);
      F = Best;
      F.Biased = Best.Biased > Bias ? Best.Biased - (Best.Biased - Bias) / 2
                                    : Best.Biased + (Bias - Best.Biased) / 2;
      if (F.Biased != Best.Biased)
        Propose(F);
      F = Best;
      F.Biased = Best.Biased > Bias ? Best.Biased - 1 : Best.Biased + 1;
      Propose(F);
    }

    // Mantissa toward boundary forms.
    if (Best.Mantissa != 0) {
      for (UInt128 Form : {UInt128(0), UInt128(1), MantMask,
                           UInt128(1) << (G.StoredBits - 1)}) {
        if (Form != Best.Mantissa) {
          Fields F = Best;
          F.Mantissa = Form;
          Propose(F);
        }
      }
      // Clear the lowest set bit (peels isolated bits one at a time).
      Fields F = Best;
      F.Mantissa = Best.Mantissa & (Best.Mantissa - 1);
      Propose(F);
      // Halve (shifts the pattern toward the low-order end).
      F = Best;
      F.Mantissa = Best.Mantissa >> 1;
      Propose(F);
      // Smear downward by one (pushes patterns toward run-of-ones forms).
      F = Best;
      F.Mantissa = (Best.Mantissa | (Best.Mantissa >> 1)) & MantMask;
      if (F.Mantissa != Best.Mantissa)
        Propose(F);
    }

    uint64_t BestScore = scoreFields(Best);
    for (const Fields &F : Candidates) {
      if (scoreFields(F) >= BestScore)
        continue;
      Verdict V;
      if (StillFails(F, V)) {
        Best = F;
        BestVerdict = V;
        Progress = true;
        break; // Greedy: restart moves from the new best.
      }
    }
  }

  CorpusRecord Minimized;
  Minimized.Bits = joinFields(Best);
  Minimized.Oracles = Oracles;
  Minimized.Comment = BestVerdict.Detail;
  return Minimized;
}
