//===- perfbench/harness/workloads.cpp - Helpers shared by workloads -----===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "workloads.h"

namespace perfbench {

/// More chunks than one process times in 30 s (no chunk takes under
/// 20 us); only the pages a run writes become resident.
constexpr size_t MaxSamples = size_t(1) << 21;

void ChunkedWorkload::run(uint64_t DeadlineNs, Results &R) {
  // Address space for every sample up front: growing the vectors would add
  // copy peaks, whose size follows the host's speed, to peak_rss_mb.
  R.LibNs.reserve(MaxSamples);
  R.RefNs.reserve(MaxSamples);
  warmUp();
  for (uint64_t Round = 0; nowNs() < DeadlineNs; ++Round) {
    const size_t Begin = nextChunk();
    uint64_t Lib, Ref;
    if (Round & 1) {
      Lib = timeLib(Begin);
      Ref = timeRef(Begin);
    } else {
      Ref = timeRef(Begin);
      Lib = timeLib(Begin);
    }
    R.LibNs.push_back(static_cast<double>(Lib) / ChunkSize);
    R.RefNs.push_back(static_cast<double>(Ref) / ChunkSize);
    R.Failed += failures(Begin);
    R.Attempted += ChunkSize;
  }
}

double medianChildNs(
    const std::vector<std::map<std::string, const Span *>> &Chunks,
    const std::string &Child) {
  std::vector<double> Samples;
  for (const auto &C : Chunks) {
    auto It = C.find(Child);
    if (It != C.end())
      Samples.push_back(nsPerValue(*It->second));
  }
  return summarize(std::move(Samples)).Median;
}

double medianSelfNs(
    const std::vector<std::map<std::string, const Span *>> &Chunks,
    const std::string &Child, const std::vector<std::string> &Deeper) {
  std::vector<double> Samples;
  for (const auto &C : Chunks) {
    auto It = C.find(Child);
    if (It == C.end())
      continue;
    double Self = nsPerValue(*It->second);
    bool Complete = true;
    for (const std::string &D : Deeper) {
      auto Sub = C.find(D);
      if (Sub == C.end()) {
        Complete = false;
        break;
      }
      Self -= nsPerValue(*Sub->second);
    }
    if (Complete)
      Samples.push_back(Self);
  }
  return summarize(std::move(Samples)).Median;
}

double childShare(
    const std::vector<std::map<std::string, const Span *>> &Chunks,
    const std::string &Child) {
  uint64_t Count = 0, Values = 0;
  for (const auto &C : Chunks) {
    auto It = C.find(Child);
    if (It == C.end())
      continue;
    Count += It->second->Count;
    Values += It->second->Values;
  }
  return Values ? static_cast<double>(Count) / Values : 0.0;
}

std::string decimalText(Rng &G, int MaxDigits, int MinScale, int MaxScale) {
  const int Digits = 1 + static_cast<int>(G.below(MaxDigits));
  std::string Mantissa(1, static_cast<char>('1' + G.below(9)));
  for (int I = 1; I < Digits; ++I)
    Mantissa.push_back(static_cast<char>('0' + G.below(10)));
  // Leading digit at 10^Scale.
  const int Scale =
      MinScale + static_cast<int>(G.below(MaxScale - MinScale + 1));
  std::string Text = G.below(4) == 0 ? "-" : "";
  if (Scale < 0) {
    Text += "0.";
    Text.append(static_cast<size_t>(-Scale - 1), '0');
    Text += Mantissa;
  } else if (Scale + 1 >= Digits) {
    Text += Mantissa;
    Text.append(static_cast<size_t>(Scale + 1 - Digits), '0');
  } else {
    Text += Mantissa.substr(0, Scale + 1);
    Text += '.';
    Text += Mantissa.substr(Scale + 1);
  }
  return Text;
}

} // namespace perfbench
