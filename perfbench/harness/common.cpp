//===- perfbench/harness/common.cpp - Shared benchmark machinery ---------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "common.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>

namespace perfbench {

Summary summarize(std::vector<double> Samples) {
  Summary Out;
  Out.Count = Samples.size();
  if (Samples.empty())
    return Out;
  std::sort(Samples.begin(), Samples.end());
  auto at = [&](double Q) {
    // Nearest-rank on the sorted samples.
    size_t Rank = static_cast<size_t>(std::ceil(Q * Samples.size()));
    return Samples[Rank == 0 ? 0 : Rank - 1];
  };
  const size_t N = Samples.size();
  Out.Median = N % 2 ? Samples[N / 2]
                     : 0.5 * (Samples[N / 2 - 1] + Samples[N / 2]);
  for (double P : {99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(N) * (100.0 - P) / 100.0 >= 10.0) {
      Out.TailPercentile = P;
      Out.Tail = at(P / 100.0);
      break;
    }
  }
  return Out;
}

uint16_t Tracer::intern(const std::string &Name) {
  for (size_t I = 0; I < Names.size(); ++I)
    if (Names[I] == Name)
      return static_cast<uint16_t>(I);
  Names.push_back(Name);
  return static_cast<uint16_t>(Names.size() - 1);
}

std::vector<std::map<std::string, const Span *>>
Tracer::chunks(const std::string &ChunkName) const {
  std::vector<std::map<std::string, const Span *>> Out;
  std::unordered_map<uint32_t, size_t> Slot; // Parent id -> Out index.
  for (const Span &S : Spans) {
    if (S.Parent == 0) {
      if (Names[S.Name] == ChunkName) {
        Slot[S.Id] = Out.size();
        Out.emplace_back();
      }
      continue;
    }
    auto It = Slot.find(S.Parent);
    if (It != Slot.end())
      Out[It->second][Names[S.Name]] = &S;
  }
  return Out;
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (const Span &S : Spans)
    std::fprintf(F,
                 "{\"id\":%u,\"parent\":%u,\"name\":\"%s\",\"thread\":%u,"
                 "\"start_ns\":%llu,\"end_ns\":%llu,\"values\":%u,"
                 "\"count\":%u}\n",
                 S.Id, S.Parent, Names[S.Name].c_str(), S.Thread,
                 static_cast<unsigned long long>(S.Start),
                 static_cast<unsigned long long>(S.End), S.Values, S.Count);
  return std::fclose(F) == 0;
}

int significantDigits(std::string_view Text) {
  std::string Digits;
  for (char C : Text) {
    if (C == 'e' || C == 'E')
      break;
    if (C >= '0' && C <= '9')
      Digits.push_back(C);
  }
  size_t First = Digits.find_first_not_of('0');
  if (First == std::string::npos)
    return 0;
  size_t Last = Digits.find_last_not_of('0');
  return static_cast<int>(Last - First + 1);
}

float halfToFloat(uint16_t Bits) {
  const int Exponent = (Bits >> 10) & 0x1f;
  const int Mantissa = Bits & 0x3ff;
  float Magnitude = Exponent == 0
                        ? std::ldexp(static_cast<float>(Mantissa), -24)
                        : std::ldexp(static_cast<float>(Mantissa | 0x400),
                                     Exponent - 25);
  return (Bits & 0x8000) ? -Magnitude : Magnitude;
}

uint16_t roundToHalf(double Value) {
  const uint16_t Sign = std::signbit(Value) ? 0x8000 : 0;
  const double A = std::fabs(Value);
  if (A >= 65520.0) // Halfway between 65504 and 2^16 rounds to even: inf.
    return Sign | 0x7c00;
  if (A < 0x1p-14) {
    // Subnormal range: a multiple of 2^-24; nearbyint rounds ties to even.
    // A result of 1024 is the smallest normal's encoding, as it should be.
    return Sign | static_cast<uint16_t>(std::nearbyint(A * 0x1p24));
  }
  int Exp2 = 0;
  std::frexp(A, &Exp2); // A = f * 2^Exp2, f in [0.5, 1).
  int E = Exp2 - 1;     // A in [2^E, 2^(E+1)).
  double M = std::nearbyint(std::ldexp(A, 10 - E)); // In [1024, 2048].
  if (M == 2048.0) {
    M = 1024.0;
    ++E;
  }
  if (E + 15 >= 31)
    return Sign | 0x7c00;
  return Sign | static_cast<uint16_t>(((E + 15) << 10) |
                                      (static_cast<int>(M) - 1024));
}

int halfShortestDigits(uint16_t Bits) {
  static std::vector<int8_t> Cache(1 << 16, -1);
  int8_t &Slot = Cache[Bits];
  if (Slot >= 0)
    return Slot;
  const double Value = halfToFloat(Bits);
  // Only the n-digit decimals just below and just above the value can read
  // back to it; they are the correctly rounded one and its neighbours (the
  // rounding interval is asymmetric at powers of two, so a tie broken to
  // the wrong side must not hide the other).
  for (int N = 1; N <= 17; ++N) {
    char Text[64];
    std::snprintf(Text, sizeof Text, "%.*e", N - 1, Value);
    const char *Marker = std::strchr(Text, 'e');
    long long Mantissa = 0;
    for (const char *P = Text; P < Marker; ++P)
      if (*P >= '0' && *P <= '9')
        Mantissa = Mantissa * 10 + (*P - '0');
    const int Exponent = std::atoi(Marker + 1) - (N - 1);
    for (long long Candidate : {Mantissa - 1, Mantissa, Mantissa + 1}) {
      if (Candidate <= 0)
        continue;
      char Digits[64];
      const int Len = std::snprintf(Digits, sizeof Digits, "%llde%d",
                                    Candidate, Exponent);
      double Back = 0;
      std::from_chars(Digits, Digits + Len, Back);
      if (roundToHalf(std::copysign(Back, Value)) == Bits) {
        Slot = static_cast<int8_t>(significantDigits(Digits));
        return Slot;
      }
    }
  }
  Slot = 0;
  return Slot;
}

bool checkShortest(int Format, uint64_t Bits, std::string_view Output) {
  const char *Begin = Output.data();
  const char *End = Begin + Output.size();
  char Shortest[64];
  // Plain std::to_chars may print a large integer's exact digits when that
  // is no longer than the shortest form, so the digit count comes from the
  // scientific shortest form.
  auto countOf = [&](auto Value) {
    auto R = std::to_chars(Shortest, Shortest + sizeof Shortest, Value,
                           std::chars_format::scientific);
    return significantDigits({Shortest, static_cast<size_t>(R.ptr - Shortest)});
  };
  int Expected = 0;
  switch (Format) {
  case 0: {
    double Back = 0;
    auto [Ptr, Ec] = std::from_chars(Begin, End, Back);
    if (Ec != std::errc() || Ptr != End || roundToHalf(Back) != Bits)
      return false;
    Expected = halfShortestDigits(static_cast<uint16_t>(Bits));
    break;
  }
  case 1: {
    float Back = 0;
    auto [Ptr, Ec] = std::from_chars(Begin, End, Back);
    uint32_t BackBits;
    std::memcpy(&BackBits, &Back, sizeof BackBits);
    if (Ec != std::errc() || Ptr != End || BackBits != Bits)
      return false;
    Expected = countOf(Back);
    break;
  }
  default: {
    double Back = 0;
    auto [Ptr, Ec] = std::from_chars(Begin, End, Back);
    uint64_t BackBits;
    std::memcpy(&BackBits, &Back, sizeof BackBits);
    if (Ec != std::errc() || Ptr != End || BackBits != Bits)
      return false;
    Expected = countOf(Back);
    break;
  }
  }
  return significantDigits(Output) == Expected;
}

void spin(uint64_t Iterations) {
  for (uint64_t I = 0; I < Iterations; ++I)
    asm volatile("" ::: "memory");
}

double spinTurnsPerNs() {
  constexpr uint64_t Turns = 1u << 24;
  spin(Turns / 16); // Warm the frequency governor.
  double Best = 0;
  for (int Rep = 0; Rep < 5; ++Rep) {
    uint64_t Start = nowNs();
    spin(Turns);
    double Rate = static_cast<double>(Turns) / (nowNs() - Start);
    Best = std::max(Best, Rate);
  }
  return Best;
}

} // namespace perfbench
