//===- perfbench/harness/common.h - Shared benchmark machinery -*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Clock, seeded generator, timing summaries, the in-memory span tracer and
/// the independent output checks shared by the four workloads.  Nothing in
/// this file includes a library header: the checks close over libstdc++
/// (std::to_chars / std::from_chars) and glibc (snprintf) only, so they
/// share no code with the paths they judge.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// splitmix64: a fixed, portable generator, so a seed names the same
/// inputs on every toolchain (std:: distributions are implementation
/// defined).
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, Bound).
  uint64_t below(uint64_t Bound) { return next() % Bound; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }
  /// Picks an index from cumulative-free weights summing to 1.
  size_t pick(const std::vector<double> &Weights) {
    double U = unit();
    for (size_t I = 0; I + 1 < Weights.size(); ++I) {
      if (U < Weights[I])
        return I;
      U -= Weights[I];
    }
    return Weights.size() - 1;
  }

private:
  uint64_t State;
};

/// Median, the highest percentile of {50, 75, 90, 95, 99, 99.9, 99.99}
/// with at least ten samples beyond it, and the sample count.
struct Summary {
  double Median = 0;
  double TailPercentile = 0; ///< 0 when fewer than 20 samples.
  double Tail = 0;
  size_t Count = 0;
};
Summary summarize(std::vector<double> Samples);

/// One timed chunk of calls into one layer.  Parent is the id of the
/// workload's chunk span (0 for a chunk span itself).
struct Span {
  uint32_t Id = 0;
  uint32_t Parent = 0;
  uint16_t Name = 0;
  uint16_t Thread = 0;
  uint32_t Values = 0; ///< Calls made inside the span.
  uint32_t Count = 0;  ///< Layer-specific outcome count (hits, fallbacks).
  uint64_t Start = 0;
  uint64_t End = 0;
};

/// Records spans in memory; written out once, when the run ends.
class Tracer {
public:
  uint16_t intern(const std::string &Name);
  const std::string &name(uint16_t Id) const { return Names[Id]; }

  /// Opens a span; close() stamps its end.  Returns its index.
  size_t open(uint16_t Name, uint32_t Parent, uint32_t Values) {
    Span S;
    S.Id = static_cast<uint32_t>(Spans.size() + 1);
    S.Parent = Parent;
    S.Name = Name;
    S.Values = Values;
    S.Start = nowNs();
    Spans.push_back(S);
    return Spans.size() - 1;
  }
  void close(size_t Index, uint32_t Count = 0) {
    Spans[Index].End = nowNs();
    Spans[Index].Count = Count;
  }
  /// Adds a span stamped elsewhere (pool worker chunks); assigns its id.
  void add(Span S) {
    S.Id = static_cast<uint32_t>(Spans.size() + 1);
    Spans.push_back(S);
  }
  uint32_t idOf(size_t Index) const { return Spans[Index].Id; }

  const std::vector<Span> &spans() const { return Spans; }

  /// Per parent chunk span named \p ChunkName: child spans by name.
  std::vector<std::map<std::string, const Span *>>
  chunks(const std::string &ChunkName) const;

  /// Writes one JSON object per span (JSON Lines).
  bool write(const std::string &Path) const;

private:
  std::vector<std::string> Names;
  std::vector<Span> Spans;
};

inline double nsPerValue(const Span &S) {
  return S.Values ? static_cast<double>(S.End - S.Start) / S.Values : 0.0;
}

//===-- Independent output checks -----------------------------------------===//

/// Significant digits of a decimal rendering: the mantissa's digits with
/// leading and trailing zeros stripped ("12300" -> 3, "0.00078" -> 2).
int significantDigits(std::string_view Text);

/// binary16 -> float, exact.
float halfToFloat(uint16_t Bits);

/// Rounds \p Value to the nearest binary16, ties to even (overflow gives
/// infinity).  Done here, not through the library's Binary16.
uint16_t roundToHalf(double Value);

/// Shortest round-tripping significant-digit count of a finite binary16,
/// found with glibc's correctly rounded "%.*e" and std::from_chars.
int halfShortestDigits(uint16_t Bits);

/// Checks one shortest-form output: it parses completely with
/// std::from_chars, reads back to exactly \p Bits, and has as many
/// significant digits as std::to_chars' shortest scientific form (for
/// binary16, halfShortestDigits).  Format: 0 = binary16, 1 = binary32,
/// 2 = binary64.
bool checkShortest(int Format, uint64_t Bits, std::string_view Output);

/// Spins for about \p Iterations calibrated loop turns (the planted delay
/// of the sensitivity self-check).
void spin(uint64_t Iterations);
/// Loop turns per nanosecond on the running machine, measured once.
double spinTurnsPerNs();

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
