//===- perfbench/harness/batch.cpp - Batch-pool workload -----------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// BatchEngine<double>::convert at 4 threads on batches of 4 Ki to 256 Ki
/// values (log-uniform sizes), each followed by a single-thread
/// std::to_chars pass over the same batch.  That reference pass is also the
/// serial phase between batches, during which the pool's workers park, so
/// the wake cost real callers pay is inside the measurement: dispatch and
/// wake latency weigh on small batches and fade on large ones.
///
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "engine/batch.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstring>
#include <span>

namespace perfbench {
namespace {

namespace engine = dragon4::engine;

constexpr size_t Count = size_t(1) << 20;
constexpr size_t MinBatch = size_t(1) << 12;
constexpr size_t MaxBatch = size_t(1) << 18;
constexpr size_t Batches = 1024; ///< Seeded batch descriptors, cycled.
constexpr size_t Slot = 32;
constexpr unsigned Threads = 4;
constexpr unsigned MaxTracked = 8; ///< Threads that may run pool chunks.

/// A small stable index per thread that runs a traced pool chunk.
unsigned threadIndex() {
  static std::atomic<unsigned> Next{0};
  thread_local unsigned Index = Next.fetch_add(1);
  return Index;
}

class Batch final : public Workload {
public:
  void generate(uint64_t Seed, Results &R) override {
    Rng G(Seed);
    Values.resize(Count);
    size_t DecimalCount = 0;
    for (double &V : Values) {
      if (G.below(3) == 0) { // A third of decimal origin, as in shortest.
        ++DecimalCount;
        std::string Text = decimalText(G, 7, -4, 9);
        std::from_chars(Text.data(), Text.data() + Text.size(), V);
        continue;
      }
      uint64_t Bits;
      do
        Bits = G.next();
      while (((Bits >> 52) & 0x7ff) == 0x7ff || (Bits << 1) == 0);
      std::memcpy(&V, &Bits, sizeof V);
    }
    const double LogMin = std::log(static_cast<double>(MinBatch));
    const double LogMax = std::log(static_cast<double>(MaxBatch));
    double SizeSum = 0;
    for (size_t I = 0; I < Batches; ++I) {
      size_t Size = static_cast<size_t>(
          std::exp(LogMin + G.unit() * (LogMax - LogMin)));
      Size = std::clamp(Size, MinBatch, MaxBatch);
      Plan.push_back({static_cast<size_t>(G.below(Count - Size + 1)), Size});
      SizeSum += static_cast<double>(Size);
    }
    R.Inputs.emplace_back("b64_uniform",
                          1.0 - static_cast<double>(DecimalCount) / Count);
    R.Inputs.emplace_back("b64_decimal",
                          static_cast<double>(DecimalCount) / Count);
    R.Inputs.emplace_back("mean_batch_values", SizeSum / Batches);
    RefOut.resize(MaxBatch * Slot);
  }

  void coldSetup() override {
    Cold = std::make_unique<engine::BatchEngine<double>>(Threads);
    ColdTable = std::make_unique<engine::StringTable>();
    Cold->convert(ColdValues, *ColdTable);
  }
  void coldTeardown() override {
    Cold.reset();
    ColdTable.reset();
  }

  void run(uint64_t DeadlineNs, Results &R) override {
    engine::BatchEngine<double> Engine(Threads);
    Engine.convert(nextBatch(), Table); // Warm the worker scratches.
    while (nowNs() < DeadlineNs) {
      const std::span<const double> B = nextBatch();
      const uint64_t Start = nowNs();
      Engine.convert(B, Table);
      const uint64_t Lib = nowNs() - Start;
      const uint64_t Ref = timeRef(B);
      R.LibNs.push_back(static_cast<double>(Lib) / B.size());
      R.RefNs.push_back(static_cast<double>(Ref) / B.size());
      R.BatchWallUs.push_back(static_cast<double>(Lib) / 1e3);
      R.Failed += failures(B);
      R.Attempted += B.size();
    }
  }

  double trace(uint64_t DeadlineNs, Tracer &T, Results &R) override {
    const uint16_t BatchName = T.intern("batch.batch");
    const uint16_t Convert4 = T.intern("engine.batch_4t");
    const uint16_t Convert1 = T.intern("engine.batch_1t");
    const uint16_t PoolFor = T.intern("engine.pool_for");
    const uint16_t PoolChunk = T.intern("engine.pool_chunk");
    const uint16_t Ref = T.intern("batch.ref_to_chars");
    engine::BatchEngine<double> Engine(Threads);
    engine::BatchEngine<double> Single(1);
    std::vector<std::vector<Span>> Stamps(MaxTracked);
    const unsigned Caller = threadIndex();
    const size_t Stride = engine::shortestSlotSize<double>(10);
    Engine.convert(nextBatch(), Table);
    Single.convert(nextBatch(), Table);
    while (nowNs() < DeadlineNs) {
      const std::span<const double> B = nextBatch();
      const uint32_t N = static_cast<uint32_t>(B.size());
      const size_t P = T.open(BatchName, 0, N);
      const uint32_t Pid = T.idOf(P);

      // The pool's own dispatch, with every chunk stamped by this callback.
      Table.reset(B.size(), Stride);
      size_t Span = T.open(PoolFor, Pid, N);
      const uint32_t PoolId = T.idOf(Span);
      Engine.parallelFor(B.size(), [&](size_t Begin, size_t End,
                                       engine::Scratch &S) {
        perfbench::Span C;
        C.Start = nowNs();
        for (size_t I = Begin; I < End; ++I)
          Table.setLength(I, engine::format(B[I], Table.slot(I), Stride, S));
        C.End = nowNs();
        C.Values = static_cast<uint32_t>(End - Begin);
        C.Thread = static_cast<uint16_t>(threadIndex());
        if (C.Thread < MaxTracked)
          Stamps[C.Thread].push_back(C);
      });
      T.close(Span);
      for (std::vector<perfbench::Span> &Buffer : Stamps) {
        for (perfbench::Span C : Buffer) {
          C.Parent = PoolId;
          C.Name = PoolChunk;
          T.add(C);
        }
        Buffer.clear();
      }

      Span = T.open(Convert1, Pid, N);
      Single.convert(B, Table);
      T.close(Span);

      Span = T.open(Convert4, Pid, N);
      Engine.convert(B, Table);
      T.close(Span);

      Span = T.open(Ref, Pid, N);
      timeRef(B);
      T.close(Span);
      T.close(P);
      R.Failed += failures(B);
      R.Attempted += B.size();
    }

    const auto Chunks = T.chunks("batch.batch");
    auto &L = R.Layers;
    L["engine.batch_4t_ns"] = medianChildNs(Chunks, "engine.batch_4t");
    L["engine.batch_1t_ns"] = medianChildNs(Chunks, "engine.batch_1t");
    L["engine.pool_scaling"] =
        L["engine.batch_1t_ns"] / L["engine.batch_4t_ns"];

    // Dispatch -> first chunk of each woken worker, and busy share, from
    // the pool chunk spans under each pool_for span.
    std::map<uint32_t, const perfbench::Span *> Pools;
    for (const perfbench::Span &S : T.spans())
      if (S.Name == PoolFor)
        Pools[S.Id] = &S;
    std::map<std::pair<uint32_t, unsigned>, uint64_t> FirstStart;
    double BusyNs = 0, WallNs = 0;
    for (const perfbench::Span &S : T.spans()) {
      if (S.Name != PoolChunk)
        continue;
      BusyNs += static_cast<double>(S.End - S.Start);
      if (S.Thread == Caller)
        continue;
      auto Key = std::make_pair(S.Parent, static_cast<unsigned>(S.Thread));
      auto It = FirstStart.find(Key);
      if (It == FirstStart.end() || S.Start < It->second)
        FirstStart[Key] = S.Start;
    }
    for (const auto &[Id, S] : Pools)
      WallNs += static_cast<double>(S->End - S->Start);
    std::vector<double> FirstUs;
    for (const auto &[Key, Start] : FirstStart)
      FirstUs.push_back(static_cast<double>(Start - Pools[Key.first]->Start) /
                        1e3);
    const Summary First = summarize(FirstUs);
    L["engine.pool_first_chunk_us_p50"] = First.Median;
    L["engine.pool_first_chunk_us_max"] =
        FirstUs.empty() ? 0.0
                        : *std::max_element(FirstUs.begin(), FirstUs.end());
    L["engine.pool_busy_share"] = WallNs > 0 ? BusyNs / (Threads * WallNs) : 0;
    R.LayerTimings.emplace_back("engine.pool_first_chunk_us", First);
    return L["engine.batch_4t_ns"] /
           medianChildNs(Chunks, "batch.ref_to_chars");
  }

private:
  struct Descriptor {
    size_t Offset;
    size_t Size;
  };

  std::span<const double> nextBatch() {
    const Descriptor &D = Plan[Cursor++ % Plan.size()];
    return {Values.data() + D.Offset, D.Size};
  }

  uint64_t timeRef(std::span<const double> B) {
    const uint64_t Start = nowNs();
    for (size_t I = 0; I < B.size(); ++I)
      std::to_chars(&RefOut[I * Slot], &RefOut[I * Slot] + Slot, B[I]);
    return nowNs() - Start;
  }

  /// The shortest-form check on every slot of the last converted batch.
  uint64_t failures(std::span<const double> B) const {
    uint64_t Failed = 0;
    for (size_t I = 0; I < B.size(); ++I) {
      uint64_t Bits;
      std::memcpy(&Bits, &B[I], sizeof Bits);
      Failed += Table.length(I) > Table.strideBytes() ||
                !checkShortest(2, Bits, Table.view(I));
    }
    return Failed;
  }

  std::vector<double> Values;
  std::vector<Descriptor> Plan;
  engine::StringTable Table;
  std::vector<char> RefOut;
  std::unique_ptr<engine::BatchEngine<double>> Cold;
  std::unique_ptr<engine::StringTable> ColdTable;
  /// The set-up batch: fixed, so a set-up process needs no generated input.
  const std::vector<double> ColdValues = [] {
    std::vector<double> V(MinBatch);
    for (size_t I = 0; I < V.size(); ++I)
      V[I] = 0.1 + 0.37 * static_cast<double>(I);
    return V;
  }();
  size_t Cursor = 0;
};

} // namespace

std::unique_ptr<Workload> makeBatch() { return std::make_unique<Batch>(); }

} // namespace perfbench
