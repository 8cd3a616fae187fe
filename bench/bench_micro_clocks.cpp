//===- bench/bench_micro_clocks.cpp - Clock primitive microbenches ----------=/
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks of the clock primitives underlying the
/// engines: vector-clock join/copy/compare, ordered-list point operations,
/// prefix traversal and the ahead count that gates it, deep copies, and
/// tree-clock joins — across the
/// clock sizes that matter (8 to 256 threads, 256 being TSan's fixed clock
/// size).
///
//===----------------------------------------------------------------------===//

#include "sampletrack/support/OrderedList.h"
#include "sampletrack/support/Rng.h"
#include "sampletrack/support/TreeClock.h"
#include "sampletrack/support/VectorClock.h"

#include <benchmark/benchmark.h>

using namespace sampletrack;

namespace {

VectorClock randomClock(size_t N, uint64_t Seed) {
  SplitMix64 Rng(Seed);
  VectorClock C(N);
  for (ThreadId T = 0; T < N; ++T)
    C.set(T, Rng.nextBelow(1000));
  return C;
}

void BM_VectorClockJoin(benchmark::State &State) {
  size_t N = State.range(0);
  VectorClock A = randomClock(N, 1), B = randomClock(N, 2);
  for (auto _ : State) {
    A.joinWith(B);
    benchmark::DoNotOptimize(A);
  }
}
BENCHMARK(BM_VectorClockJoin)->Arg(8)->Arg(64)->Arg(256);

void BM_VectorClockLeq(benchmark::State &State) {
  size_t N = State.range(0);
  VectorClock A = randomClock(N, 1), B = A;
  for (auto _ : State)
    benchmark::DoNotOptimize(A.leq(B));
}
BENCHMARK(BM_VectorClockLeq)->Arg(8)->Arg(64)->Arg(256);

void BM_VectorClockCopy(benchmark::State &State) {
  size_t N = State.range(0);
  VectorClock A = randomClock(N, 1), B(N);
  for (auto _ : State) {
    B.copyFrom(A);
    benchmark::DoNotOptimize(B);
  }
}
BENCHMARK(BM_VectorClockCopy)->Arg(8)->Arg(64)->Arg(256);

void BM_OrderedListSet(benchmark::State &State) {
  size_t N = State.range(0);
  OrderedList O(N);
  SplitMix64 Rng(3);
  ClockValue V = 0;
  for (auto _ : State) {
    O.set(static_cast<ThreadId>(Rng.nextBelow(N)), ++V);
    benchmark::DoNotOptimize(O);
  }
}
BENCHMARK(BM_OrderedListSet)->Arg(8)->Arg(64)->Arg(256);

void BM_OrderedListVisitPrefix(benchmark::State &State) {
  size_t N = 256;
  size_t K = State.range(0);
  OrderedList O(N);
  SplitMix64 Rng(4);
  for (int I = 0; I < 1000; ++I)
    O.set(static_cast<ThreadId>(Rng.nextBelow(N)), I);
  for (auto _ : State) {
    uint64_t Sum = 0;
    O.visitPrefix(K, [&](ThreadId, ClockValue V) { Sum += V; });
    benchmark::DoNotOptimize(Sum);
  }
}
BENCHMARK(BM_OrderedListVisitPrefix)->Arg(1)->Arg(6)->Arg(64)->Arg(256);

void BM_CountAhead(benchmark::State &State) {
  // SO's acquire gate: the one kernel pass that counts a releaser's list
  // entries ahead of an acquirer's, over the whole width. Set against
  // VisitPrefix's per-entry price, it gives the gate's break-even prefix.
  size_t N = State.range(0);
  OrderedList Src(N), Acq(N);
  SplitMix64 Rng(6);
  for (int I = 0; I < 1000; ++I) {
    Src.set(static_cast<ThreadId>(Rng.nextBelow(N)), I);
    Acq.set(static_cast<ThreadId>(Rng.nextBelow(N)), I);
  }
  for (auto _ : State)
    benchmark::DoNotOptimize(simd::countGreater(Src.data(), Acq.data(), N));
}
BENCHMARK(BM_CountAhead)->Arg(8)->Arg(64)->Arg(256);

void BM_OrderedListDeepCopy(benchmark::State &State) {
  size_t N = State.range(0);
  OrderedList O(N);
  SplitMix64 Rng(5);
  for (int I = 0; I < 100; ++I)
    O.set(static_cast<ThreadId>(Rng.nextBelow(N)), I);
  for (auto _ : State) {
    OrderedList Copy(O);
    benchmark::DoNotOptimize(Copy);
  }
}
BENCHMARK(BM_OrderedListDeepCopy)->Arg(8)->Arg(64)->Arg(256);

void BM_TreeClockJoinFresh(benchmark::State &State) {
  // Join where the source root is ahead by one epoch: the common case in a
  // lock handoff chain.
  size_t N = State.range(0);
  TreeClock A(N, 0), B(N, 1);
  ClockValue V = 1;
  for (auto _ : State) {
    B.setRootTime(++V);
    unsigned Work = A.joinFrom(B);
    benchmark::DoNotOptimize(Work);
  }
}
BENCHMARK(BM_TreeClockJoinFresh)->Arg(8)->Arg(64)->Arg(256);

void BM_TreeClockJoinSubsumed(benchmark::State &State) {
  // The O(1) fast path: nothing new to learn.
  size_t N = State.range(0);
  TreeClock A(N, 0), B(N, 1);
  B.setRootTime(5);
  A.joinFrom(B);
  for (auto _ : State)
    benchmark::DoNotOptimize(A.joinFrom(B));
}
BENCHMARK(BM_TreeClockJoinSubsumed)->Arg(8)->Arg(64)->Arg(256);

} // namespace

BENCHMARK_MAIN();
