//===- tests/RuntimeTest.cpp - Online runtime tests ------------------------==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concurrency tests for the online runtime: seeded races must be found,
/// well-locked programs must stay race-free under every analysis mode, and
/// metric invariants must hold under multithreaded stress. Single-threaded
/// cases pin shadow-cell eviction and the normalization of degenerate
/// table sizes.
///
//===----------------------------------------------------------------------===//

#include "sampletrack/runtime/Runtime.h"

#include "sampletrack/support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

using namespace sampletrack;
using namespace sampletrack::rt;

namespace {

Config makeConfig(Mode M, double Rate = 1.0, uint64_t Seed = 1) {
  Config C;
  C.AnalysisMode = M;
  C.SamplingRate = Rate;
  C.Seed = Seed;
  C.MaxThreads = 16;
  return C;
}

class AllAnalysisModes : public ::testing::TestWithParam<Mode> {};

} // namespace

TEST_P(AllAnalysisModes, SeededRaceIsDetected) {
  Mode M = GetParam();
  Runtime Rt(makeConfig(M));
  uint64_t Shared = 0;
  uint64_t Addr = reinterpret_cast<uint64_t>(&Shared);

  ThreadId A = Rt.registerThread();
  ThreadId B = Rt.registerThread();
  Rt.onFork(0, A);
  Rt.onFork(0, B);
  std::thread Ta([&] {
    Rt.onWrite(A, Addr);
    reinterpret_cast<std::atomic<uint64_t> &>(Shared).fetch_add(1);
  });
  std::thread Tb([&] {
    Rt.onWrite(B, Addr);
    reinterpret_cast<std::atomic<uint64_t> &>(Shared).fetch_add(1);
  });
  Ta.join();
  Tb.join();
  Rt.onJoin(0, A);
  Rt.onJoin(0, B);

  if (M == Mode::NT || M == Mode::ET) {
    EXPECT_EQ(Rt.raceCount(), 0u);
  } else {
    // The two writes are HB-unordered; whichever hook runs second must
    // declare the race (sampling modes run at rate 1.0 here).
    EXPECT_GE(Rt.raceCount(), 1u);
    EXPECT_EQ(Rt.racyLocationCount(), 1u);
  }
}

TEST_P(AllAnalysisModes, LockedCounterIsRaceFree) {
  Mode M = GetParam();
  Runtime Rt(makeConfig(M));
  Mutex Lock(Rt);
  uint64_t Counter = 0;
  uint64_t Addr = reinterpret_cast<uint64_t>(&Counter);

  constexpr size_t NumWorkers = 6;
  constexpr size_t Iters = 400;
  std::vector<ThreadId> Tids;
  for (size_t W = 0; W < NumWorkers; ++W) {
    ThreadId T = Rt.registerThread();
    Rt.onFork(0, T);
    Tids.push_back(T);
  }
  std::vector<std::thread> Workers;
  for (size_t W = 0; W < NumWorkers; ++W) {
    Workers.emplace_back([&, W] {
      for (size_t I = 0; I < Iters; ++I) {
        Lock.lock(Tids[W]);
        Rt.onRead(Tids[W], Addr);
        uint64_t V = Counter;
        Rt.onWrite(Tids[W], Addr);
        Counter = V + 1;
        Lock.unlock(Tids[W]);
      }
    });
  }
  for (size_t W = 0; W < NumWorkers; ++W) {
    Workers[W].join();
    Rt.onJoin(0, Tids[W]);
  }

  EXPECT_EQ(Counter, NumWorkers * Iters);
  EXPECT_EQ(Rt.raceCount(), 0u) << "false positive in mode "
                                << modeName(M);
}

TEST_P(AllAnalysisModes, StressManyLocksManyThreadsNoFalsePositives) {
  Mode M = GetParam();
  Runtime Rt(makeConfig(M, /*Rate=*/0.5, /*Seed=*/42));
  constexpr size_t NumLocks = 8;
  constexpr size_t NumWorkers = 8;
  constexpr size_t Iters = 500;

  std::vector<std::unique_ptr<Mutex>> Locks;
  for (size_t L = 0; L < NumLocks; ++L)
    Locks.push_back(std::make_unique<Mutex>(Rt));
  // One data word per lock; accessed only under its lock.
  std::vector<uint64_t> Data(NumLocks, 0);

  std::vector<ThreadId> Tids;
  for (size_t W = 0; W < NumWorkers; ++W) {
    ThreadId T = Rt.registerThread();
    Rt.onFork(0, T);
    Tids.push_back(T);
  }
  std::vector<std::thread> Workers;
  for (size_t W = 0; W < NumWorkers; ++W) {
    Workers.emplace_back([&, W] {
      SplitMix64 Rng(W * 7 + 1);
      for (size_t I = 0; I < Iters; ++I) {
        size_t L = Rng.nextBelow(NumLocks);
        Locks[L]->lock(Tids[W]);
        uint64_t Addr = reinterpret_cast<uint64_t>(&Data[L]);
        Rt.onRead(Tids[W], Addr);
        uint64_t V = Data[L];
        Rt.onWrite(Tids[W], Addr);
        Data[L] = V + 1;
        Locks[L]->unlock(Tids[W]);
      }
    });
  }
  for (size_t W = 0; W < NumWorkers; ++W) {
    Workers[W].join();
    Rt.onJoin(0, Tids[W]);
  }

  EXPECT_EQ(Rt.raceCount(), 0u);
  uint64_t Sum = 0;
  for (uint64_t V : Data)
    Sum += V;
  EXPECT_EQ(Sum, NumWorkers * Iters);

  Metrics Agg = Rt.aggregatedMetrics();
  if (M != Mode::NT && M != Mode::ET) {
    EXPECT_EQ(Agg.AcquiresSkipped + Agg.AcquiresProcessed,
              Agg.AcquiresTotal);
    EXPECT_LE(Agg.ReleasesSkipped + Agg.ReleasesProcessed,
              Agg.ReleasesTotal);
    EXPECT_GE(Agg.AcquiresTotal, NumWorkers * Iters);
  }
  if (M == Mode::SO) {
    EXPECT_LE(Agg.DeepCopies, Agg.ShallowCopies + NumWorkers);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, AllAnalysisModes,
                         ::testing::Values(Mode::NT, Mode::ET, Mode::FT,
                                           Mode::ST, Mode::SU, Mode::SO),
                         [](const ::testing::TestParamInfo<Mode> &Info) {
                           return modeName(Info.param);
                         });

TEST(RuntimeSampling, RateZeroNeverChecksAccesses) {
  Runtime Rt(makeConfig(Mode::SO, /*Rate=*/0.0));
  uint64_t X = 0;
  ThreadId A = Rt.registerThread();
  Rt.onFork(0, A);
  for (int I = 0; I < 100; ++I)
    Rt.onWrite(A, reinterpret_cast<uint64_t>(&X));
  Rt.onJoin(0, A);
  Metrics Agg = Rt.aggregatedMetrics();
  EXPECT_EQ(Agg.SampledAccesses, 0u);
  EXPECT_EQ(Agg.RaceChecks, 0u);
  EXPECT_EQ(Rt.raceCount(), 0u);
}

TEST(RuntimeSampling, SamplingSkipsReduceSyncWork) {
  // At a tiny sampling rate, SU must skip most acquire joins in a
  // ping-pong pattern (the Fig. 6(b) effect, online).
  Runtime Rt(makeConfig(Mode::SU, /*Rate=*/0.001, /*Seed=*/7));
  Mutex Lock(Rt);
  uint64_t X = 0;
  ThreadId A = Rt.registerThread();
  ThreadId B = Rt.registerThread();
  Rt.onFork(0, A);
  Rt.onFork(0, B);
  auto Work = [&](ThreadId T) {
    for (int I = 0; I < 2000; ++I) {
      Lock.lock(T);
      Rt.onRead(T, reinterpret_cast<uint64_t>(&X));
      Lock.unlock(T);
    }
  };
  std::thread Ta([&] { Work(A); });
  std::thread Tb([&] { Work(B); });
  Ta.join();
  Tb.join();
  Rt.onJoin(0, A);
  Rt.onJoin(0, B);

  Metrics Agg = Rt.aggregatedMetrics();
  EXPECT_GT(Agg.AcquiresSkipped, Agg.AcquiresTotal / 2)
      << "expected >50% of acquires skipped at 0.1% sampling";
}

//===----------------------------------------------------------------------===//
// Hook contention: the other multi-threaded cases hold an application
// lock around their accesses or make one access per thread, so two hooks
// rarely meet on one shadow cell. Here eight threads hammer one address
// and one sync object with no application lock at all: the runtime's own
// per-cell and per-sync locks are all that keeps the hooks apart (TSan
// sees any lapse), and the per-thread counters must still add up exactly.
//===----------------------------------------------------------------------===//

namespace {

class HookContention : public ::testing::TestWithParam<Mode> {};

} // namespace

TEST_P(HookContention, UnlockedHooksOnOneCellAndOneSyncObject) {
  constexpr ThreadId NumThreads = 8;
  constexpr uint64_t Rounds = 2000;
  // Only the hooks see this address; nothing reads or writes it.
  constexpr uint64_t Addr = 0x1000;
  const Mode M = GetParam();
  Runtime Rt(makeConfig(M));
  SyncId S = Rt.registerSync();
  std::vector<ThreadId> Tids;
  for (ThreadId I = 0; I < NumThreads; ++I) {
    Tids.push_back(Rt.registerThread());
    Rt.onFork(0, Tids.back());
  }

  std::atomic<size_t> Waiting{NumThreads};
  std::vector<std::thread> Workers;
  for (ThreadId T : Tids)
    Workers.emplace_back([&, T] {
      // Start together so the hooks overlap from the first round.
      Waiting.fetch_sub(1);
      while (Waiting.load() != 0)
        std::this_thread::yield();
      for (uint64_t R = 0; R < Rounds; ++R) {
        Rt.onWrite(T, Addr);
        Rt.onRead(T, Addr);
        Rt.onReleaseStore(T, S);
        Rt.onAcquireLoad(T, S);
      }
    });
  for (std::thread &W : Workers)
    W.join();
  for (ThreadId T : Tids)
    Rt.onJoin(0, T);

  const uint64_t Accesses = 2 * NumThreads * Rounds;
  Metrics Agg = Rt.aggregatedMetrics();
  EXPECT_EQ(Agg.Accesses, Accesses);
  // A fork counts as a release and a join as an acquire.
  EXPECT_EQ(Agg.ReleasesTotal, NumThreads * Rounds + NumThreads);
  EXPECT_EQ(Agg.AcquiresTotal, NumThreads * Rounds + NumThreads);
  if (M == Mode::FT) {
    EXPECT_EQ(Agg.SampledAccesses, 0u);
    EXPECT_GT(Agg.RaceChecks, 0u);
    EXPECT_LE(Agg.RaceChecks, Accesses);
  } else {
    // Rate 1.0 samples every access, and Algorithm 2 checks each one.
    EXPECT_EQ(Agg.SampledAccesses, Accesses);
    EXPECT_EQ(Agg.RaceChecks, Accesses);
  }
  // A thread's first write precedes its first acquire, so it is unordered
  // with every earlier thread's accesses to the address.
  EXPECT_GT(Rt.raceCount(), 0u);
  EXPECT_EQ(Rt.racyLocationCount(), 1u);
}

INSTANTIATE_TEST_SUITE_P(AnalysisModes, HookContention,
                         ::testing::Values(Mode::FT, Mode::ST, Mode::SU,
                                           Mode::SO),
                         [](const ::testing::TestParamInfo<Mode> &Info) {
                           return modeName(Info.param);
                         });

//===----------------------------------------------------------------------===//
// Shadow-cell collisions: with two cells, unrelated addresses evict each
// other's histories. An evicted history must be forgotten completely (a
// false negative at worst, never a fabricated race), and a reclaimed cell
// must keep detecting what it sees afterwards.
//===----------------------------------------------------------------------===//

namespace {

Config collidingConfig(Mode M) {
  Config C = makeConfig(M);
  C.ShadowCells = 2;
  return C;
}

/// The shadow cell \p Addr maps to in a two-cell runtime, read back from a
/// recorded ET run (recorded access events carry the cell index).
uint64_t cellOf(uint64_t Addr) {
  Config C = collidingConfig(Mode::ET);
  C.RecordTrace = true;
  Runtime Rt(C);
  Rt.onRead(0, Addr);
  Trace T = Rt.recordedTrace();
  return T[0].Target;
}

/// Two distinct addresses that share a shadow cell.
std::pair<uint64_t, uint64_t> collidingAddresses() {
  const uint64_t X = 0x10000;
  const uint64_t Cell = cellOf(X);
  for (uint64_t Y = X + 8;; Y += 8)
    if (cellOf(Y) == Cell)
      return {X, Y};
}

/// Registers threads 1..\p N and forks each from thread 0, so they are
/// pairwise concurrent until they synchronize.
void startThreads(Runtime &Rt, ThreadId N) {
  for (ThreadId T = 1; T <= N; ++T) {
    ASSERT_EQ(Rt.registerThread(), T);
    Rt.onFork(0, T);
  }
}

/// \p From's history so far happens-before \p To's next event.
void message(Runtime &Rt, ThreadId From, ThreadId To) {
  SyncId S = Rt.registerSync();
  Rt.onReleaseStore(From, S);
  Rt.onAcquireLoad(To, S);
}

class ShadowCollisions : public ::testing::TestWithParam<Mode> {};

/// Full-clock operations the accesses in \p Body perform: one per read
/// promotion, and one per write checked against a promoted read history.
template <typename Fn> uint64_t accessClockOps(Runtime &Rt, Fn Body) {
  uint64_t Before = Rt.aggregatedMetrics().FullClockOps;
  Body();
  return Rt.aggregatedMetrics().FullClockOps - Before;
}

} // namespace

TEST_P(ShadowCollisions, EvictedHistoryNeverRaces) {
  Runtime Rt(collidingConfig(GetParam()));
  auto [X, Y] = collidingAddresses();
  startThreads(Rt, 7);

  // X's history: 6's write, then reads by 4 and 5 (read-shared under FT),
  // all concurrent with threads 1 and 7.
  Rt.onWrite(6, X);
  message(Rt, 6, 4);
  message(Rt, 6, 5);
  Rt.onRead(5, X);
  Rt.onRead(4, X);
  ASSERT_EQ(Rt.raceCount(), 0u);

  // Y evicts X. 1's read starts Y's read history at index 1, below X's
  // stale components 4..6; 7's concurrent read then extends the prefix
  // past them (and promotes Y to read-shared under FT).
  Rt.onRead(1, Y);
  Rt.onRead(7, Y);
  message(Rt, 7, 1);
  // 1 has heard from 7: only a leftover of X's history could race here.
  Rt.onWrite(1, Y);
  EXPECT_EQ(Rt.raceCount(), 0u) << modeName(GetParam());
}

TEST_P(ShadowCollisions, GenuineRaceSurvivesEvictionCycle) {
  Runtime Rt(collidingConfig(GetParam()));
  auto [X, Y] = collidingAddresses();
  startThreads(Rt, 3);

  Rt.onWrite(1, X);
  Rt.onWrite(3, Y); // Evicts X.
  Rt.onWrite(1, X); // X reclaims the cell; its history restarts here.
  ASSERT_EQ(Rt.raceCount(), 0u);
  Rt.onWrite(2, X); // Concurrent with 1's second write.
  EXPECT_EQ(Rt.raceCount(), 1u) << modeName(GetParam());
  EXPECT_EQ(Rt.racyLocationCount(), 1u);
}

TEST_P(ShadowCollisions, PromotedHistoryIsForgottenOnReclaim) {
  Runtime Rt(collidingConfig(GetParam()));
  auto [X, Y] = collidingAddresses();
  startThreads(Rt, 7);

  // X's history: 3's write, then concurrent reads by 4 and 5, which
  // promote the cell's reads to the flat history (prefix [0, 6)).
  Rt.onWrite(3, X);
  message(Rt, 3, 4);
  message(Rt, 3, 5);
  EXPECT_EQ(accessClockOps(Rt, [&] {
              Rt.onRead(4, X);
              Rt.onRead(5, X);
            }),
            1u);

  // Y evicts X, and X comes back to an empty, unpromoted history: 6 heard
  // from none of 3, 4 and 5, so only a leftover could race with its write.
  Rt.onRead(1, Y);
  EXPECT_EQ(accessClockOps(Rt, [&] { Rt.onWrite(6, X); }), 0u);
  EXPECT_EQ(Rt.raceCount(), 0u) << modeName(GetParam());

  // 1 and 2 read after 6's write, concurrently: promoted again, prefix
  // [0, 3). 7 hears from both and reads, extending the prefix over words 4
  // and 5; its write is checked against the whole prefix, where only
  // unzeroed leftovers of 4's and 5's reads could race.
  message(Rt, 6, 1);
  message(Rt, 6, 2);
  EXPECT_EQ(accessClockOps(Rt, [&] {
              Rt.onRead(1, X);
              Rt.onRead(2, X);
            }),
            1u);
  message(Rt, 1, 7);
  message(Rt, 2, 7);
  Rt.onRead(7, X);
  EXPECT_EQ(accessClockOps(Rt, [&] { Rt.onWrite(7, X); }), 1u);
  EXPECT_EQ(Rt.raceCount(), 0u) << modeName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AnalysisModes, ShadowCollisions,
                         ::testing::Values(Mode::FT, Mode::ST, Mode::SU,
                                           Mode::SO),
                         [](const ::testing::TestParamInfo<Mode> &Info) {
                           return modeName(Info.param);
                         });

TEST(ShadowCollisionsFT, ReadSharedPromotionAndDemotionAfterReclaim) {
  Runtime Rt(collidingConfig(Mode::FT));
  auto [X, Y] = collidingAddresses();
  startThreads(Rt, 7);
  // Under FT, a promoted read history is the read-shared vector clock, and
  // the write checked against it demotes it.
  auto ClockOps = [&Rt](auto Body) { return accessClockOps(Rt, Body); };

  Rt.onRead(1, X);
  Rt.onRead(2, X); // Read-shared {1, 2}.
  Rt.onRead(3, Y); // Evicts X.
  // X reclaims the cell; concurrent reads promote it to read-shared {4, 5}.
  EXPECT_EQ(ClockOps([&] {
              Rt.onRead(4, X);
              Rt.onRead(5, X);
            }),
            1u);
  ASSERT_EQ(Rt.raceCount(), 0u);

  // 6 has heard from 4 but not 5: its write races with 5's read (the
  // read vector clock's compare) and demotes the cell.
  message(Rt, 4, 6);
  EXPECT_EQ(ClockOps([&] { Rt.onWrite(6, X); }), 1u);
  EXPECT_EQ(Rt.raceCount(), 1u);

  // 7 and 3 read after the write, concurrently: promoted again.
  message(Rt, 6, 7);
  message(Rt, 6, 3);
  EXPECT_EQ(ClockOps([&] {
              Rt.onRead(7, X);
              Rt.onRead(3, X);
            }),
            1u);
  EXPECT_EQ(Rt.raceCount(), 1u);

  // 2 hears from 7 and 3, and through them from 6 and 4 but not from 5:
  // only 5's read, had the demotion left it behind, could race here.
  message(Rt, 7, 2);
  message(Rt, 3, 2);
  EXPECT_EQ(ClockOps([&] { Rt.onWrite(2, X); }), 1u);
  EXPECT_EQ(Rt.raceCount(), 1u);
}

//===----------------------------------------------------------------------===//
// Degenerate sizing: the runtime normalizes values it cannot index with
// (no cells, zero threads) instead of relying on debug-only assertions.
//===----------------------------------------------------------------------===//

TEST(RuntimeConfigTest, DegenerateSizesAreNormalized) {
  struct Sizes {
    size_t MaxThreads, ShadowCells;
  };
  const Sizes Cases[] = {{0, 1 << 16}, {16, 0}, {16, 64}, {16, 3}, {0, 0}};
  for (Mode M : {Mode::NT, Mode::ET, Mode::FT, Mode::ST, Mode::SU,
                 Mode::SO}) {
    for (const Sizes &S : Cases) {
      Config C = makeConfig(M);
      C.MaxThreads = S.MaxThreads;
      C.ShadowCells = S.ShadowCells;
      Runtime Rt(C);
      const Config &Used = Rt.config();
      EXPECT_EQ(Used.MaxThreads, std::max<size_t>(S.MaxThreads, 1));
      EXPECT_EQ(Used.ShadowCells, std::max<size_t>(S.ShadowCells, 1));

      SyncId L = Rt.registerSync();
      Rt.onAcquire(0, L);
      Rt.onRead(0, 0x1000);
      Rt.onWrite(0, 0x2000);
      Rt.onWrite(0, 0x1000);
      Rt.onRelease(0, L);
      Rt.onReleaseStore(0, L);
      Rt.onAcquireLoad(0, L);
      EXPECT_EQ(Rt.raceCount(), 0u) << modeName(M);
    }
  }
}

//===----------------------------------------------------------------------===//
// Registration limits: past MaxThreads and the fixed sync table,
// registration returns NoThread / NoSync and every hook handed one of them
// (or any other id past a limit) is dropped. Nothing but these checks
// guards the tables, so this holds in Release builds too.
//===----------------------------------------------------------------------===//

TEST(RuntimeConfigTest, HooksDropIdsPastTheRegistrationLimits) {
  constexpr size_t MaxThreads = 3;
  const uint64_t X = 0x1000;
  for (Mode M : {Mode::NT, Mode::ET, Mode::FT, Mode::ST, Mode::SU,
                 Mode::SO}) {
    SCOPED_TRACE(modeName(M));
    // Two unordered writes to X, with or without every hook called on
    // out-of-range ids in between. Returns (races, recorded events).
    auto Run = [&](bool WithSentinels) {
      Config C = makeConfig(M);
      C.MaxThreads = MaxThreads;
      C.RecordTrace = true;
      Runtime Rt(C);
      // Thread 0 is pre-registered: MaxThreads more calls make
      // MaxThreads + 1 registrations, and the last one fails.
      std::vector<ThreadId> Tids = {0};
      for (size_t I = 0; I < MaxThreads; ++I)
        Tids.push_back(Rt.registerThread());
      for (size_t I = 0; I < MaxThreads; ++I)
        EXPECT_EQ(Tids[I], I);
      EXPECT_EQ(Tids[MaxThreads], NoThread);
      EXPECT_EQ(Rt.registerThread(), NoThread);
      // Sync ids are dense until the table is full, then NoSync.
      SyncId NumSyncs = 0;
      for (SyncId S; (S = Rt.registerSync()) != NoSync; ++NumSyncs)
        EXPECT_EQ(S, NumSyncs);
      EXPECT_GT(NumSyncs, 0u);
      EXPECT_EQ(Rt.registerSync(), NoSync);

      ThreadId A = Tids[1], B = Tids[2];
      Rt.onFork(0, A);
      Rt.onFork(0, B);
      Rt.onWrite(A, X);
      if (WithSentinels) {
        for (ThreadId T : {NoThread, ThreadId(MaxThreads)}) {
          Rt.onRead(T, X);
          Rt.onWrite(T, X);
          Rt.onAcquire(T, 0);
          Rt.onRelease(T, 0);
          Rt.onReleaseStore(T, 0);
          Rt.onReleaseJoin(T, 0);
          Rt.onAcquireLoad(T, 0);
          Rt.onFork(A, T);
          Rt.onFork(T, B);
          Rt.onJoin(B, T);
          Rt.onJoin(T, A);
        }
        for (SyncId L : {NoSync, NumSyncs}) {
          // A release by A and an acquire by B on one in-range sync would
          // order the writes; on a dropped sync they must not.
          Rt.onRelease(A, L);
          Rt.onReleaseStore(A, L);
          Rt.onReleaseJoin(A, L);
          Rt.onAcquire(B, L);
          Rt.onAcquireLoad(B, L);
        }
      }
      Rt.onWrite(B, X);
      Rt.onJoin(0, A);
      Rt.onJoin(0, B);
      return std::make_pair(Rt.raceCount(), Rt.recordedTrace().size());
    };
    auto Plain = Run(false);
    auto Hostile = Run(true);
    EXPECT_EQ(Hostile, Plain);
    if (M != Mode::NT && M != Mode::ET) {
      EXPECT_EQ(Plain.first, 1u);
    }
  }
}
