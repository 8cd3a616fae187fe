//===- tests/SnapshotPoolTest.cpp - Pooled CoW snapshot buffers ------------==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for SnapshotPool under both synchronization policies:
/// refcount semantics, free-list recycling, the lazy-CoW unique() contract
/// and the destructor's all-buffers-parked check; cross-thread release
/// safety of the concurrent pool; and the detector-level integration
/// (recycling actually observed on CoW-heavy traces).
///
//===----------------------------------------------------------------------===//

#include "sampletrack/api/AnalysisSession.h"
#include "sampletrack/detectors/DetectorFactory.h"
#include "sampletrack/support/SnapshotPool.h"
#include "sampletrack/support/VectorClock.h"
#include "sampletrack/trace/Trace.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace sampletrack;

namespace {

/// The unit cases run under both policies: plain counts (the offline
/// engines) and atomic counts with a mutex-guarded free list (the online
/// runtime).
template <typename PoolT> class SnapshotPoolTest : public ::testing::Test {};
using Pools = ::testing::Types<SnapshotPool<VectorClock, /*Concurrent=*/false>,
                               SnapshotPool<VectorClock, /*Concurrent=*/true>>;
TYPED_TEST_SUITE(SnapshotPoolTest, Pools);

} // namespace

TYPED_TEST(SnapshotPoolTest, AcquireStartsUniqueAndMisses) {
  TypeParam P;
  bool Reused = true;
  auto R = P.acquire(&Reused);
  EXPECT_FALSE(Reused) << "empty pool cannot serve from the free list";
  EXPECT_TRUE(static_cast<bool>(R));
  EXPECT_TRUE(R.unique());
  EXPECT_EQ(P.hits(), 0u);
  EXPECT_EQ(P.misses(), 1u);
  EXPECT_EQ(P.freeCount(), 0u);
}

TYPED_TEST(SnapshotPoolTest, LastReleaseRecyclesAndNextAcquireReuses) {
  TypeParam P;
  auto R = P.acquire();
  R->resize(4);
  R->set(2, 42);
  VectorClock *Raw = R.get();
  R.reset();
  EXPECT_EQ(P.freeCount(), 1u);

  bool Reused = false;
  auto R2 = P.acquire(&Reused);
  EXPECT_TRUE(Reused);
  EXPECT_EQ(R2.get(), Raw) << "free list returned the same buffer";
  EXPECT_EQ(R2->get(2), 42u) << "recycled contents are stale by contract";
  EXPECT_EQ(P.hits(), 1u);
  EXPECT_EQ(P.freeCount(), 0u);
}

TYPED_TEST(SnapshotPoolTest, UniqueTracksReferenceCount) {
  TypeParam P;
  auto Owner = P.acquire();
  EXPECT_TRUE(Owner.unique());
  {
    auto Snapshot = Owner; // Publish: a sync object now holds it.
    EXPECT_FALSE(Owner.unique());
    EXPECT_TRUE(Snapshot == Owner);
  }
  // Snapshot dropped (overwritten by a newer release): owner may mutate in
  // place again — the lazy-CoW fast path.
  EXPECT_TRUE(Owner.unique());
  EXPECT_EQ(P.freeCount(), 0u) << "buffer still referenced, not recycled";
}

TYPED_TEST(SnapshotPoolTest, CopyAndMoveSemantics) {
  TypeParam P;
  auto A = P.acquire();
  auto B = A;
  auto C = std::move(A);
  EXPECT_FALSE(static_cast<bool>(A));
  EXPECT_TRUE(B == C);
  auto &BAlias = B;
  B = BAlias; // Self-assignment must not drop the buffer.
  EXPECT_TRUE(static_cast<bool>(B));
  C.reset();
  EXPECT_TRUE(B.unique());
  B.reset();
  EXPECT_EQ(P.freeCount(), 1u);
}

TYPED_TEST(SnapshotPoolTest, EveryBufferIsBackOnTheFreeListOnceRefsDrop) {
  // The destructor's check: with no Ref out, every buffer ever allocated
  // (each a miss) is parked, so the pool frees them all.
  TypeParam P;
  {
    auto A = P.acquire();
    auto B = P.acquire();
    typename TypeParam::ConstRef Published = A;
    A.reset();
    EXPECT_EQ(P.freeCount(), 0u) << "the published snapshot holds it";
  }
  auto C = P.acquire();
  C.reset();
  EXPECT_EQ(P.misses(), 2u);
  EXPECT_EQ(P.hits(), 1u);
  EXPECT_EQ(P.freeCount(), P.misses());
}

TEST(SnapshotPool, CrossThreadReleaseIsSafe) {
  // The online Runtime drops snapshot references on whichever thread
  // overwrites the sync object; acquire+release must tolerate that.
  using Pool = SnapshotPool<VectorClock, /*Concurrent=*/true>;
  Pool P;
  constexpr int N = 64;
  std::vector<Pool::Ref> Refs;
  Refs.reserve(N);
  for (int I = 0; I < N; ++I)
    Refs.push_back(P.acquire());
  std::vector<std::thread> Threads;
  for (int W = 0; W < 4; ++W)
    Threads.emplace_back([&Refs, W] {
      for (int I = W; I < N; I += 4)
        Refs[I].reset();
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(P.freeCount(), static_cast<size_t>(N));
  bool Reused = false;
  auto R = P.acquire(&Reused);
  EXPECT_TRUE(Reused);
}

//===----------------------------------------------------------------------===//
// Detector-level integration
//===----------------------------------------------------------------------===//

namespace {

/// Two threads cross-publishing over two locks with sampled writes: each
/// thread acquires the *other* thread's lock right after releasing its own,
/// so every join mutates a list whose snapshot is still referenced by the
/// thread's own lock — a CoW break per round, the recycling steady state.
/// (A single shared lock would never break: its snapshot is overwritten
/// before the owner mutates, which the lazy unique() check turns into a
/// free in-place re-own.)
Trace cowHeavyTrace(int Rounds) {
  Trace T;
  for (int I = 0; I < Rounds; ++I) {
    T.write(0, 0, /*Marked=*/true);
    T.release(0, 0);
    T.write(1, 1, /*Marked=*/true);
    T.release(1, 1);
    T.acquire(0, 1);
    T.acquire(1, 0);
  }
  return T;
}

} // namespace

TEST(SnapshotPoolIntegration, PooledRunRecyclesBuffersOnCowHeavyTrace) {
  Trace T = cowHeavyTrace(200);
  api::SessionConfig Cfg;
  Cfg.Engines = {EngineKind::SamplingO};
  Cfg.Sampling = api::SamplerKind::Always;
  api::EngineRun R = api::AnalysisSession(Cfg).run(T).Engines.front();
  EXPECT_GT(R.Stats.CowBreaks, 0u) << "trace must actually contend";
  EXPECT_EQ(R.Stats.CowBreaks, R.Stats.DeepCopies)
      << "on the lazy path every deep copy is a CoW break";
  EXPECT_GT(R.Stats.PoolHits, 0u) << "steady state must reuse buffers";
  // After warm-up (one buffer per thread in flight plus one per sync), all
  // breaks are served by the free list.
  EXPECT_GE(R.Stats.PoolHits + 4, R.Stats.CowBreaks);
}
