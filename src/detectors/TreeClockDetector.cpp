//===- detectors/TreeClockDetector.cpp - TC ablation --------------------------/
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/detectors/TreeClockDetector.h"

using namespace sampletrack;

TreeClockDetector::TreeClockDetector(size_t NumThreads)
    : Detector(NumThreads) {
  Threads.resize(NumThreads);
  for (ThreadId T = 0; T < NumThreads; ++T) {
    Threads[T].TC = Pool.acquire();
    Threads[T].TC->reset(NumThreads, T);
    // Full-HB local time starts at 1, as in Djit+/FastTrack.
    Threads[T].TC->setRootTime(1);
  }
}

void TreeClockDetector::processBatch(std::span<const Event> Events,
                                     std::span<const uint8_t> Sampled) {
  batchDispatch</*SkipUnsampled=*/true>(*this, Events, Sampled);
}

TreeClockDetector::SyncState &TreeClockDetector::syncState(SyncId S) {
  growToIndex(Syncs, S);
  return Syncs[S];
}

TreeClockDetector::VarState &TreeClockDetector::varState(VarId X) {
  growToIndex(Vars, X);
  VarState &V = Vars[X];
  if (V.W.size() == 0) {
    V.W = VectorClock(numThreads());
    V.R = VectorClock(numThreads());
  }
  return V;
}

void TreeClockDetector::ensureOwned(ThreadId T) {
  ThreadState &TS = Threads[T];
  if (!TS.SharedFlag)
    return;
  if (TS.TC.unique()) {
    // Snapshot no longer referenced by any sync: mutate in place.
    TS.SharedFlag = false;
    return;
  }
  ++Stats.CowBreaks;
  bool Reused = false;
  ClockRef Copy = Pool.acquire(&Reused);
  Stats.PoolHits += Reused ? 1 : 0;
  Copy->deepCopyFrom(*TS.TC);
  TS.TC = std::move(Copy);
  TS.SharedFlag = false;
  ++Stats.DeepCopies;
  ++Stats.FullClockOps;
}

void TreeClockDetector::joinInto(ThreadId T, const TreeClock &Src) {
  ThreadState &TS = Threads[T];
  // Fast path (sound under full-HB timestamps: equal root values imply
  // equal knowledge, since the local component advances at every release).
  if (Src.get(Src.root()) <= TS.TC->get(Src.root())) {
    ++Stats.AcquiresSkipped;
    return;
  }
  ensureOwned(T);
  unsigned Examined = TS.TC->joinFrom(Src);
  Stats.EntriesTraversed += Examined;
  Stats.TraversalOpportunities += numThreads();
  ++Stats.AcquiresProcessed;
}

void TreeClockDetector::acquireLike(ThreadId T, SyncId L) {
  ++Stats.AcquiresTotal;
  SyncState &S = syncState(L);
  if (!S.Ref) {
    ++Stats.AcquiresSkipped;
    return;
  }
  joinInto(T, *S.Ref);
}

void TreeClockDetector::releaseLike(ThreadId T, SyncId L) {
  ++Stats.ReleasesTotal;
  ++Stats.ReleasesProcessed;
  ThreadState &TS = Threads[T];
  SyncState &S = syncState(L);
  // Publish a snapshot, then advance local time; the increment forces a
  // deep copy (full-HB timestamps change at every release — the redundancy
  // the sampling timestamp eliminates).
  S.Ref = TS.TC;
  TS.SharedFlag = true;
  ++Stats.ShallowCopies;
  ensureOwned(T);
  TS.TC->incrementRoot();
}

bool TreeClockDetector::dominates(ThreadId T, const VectorClock &C) const {
  const TreeClock &TC = *Threads[T].TC;
  for (ThreadId I = 0; I < numThreads(); ++I)
    if (C.get(I) > TC.get(I))
      return false;
  return true;
}

void TreeClockDetector::onRead(ThreadId T, VarId X) {
  VarState &V = varState(X);
  ++Stats.RaceChecks;
  if (!dominates(T, V.W))
    declareRace(T, X, OpKind::Read);
  V.R.set(T, Threads[T].TC->get(T));
}

void TreeClockDetector::onWrite(ThreadId T, VarId X) {
  VarState &V = varState(X);
  ++Stats.RaceChecks;
  if (!dominates(T, V.R) || !dominates(T, V.W))
    declareRace(T, X, OpKind::Write);
  Threads[T].TC->toVectorClock(V.W);
  ++Stats.FullClockOps;
}

void TreeClockDetector::onAcquire(ThreadId T, SyncId L) { acquireLike(T, L); }

void TreeClockDetector::onRelease(ThreadId T, SyncId L) { releaseLike(T, L); }

void TreeClockDetector::onFork(ThreadId Parent, ThreadId Child) {
  ++Stats.ReleasesTotal;
  ++Stats.ReleasesProcessed;
  // Count the child's import as acquire-side work, mirroring the other
  // engines.
  ++Stats.AcquiresTotal;
  joinInto(Child, *Threads[Parent].TC);
  ensureOwned(Parent);
  Threads[Parent].TC->incrementRoot();
}

void TreeClockDetector::onJoin(ThreadId Parent, ThreadId Child) {
  ++Stats.AcquiresTotal;
  joinInto(Parent, *Threads[Child].TC);
  ensureOwned(Child);
  Threads[Child].TC->incrementRoot();
}

void TreeClockDetector::onReleaseStore(ThreadId T, SyncId S) {
  releaseLike(T, S);
}

void TreeClockDetector::onReleaseJoin(ThreadId T, SyncId S) {
  // Conservative fallback: treated as a release-store (replacement). This
  // ablation engine is only exercised on mutex/fork-join traces; see the
  // header comment.
  releaseLike(T, S);
}

void TreeClockDetector::onAcquireLoad(ThreadId T, SyncId S) {
  acquireLike(T, S);
}
