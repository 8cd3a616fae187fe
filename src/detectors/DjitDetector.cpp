//===- detectors/DjitDetector.cpp - Djit+ baseline ---------------------------=//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/detectors/DjitDetector.h"

using namespace sampletrack;

DjitDetector::DjitDetector(size_t NumThreads) : Detector(NumThreads) {
  Threads.resize(NumThreads);
  for (size_t T = 0; T < NumThreads; ++T) {
    Threads[T] = VectorClock(NumThreads);
    // C_t starts at bottom[t -> 1] (Line 3 of Algorithm 1).
    Threads[T].set(static_cast<ThreadId>(T), 1);
  }
}

void DjitDetector::processBatch(std::span<const Event> Events,
                                std::span<const uint8_t> Sampled) {
  // Full analysis processes unsampled accesses too (it ignores S).
  batchDispatch</*SkipUnsampled=*/false>(*this, Events, Sampled);
}

VectorClock &DjitDetector::syncClock(SyncId S) {
  if (S >= Syncs.size()) // Guard: no Fill construction on the hot path.
    growToIndexFilled(Syncs, S, VectorClock(numThreads()));
  return Syncs[S];
}

DjitDetector::VarState &DjitDetector::varState(VarId X) {
  growToIndex(Vars, X);
  VarState &V = Vars[X];
  if (V.W.size() == 0) {
    V.W = VectorClock(numThreads());
    V.R = VectorClock(numThreads());
  }
  return V;
}

void DjitDetector::incrementLocal(ThreadId T) { Threads[T].bump(T); }

void DjitDetector::onRead(ThreadId T, VarId X) {
  VarState &V = varState(X);
  ++Stats.RaceChecks;
  if (!V.W.leq(Threads[T]))
    declareRace(T, X, OpKind::Read);
  V.R.set(T, Threads[T].get(T));
}

void DjitDetector::onWrite(ThreadId T, VarId X) {
  VarState &V = varState(X);
  ++Stats.RaceChecks;
  if (!V.R.leq(Threads[T]) || !V.W.leq(Threads[T]))
    declareRace(T, X, OpKind::Write);
  V.W.copyFrom(Threads[T]);
  ++Stats.FullClockOps;
}

void DjitDetector::onAcquire(ThreadId T, SyncId L) {
  ++Stats.AcquiresTotal;
  ++Stats.AcquiresProcessed;
  ++Stats.FullClockOps;
  Threads[T].joinWith(syncClock(L));
}

void DjitDetector::onRelease(ThreadId T, SyncId L) {
  ++Stats.ReleasesTotal;
  ++Stats.ReleasesProcessed;
  ++Stats.FullClockOps;
  syncClock(L).copyFrom(Threads[T]);
  incrementLocal(T);
}

void DjitDetector::onFork(ThreadId Parent, ThreadId Child) {
  ++Stats.ReleasesTotal;
  ++Stats.ReleasesProcessed;
  ++Stats.FullClockOps;
  Threads[Child].joinWith(Threads[Parent]);
  incrementLocal(Parent);
}

void DjitDetector::onJoin(ThreadId Parent, ThreadId Child) {
  ++Stats.AcquiresTotal;
  ++Stats.AcquiresProcessed;
  ++Stats.FullClockOps;
  Threads[Parent].joinWith(Threads[Child]);
  incrementLocal(Child);
}

void DjitDetector::onReleaseStore(ThreadId T, SyncId S) {
  ++Stats.ReleasesTotal;
  ++Stats.ReleasesProcessed;
  ++Stats.FullClockOps;
  syncClock(S).copyFrom(Threads[T]);
  incrementLocal(T);
}

void DjitDetector::onReleaseJoin(ThreadId T, SyncId S) {
  ++Stats.ReleasesTotal;
  ++Stats.ReleasesProcessed;
  ++Stats.FullClockOps;
  syncClock(S).joinWith(Threads[T]);
  incrementLocal(T);
}

void DjitDetector::onAcquireLoad(ThreadId T, SyncId S) {
  ++Stats.AcquiresTotal;
  ++Stats.AcquiresProcessed;
  ++Stats.FullClockOps;
  Threads[T].joinWith(syncClock(S));
}
