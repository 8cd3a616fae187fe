//===- detectors/FastTrackDetector.cpp - FastTrack ---------------------------=/
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/detectors/FastTrackDetector.h"

using namespace sampletrack;

FastTrackDetector::FastTrackDetector(size_t NumThreads)
    : Detector(NumThreads) {
  Threads.resize(NumThreads);
  for (size_t T = 0; T < NumThreads; ++T) {
    Threads[T] = VectorClock(NumThreads);
    Threads[T].set(static_cast<ThreadId>(T), 1);
  }
}

void FastTrackDetector::processBatch(std::span<const Event> Events,
                                     std::span<const uint8_t> Sampled) {
  // Full analysis processes unsampled accesses too (it ignores S).
  batchDispatch</*SkipUnsampled=*/false>(*this, Events, Sampled);
}

VectorClock &FastTrackDetector::syncClock(SyncId S) {
  if (S >= Syncs.size()) // Guard: no Fill construction on the hot path.
    growToIndexFilled(Syncs, S, VectorClock(numThreads()));
  return Syncs[S];
}

FastTrackDetector::VarState &FastTrackDetector::varState(VarId X) {
  growToIndex(Vars, X);
  return Vars[X];
}

void FastTrackDetector::onRead(ThreadId T, VarId X) {
  VarState &V = varState(X);
  Epoch E = epochOf(T);
  // Same-epoch fast path.
  if (!V.ReadShared && V.REpoch == E)
    return;
  if (V.ReadShared && V.RVC.get(T) == E.Clk)
    return;

  ++Stats.RaceChecks;
  if (!epochLeq(V.W, T))
    declareRace(T, X, OpKind::Read);

  if (V.ReadShared) {
    V.RVC.set(T, E.Clk);
    return;
  }
  if (epochLeq(V.REpoch, T)) {
    // Reads stay thread-exclusive.
    V.REpoch = E;
    return;
  }
  // Concurrent reads: promote to a read vector clock.
  if (V.RVC.size() == 0)
    V.RVC = VectorClock(numThreads());
  else
    V.RVC.clear();
  ++Stats.FullClockOps;
  V.RVC.set(V.REpoch.Tid, V.REpoch.Clk);
  V.RVC.set(T, E.Clk);
  V.ReadShared = true;
}

void FastTrackDetector::onWrite(ThreadId T, VarId X) {
  VarState &V = varState(X);
  Epoch E = epochOf(T);
  if (V.W == E)
    return;

  ++Stats.RaceChecks;
  if (!epochLeq(V.W, T))
    declareRace(T, X, OpKind::Write);
  if (V.ReadShared) {
    ++Stats.FullClockOps;
    if (!V.RVC.leq(Threads[T]))
      declareRace(T, X, OpKind::Write);
    // Demote: the new write supersedes the read set.
    V.RVC.clear();
    V.REpoch = Epoch();
    V.ReadShared = false;
  } else if (!(V.REpoch.Clk == 0) && !epochLeq(V.REpoch, T)) {
    declareRace(T, X, OpKind::Write);
  }
  V.W = E;
}

void FastTrackDetector::onAcquire(ThreadId T, SyncId L) {
  ++Stats.AcquiresTotal;
  ++Stats.AcquiresProcessed;
  ++Stats.FullClockOps;
  Threads[T].joinWith(syncClock(L));
}

void FastTrackDetector::onRelease(ThreadId T, SyncId L) {
  ++Stats.ReleasesTotal;
  ++Stats.ReleasesProcessed;
  ++Stats.FullClockOps;
  syncClock(L).copyFrom(Threads[T]);
  incrementLocal(T);
}

void FastTrackDetector::onFork(ThreadId Parent, ThreadId Child) {
  ++Stats.ReleasesTotal;
  ++Stats.ReleasesProcessed;
  ++Stats.FullClockOps;
  Threads[Child].joinWith(Threads[Parent]);
  incrementLocal(Parent);
}

void FastTrackDetector::onJoin(ThreadId Parent, ThreadId Child) {
  ++Stats.AcquiresTotal;
  ++Stats.AcquiresProcessed;
  ++Stats.FullClockOps;
  Threads[Parent].joinWith(Threads[Child]);
  incrementLocal(Child);
}

void FastTrackDetector::onReleaseStore(ThreadId T, SyncId S) {
  ++Stats.ReleasesTotal;
  ++Stats.ReleasesProcessed;
  ++Stats.FullClockOps;
  syncClock(S).copyFrom(Threads[T]);
  incrementLocal(T);
}

void FastTrackDetector::onReleaseJoin(ThreadId T, SyncId S) {
  ++Stats.ReleasesTotal;
  ++Stats.ReleasesProcessed;
  ++Stats.FullClockOps;
  syncClock(S).joinWith(Threads[T]);
  incrementLocal(T);
}

void FastTrackDetector::onAcquireLoad(ThreadId T, SyncId S) {
  ++Stats.AcquiresTotal;
  ++Stats.AcquiresProcessed;
  ++Stats.FullClockOps;
  Threads[T].joinWith(syncClock(S));
}
