//===- detectors/SamplingUClockDetector.cpp - SU ------------------------------/
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/detectors/SamplingUClockDetector.h"

using namespace sampletrack;

SamplingUClockDetector::SamplingUClockDetector(size_t NumThreads)
    : SamplingDetectorBase(NumThreads) {
  Threads.resize(NumThreads);
  for (ThreadState &TS : Threads) {
    TS.C = VectorClock(NumThreads);
    TS.U = VectorClock(NumThreads);
  }
}

void SamplingUClockDetector::processBatch(std::span<const Event> Events,
                                          std::span<const uint8_t> Sampled) {
  batchDispatch</*SkipUnsampled=*/true>(*this, Events, Sampled);
}

SamplingUClockDetector::SyncState &
SamplingUClockDetector::syncState(SyncId S) {
  growToIndex(Syncs, S);
  SyncState &St = Syncs[S];
  if (St.C.size() == 0) {
    St.C = VectorClock(numThreads());
    St.U = VectorClock(numThreads());
    St.AcquiredSince.assign(numThreads(), false);
  }
  return St;
}

void SamplingUClockDetector::joinFromSync(ThreadId T, SyncState &S) {
  ThreadState &TS = Threads[T];
  TS.U.joinWith(S.U);
  ++Stats.FullClockOps;
  unsigned Changed = TS.C.joinCountingChanges(S.C);
  ++Stats.FullClockOps;
  // Each changed entry of C_t is one tick of the VT timestamp (Line 12 of
  // Algorithm 3).
  TS.U.bump(T, Changed);
  ++Stats.AcquiresProcessed;
}

void SamplingUClockDetector::storeToSync(ThreadId T, SyncState &S) {
  ThreadState &TS = Threads[T];
  S.C.copyFrom(TS.C);
  S.U.copyFrom(TS.U);
  Stats.FullClockOps += 2;
  ++Stats.ReleasesProcessed;
}

void SamplingUClockDetector::joinThreadFromThread(ThreadId Dst,
                                                  ThreadId Src) {
  ThreadState &D = Threads[Dst];
  ThreadState &SrcState = Threads[Src];
  D.U.joinWith(SrcState.U);
  ++Stats.FullClockOps;
  unsigned Changed = D.C.joinCountingChanges(SrcState.C);
  ++Stats.FullClockOps;
  D.U.bump(Dst, Changed);
}

void SamplingUClockDetector::onAcquire(ThreadId T, SyncId L) {
  ++Stats.AcquiresTotal;
  SyncState &S = syncState(L);
  S.AcquiredSince[T] = true;
  if (S.MultiSource) {
    // Blended content: the scalar freshness check does not apply (A.2).
    joinFromSync(T, S);
    return;
  }
  if (S.LastReleaser == NoThread) {
    // Never released: the sync clock is bottom, nothing to learn.
    ++Stats.AcquiresSkipped;
    return;
  }
  // The freshness check of Line 7 of Algorithm 3: if the acquiring thread
  // already knows the releaser's clock at the version stored in the lock,
  // the whole join is redundant (Proposition 5).
  if (S.U.get(S.LastReleaser) <= Threads[T].U.get(S.LastReleaser)) {
    ++Stats.AcquiresSkipped;
    return;
  }
  joinFromSync(T, S);
}

void SamplingUClockDetector::onRelease(ThreadId T, SyncId L) {
  ++Stats.ReleasesTotal;
  SyncState &S = syncState(L);
  flushLocalEpoch(T);
  S.LastReleaser = T;
  S.MultiSource = false;
  // Mutex discipline guarantees this thread acquired L beforehand, so the
  // copy below is a monotone update and the release-side skip of Line 19 of
  // Algorithm 3 is sound: if the lock already holds the latest version of
  // this thread's clock, skip the O(T) copy.
  if (Threads[T].U.get(T) == S.U.get(T)) {
    ++Stats.ReleasesSkipped;
    S.AcquiredSince[T] = true;
    return;
  }
  storeToSync(T, S);
  S.AcquiredSince.assign(numThreads(), false);
  S.AcquiredSince[T] = true;
}

void SamplingUClockDetector::onFork(ThreadId Parent, ThreadId Child) {
  ++Stats.ReleasesTotal;
  ++Stats.ReleasesProcessed;
  flushLocalEpoch(Parent);
  joinThreadFromThread(Child, Parent);
}

void SamplingUClockDetector::onJoin(ThreadId Parent, ThreadId Child) {
  ++Stats.AcquiresTotal;
  ++Stats.AcquiresProcessed;
  flushLocalEpoch(Child);
  joinThreadFromThread(Parent, Child);
}

void SamplingUClockDetector::onReleaseStore(ThreadId T, SyncId S) {
  ++Stats.ReleasesTotal;
  SyncState &St = syncState(S);
  flushLocalEpoch(T);
  // A.2: the skip rule needs the update to be monotone, which holds only if
  // this thread has observed the object's current content.
  bool Monotone = !St.MultiSource && St.AcquiredSince[T];
  if (Monotone && Threads[T].U.get(T) == St.U.get(T)) {
    ++Stats.ReleasesSkipped;
    St.LastReleaser = T;
    St.MultiSource = false;
    St.AcquiredSince[T] = true;
    return;
  }
  storeToSync(T, St);
  St.LastReleaser = T;
  St.MultiSource = false;
  St.AcquiredSince.assign(numThreads(), false);
  St.AcquiredSince[T] = true;
}

void SamplingUClockDetector::onReleaseJoin(ThreadId T, SyncId S) {
  ++Stats.ReleasesTotal;
  ++Stats.ReleasesProcessed;
  SyncState &St = syncState(S);
  flushLocalEpoch(T);
  // The object now carries information from multiple threads; disable the
  // scalar skip machinery until the next exclusive release (A.2).
  St.C.joinWith(Threads[T].C);
  St.U.joinWith(Threads[T].U);
  Stats.FullClockOps += 2;
  St.MultiSource = true;
  St.LastReleaser = T;
  // Nobody (including T, whose clock may lack other contributors' info) is
  // known to dominate the blended content.
  St.AcquiredSince.assign(numThreads(), false);
}

void SamplingUClockDetector::onAcquireLoad(ThreadId T, SyncId S) {
  onAcquire(T, S);
}
