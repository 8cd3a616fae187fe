//===- detectors/SamplingNaiveDetector.cpp - ST -------------------------------/
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/detectors/SamplingNaiveDetector.h"

using namespace sampletrack;

SamplingNaiveDetector::SamplingNaiveDetector(size_t NumThreads)
    : SamplingDetectorBase(NumThreads) {
  // Unlike Djit+, sampling clocks start at bottom: C_t(t) tracks the local
  // time of the last *sampled* event, not the live epoch (Algorithm 2).
  Threads.assign(NumThreads, VectorClock(NumThreads));
}

void SamplingNaiveDetector::processBatch(std::span<const Event> Events,
                                         std::span<const uint8_t> Sampled) {
  batchDispatch</*SkipUnsampled=*/true>(*this, Events, Sampled);
}

VectorClock &SamplingNaiveDetector::syncClock(SyncId S) {
  if (S >= Syncs.size()) // Guard: no Fill construction on the hot path.
    growToIndexFilled(Syncs, S, VectorClock(numThreads()));
  return Syncs[S];
}

void SamplingNaiveDetector::onAcquire(ThreadId T, SyncId L) {
  ++Stats.AcquiresTotal;
  ++Stats.AcquiresProcessed;
  ++Stats.FullClockOps;
  Threads[T].joinWith(syncClock(L));
}

void SamplingNaiveDetector::onRelease(ThreadId T, SyncId L) {
  ++Stats.ReleasesTotal;
  ++Stats.ReleasesProcessed;
  flushLocalEpoch(T);
  ++Stats.FullClockOps;
  syncClock(L).copyFrom(Threads[T]);
}

void SamplingNaiveDetector::onFork(ThreadId Parent, ThreadId Child) {
  // A fork is a release-like HB edge from parent to child: flush the
  // parent's epoch so the child sees any sampled events that precede the
  // fork, then communicate directly thread-to-thread.
  ++Stats.ReleasesTotal;
  ++Stats.ReleasesProcessed;
  flushLocalEpoch(Parent);
  ++Stats.FullClockOps;
  Threads[Child].joinWith(Threads[Parent]);
}

void SamplingNaiveDetector::onJoin(ThreadId Parent, ThreadId Child) {
  ++Stats.AcquiresTotal;
  ++Stats.AcquiresProcessed;
  flushLocalEpoch(Child);
  ++Stats.FullClockOps;
  Threads[Parent].joinWith(Threads[Child]);
}

void SamplingNaiveDetector::onReleaseStore(ThreadId T, SyncId S) {
  ++Stats.ReleasesTotal;
  ++Stats.ReleasesProcessed;
  flushLocalEpoch(T);
  ++Stats.FullClockOps;
  syncClock(S).copyFrom(Threads[T]);
}

void SamplingNaiveDetector::onReleaseJoin(ThreadId T, SyncId S) {
  ++Stats.ReleasesTotal;
  ++Stats.ReleasesProcessed;
  flushLocalEpoch(T);
  ++Stats.FullClockOps;
  syncClock(S).joinWith(Threads[T]);
}

void SamplingNaiveDetector::onAcquireLoad(ThreadId T, SyncId S) {
  ++Stats.AcquiresTotal;
  ++Stats.AcquiresProcessed;
  ++Stats.FullClockOps;
  Threads[T].joinWith(syncClock(S));
}
