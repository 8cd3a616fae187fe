//===- detectors/SamplingOrderedListDetector.cpp - SO -------------------------/
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/detectors/SamplingOrderedListDetector.h"

#include <cassert>

using namespace sampletrack;

SamplingOrderedListDetector::SamplingOrderedListDetector(
    size_t NumThreads, bool LocalEpochOpt)
    : SamplingDetectorBase(NumThreads),
      LocalEpochOpt(LocalEpochOpt) {
  Threads.resize(NumThreads);
  for (ThreadState &TS : Threads) {
    TS.O = Pool.acquire();
    TS.O->reset(NumThreads);
    TS.U = VectorClock(NumThreads);
  }
}

void SamplingOrderedListDetector::processBatch(
    std::span<const Event> Events, std::span<const uint8_t> Sampled) {
  batchDispatch</*SkipUnsampled=*/true>(*this, Events, Sampled);
}

SamplingOrderedListDetector::SyncState &
SamplingOrderedListDetector::syncState(SyncId S) {
  growToIndex(Syncs, S);
  return Syncs[S];
}

void SamplingOrderedListDetector::ensureOwned(ThreadId T) {
  ThreadState &TS = Threads[T];
  if (!TS.SharedFlag)
    return;
  if (TS.O.unique()) {
    // Every published reference has been dropped (the snapshots were
    // overwritten by newer releases): mutate in place, no copy owed.
    TS.SharedFlag = false;
    return;
  }
  ++Stats.CowBreaks;
  bool Reused = false;
  ListRef Copy = Pool.acquire(&Reused);
  Stats.PoolHits += Reused ? 1 : 0;
  *Copy = *TS.O; // Flat copy; a recycled buffer reuses its node storage.
  TS.O = std::move(Copy);
  TS.SharedFlag = false;
  ++Stats.DeepCopies;
  ++Stats.FullClockOps;
}

void SamplingOrderedListDetector::publishLocalTime(ThreadId T,
                                                   ClockValue Time) {
  ThreadState &TS = Threads[T];
  TS.OwnTime = Time;
  TS.U.bump(T);
  if (!LocalEpochOpt) {
    // Without the Section 6.1 optimization the epoch lands in the list
    // itself, which may force a deep copy right here.
    ensureOwned(T);
    TS.O->set(T, Time);
  }
}

void SamplingOrderedListDetector::applyEntry(ThreadId T, ThreadId Of,
                                             ClockValue Val) {
  ThreadState &TS = Threads[T];
  assert(Of != T && Val > TS.O->get(Of) && "entry not ahead");
  ensureOwned(T);
  TS.O->set(Of, Val);
}

unsigned SamplingOrderedListDetector::joinList(ThreadId T,
                                               const OrderedList &Src,
                                               size_t K, ThreadId SrcTid,
                                               ClockValue SrcOwnTime) {
  ThreadState &TS = Threads[T];
  unsigned Changed = 0;
  auto Current = [&TS](ThreadId Of) { return TS.O->get(Of); };
  auto Apply = [&](ThreadId Of, ClockValue Val) {
    applyEntry(T, Of, Val);
    ++Changed;
  };
  // The source's own component travels out of line (LocalEpochOpt keeps
  // it out of the shared list); apply it first. SrcTid != T: an acquire of
  // one's own release is always skipped, and no thread forks or joins itself.
  assert(SrcTid != T && "self-join");
  if (SrcOwnTime > Current(SrcTid))
    Apply(SrcTid, SrcOwnTime);
  Stats.EntriesTraversed += Src.visitPrefixAhead(K, T, Current, Apply);
  return Changed;
}

void SamplingOrderedListDetector::acquireLike(ThreadId T, SyncId L) {
  ++Stats.AcquiresTotal;
  SyncState &S = syncState(L);
  if (S.MultiSource) {
    joinFromVectorClock(T, S.C, &S.U);
    ++Stats.AcquiresProcessed;
    return;
  }
  if (S.LastReleaser == NoThread) {
    ++Stats.AcquiresSkipped;
    return;
  }
  ThreadState &TS = Threads[T];
  ClockValue Known = TS.U.get(S.LastReleaser);
  // Line 7 of Algorithm 4: scalar freshness check.
  if (S.UScalar <= Known) {
    ++Stats.AcquiresSkipped;
    return;
  }
  ++Stats.AcquiresProcessed;
  ClockValue D = S.UScalar - Known;
  TS.U.set(S.LastReleaser, S.UScalar);

  // The releaser's scalar is one visited entry; by Proposition 6 only the
  // first D list entries can be ahead of us.
  ++Stats.EntriesTraversed;
  unsigned Changed = joinList(T, *S.Ref, static_cast<size_t>(D),
                              S.LastReleaser, S.OwnTimeAtRelease);
  Stats.TraversalOpportunities += numThreads();
  TS.U.bump(T, Changed);
}

void SamplingOrderedListDetector::releaseLike(ThreadId T, SyncId L) {
  ++Stats.ReleasesTotal;
  SyncState &S = syncState(L);
  flushLocalEpoch(T);
  ThreadState &TS = Threads[T];
  // Lines 24-27 of Algorithm 4: O(1) shallow publication. Snapshot
  // validity relies on copy-on-write: once shared, the list is immutable.
  S.Ref = TS.O;
  S.LastReleaser = T;
  S.UScalar = TS.U.get(T);
  S.OwnTimeAtRelease = TS.OwnTime;
  S.MultiSource = false;
  TS.SharedFlag = true;
  ++Stats.ShallowCopies;
}

void SamplingOrderedListDetector::joinFromVectorClock(ThreadId T,
                                                      const VectorClock &C,
                                                      const VectorClock *U) {
  ThreadState &TS = Threads[T];
  if (U) {
    TS.U.joinWith(*U);
    ++Stats.FullClockOps;
  }
  unsigned Changed = 0;
  for (ThreadId Of = 0; Of < numThreads(); ++Of) {
    // visitPrefixAhead's rule, over an owned clock.
    if (Of != T && C.get(Of) > TS.O->get(Of)) {
      applyEntry(T, Of, C.get(Of));
      ++Changed;
    }
  }
  Stats.EntriesTraversed += numThreads();
  Stats.TraversalOpportunities += numThreads();
  ++Stats.FullClockOps;
  TS.U.bump(T, Changed);
}

void SamplingOrderedListDetector::convertToMultiSource(SyncState &S) {
  if (S.MultiSource)
    return;
  if (S.C.size() == 0) {
    S.C = VectorClock(numThreads());
    S.U = VectorClock(numThreads());
  }
  if (S.Ref) {
    // Materialize the single-source snapshot, honoring the out-of-line
    // releaser component.
    S.Ref->toVectorClock(S.C, S.LastReleaser, S.OwnTimeAtRelease);
    S.U.clear();
    S.U.set(S.LastReleaser, S.UScalar);
    Stats.FullClockOps += 2;
    S.Ref.reset();
  }
  S.MultiSource = true;
}

void SamplingOrderedListDetector::onAcquire(ThreadId T, SyncId L) {
  acquireLike(T, L);
}

void SamplingOrderedListDetector::onRelease(ThreadId T, SyncId L) {
  releaseLike(T, L);
}

void SamplingOrderedListDetector::onFork(ThreadId Parent, ThreadId Child) {
  ++Stats.ReleasesTotal;
  ++Stats.ReleasesProcessed;
  flushLocalEpoch(Parent);
  // Direct thread-to-thread edge: the child imports the parent's effective
  // clock (list plus out-of-line own component) and freshness clock.
  ThreadState &P = Threads[Parent];
  ThreadState &C = Threads[Child];
  C.U.joinWith(P.U);
  ++Stats.FullClockOps;
  unsigned Changed = joinList(Child, *P.O, numThreads(), Parent, P.OwnTime);
  Stats.TraversalOpportunities += numThreads();
  ++Stats.FullClockOps;
  C.U.bump(Child, Changed);
}

void SamplingOrderedListDetector::onJoin(ThreadId Parent, ThreadId Child) {
  ++Stats.AcquiresTotal;
  ++Stats.AcquiresProcessed;
  flushLocalEpoch(Child);
  ThreadState &P = Threads[Parent];
  ThreadState &C = Threads[Child];
  P.U.joinWith(C.U);
  ++Stats.FullClockOps;
  unsigned Changed = joinList(Parent, *C.O, numThreads(), Child, C.OwnTime);
  Stats.TraversalOpportunities += numThreads();
  ++Stats.FullClockOps;
  P.U.bump(Parent, Changed);
}

void SamplingOrderedListDetector::onReleaseStore(ThreadId T, SyncId S) {
  // A shallow snapshot implements replacement semantics exactly, so no
  // monotonicity precondition is needed (appendix A.2).
  releaseLike(T, S);
}

void SamplingOrderedListDetector::onReleaseJoin(ThreadId T, SyncId S) {
  ++Stats.ReleasesTotal;
  ++Stats.ReleasesProcessed;
  SyncState &St = syncState(S);
  flushLocalEpoch(T);
  convertToMultiSource(St);
  ThreadState &TS = Threads[T];
  // Blend this thread's effective clock into the owned content.
  for (ThreadId Of = 0; Of < numThreads(); ++Of) {
    ClockValue Val = (Of == T) ? TS.OwnTime : TS.O->get(Of);
    if (Val > St.C.get(Of))
      St.C.set(Of, Val);
  }
  St.U.joinWith(TS.U);
  Stats.FullClockOps += 2;
}

void SamplingOrderedListDetector::onAcquireLoad(ThreadId T, SyncId S) {
  acquireLike(T, S);
}
