//===- detectors/SamplingBase.cpp - Shared sampling core ---------------------=/
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/detectors/SamplingBase.h"

using namespace sampletrack;

void SamplingDetectorBase::onRead(ThreadId T, VarId X) {
  // Only sampled accesses get here: batchDispatch skips the rest entirely
  // (Algorithm 2, Line 9).
  Dirty[T] = true;
  if (Histories == HistoryKind::Epochs) {
    readWithEpochHistories(T, X);
    return;
  }
  VarState &V = varState(X);
  ++Stats.RaceChecks;
  if (!clockDominatesHistory(T, V.W))
    declareRace(T, X, OpKind::Read);
  V.R.set(T, Epochs[T]);
}

void SamplingDetectorBase::onWrite(ThreadId T, VarId X) {
  Dirty[T] = true;
  if (Histories == HistoryKind::Epochs) {
    writeWithEpochHistories(T, X);
    return;
  }
  VarState &V = varState(X);
  ++Stats.RaceChecks;
  if (!clockDominatesHistory(T, V.R) || !clockDominatesHistory(T, V.W))
    declareRace(T, X, OpKind::Write);
  snapshotEffectiveClock(T, V.W);
  ++Stats.FullClockOps;
}

void SamplingDetectorBase::readWithEpochHistories(ThreadId T, VarId X) {
  VarState &V = varState(X);
  ClockValue MyEpoch = Epochs[T];
  // Same-epoch fast path (FastTrack): this exact read is already recorded.
  if (!V.ReadShared && V.RTid == T && V.RClk == MyEpoch)
    return;
  if (V.ReadShared && V.R.get(T) == MyEpoch)
    return;

  ++Stats.RaceChecks;
  // Write-read race: by Proposition 3 the scalar comparison against the
  // effective clock is exact for marked events.
  if (V.WClk > effectiveClockComponent(T, V.WTid))
    declareRace(T, X, OpKind::Read);

  if (V.ReadShared) {
    V.R.set(T, MyEpoch);
    return;
  }
  if (V.RClk <= effectiveClockComponent(T, V.RTid)) {
    // Reads stay thread-exclusive: the previous read happens-before us.
    V.RTid = T;
    V.RClk = MyEpoch;
    return;
  }
  // Concurrent reads: promote to a read vector clock.
  if (V.R.size() == 0)
    V.R = VectorClock(numThreads());
  else
    V.R.clear();
  ++Stats.FullClockOps;
  V.R.set(V.RTid, V.RClk);
  V.R.set(T, MyEpoch);
  V.ReadShared = true;
}

void SamplingDetectorBase::writeWithEpochHistories(ThreadId T, VarId X) {
  VarState &V = varState(X);
  ClockValue MyEpoch = Epochs[T];
  // Same-epoch fast path.
  if (V.WTid == T && V.WClk == MyEpoch)
    return;

  ++Stats.RaceChecks;
  if (V.WClk > effectiveClockComponent(T, V.WTid))
    declareRace(T, X, OpKind::Write);
  if (V.ReadShared) {
    ++Stats.FullClockOps;
    if (!clockDominatesHistory(T, V.R))
      declareRace(T, X, OpKind::Write);
    // Demote: this write supersedes the read set (FastTrack).
    V.R.clear();
    V.RTid = 0;
    V.RClk = 0;
    V.ReadShared = false;
  } else if (V.RClk > effectiveClockComponent(T, V.RTid)) {
    declareRace(T, X, OpKind::Write);
  }
  V.WTid = T;
  V.WClk = MyEpoch;
}
