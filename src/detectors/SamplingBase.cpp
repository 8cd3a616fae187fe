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
  VarState &V = varState(X);
  ClockValue MyEpoch = Epochs[T];
  ++Stats.RaceChecks;
  // Cw_x <= C_t[t -> e_t], exact on the write's epoch (Proposition 3).
  if (V.WClk > effectiveClockComponent(T, V.WTid))
    declareRace(T, X, OpKind::Read);

  if (V.R.size() != 0) {
    V.R.set(T, MyEpoch);
  } else if (V.RClk <= effectiveClockComponent(T, V.RTid)) {
    // The stored read happens-before this one: it passes every check this
    // read passes, so this read alone stands for both.
    V.RTid = T;
    V.RClk = MyEpoch;
  } else {
    // Two unordered reads: promote Cr_x to a read vector clock for good.
    V.R = VectorClock(numThreads());
    ++Stats.FullClockOps;
    V.R.set(V.RTid, V.RClk);
    V.R.set(T, MyEpoch);
  }
}

void SamplingDetectorBase::onWrite(ThreadId T, VarId X) {
  Dirty[T] = true;
  VarState &V = varState(X);
  ++Stats.RaceChecks;
  bool ReadsOrdered;
  if (V.R.size() != 0) {
    ++Stats.FullClockOps;
    ReadsOrdered = clockDominatesHistory(T, V.R);
  } else {
    ReadsOrdered = V.RClk <= effectiveClockComponent(T, V.RTid);
  }
  if (!ReadsOrdered || V.WClk > effectiveClockComponent(T, V.WTid))
    declareRace(T, X, OpKind::Write);
  V.WTid = T;
  V.WClk = Epochs[T];
}
