//===- sampletrack/detectors/SamplingBase.h - Shared sampling core -*- C++ -*-//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Infrastructure shared by the three sampling engines (ST/SU/SO): the
/// per-thread local epoch e_t with its dirty bit (implementing RelAfter_S,
/// Eq. 5), and the access-history race checks of Algorithm 2's read/write
/// handlers, parameterized over the engine's clock representation.
///
/// The histories keep Algorithm 2's declaration semantics exactly (the
/// Lemma 4 oracle, HBClosureOracle::declaredRaces with MarkedOnly) but are
/// stored in constant space per variable:
///
///  - Cw_x is the last sampled write's epoch (WTid, WClk). Algorithm 2
///    replaces Cw_x with the writer's effective clock at every sampled
///    write, and by Proposition 3 "Cw_x <= C_t[t -> e_t]" is exactly
///    "WClk <= C_t[t -> e_t](WTid)" because that write was itself sampled.
///  - Cr_x is one read epoch (RTid, RClk) until two unordered reads meet,
///    then a read vector clock that stays promoted. A sampled read replaces
///    the epoch when the stored read happens-before it: by transitivity of
///    HB over sampled events, every check the kept read passes the dropped
///    one passes too. There is no same-epoch fast path and writes never
///    demote, so every check's outcome, every RaceChecks increment and
///    every declared event are those of the vector-clock histories.
///
/// Access-side O(T) work is therefore only read promotions and write
/// checks against promoted read histories (both counted in
/// Metrics::FullClockOps).
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_DETECTORS_SAMPLINGBASE_H
#define SAMPLETRACK_DETECTORS_SAMPLINGBASE_H

#include "sampletrack/detectors/Detector.h"
#include "sampletrack/support/VectorClock.h"

#include <vector>

namespace sampletrack {

/// Common state and handlers of the sampling engines.
///
/// Subclasses provide the clock representation through two hooks:
/// \ref effectiveClockComponent (one component of the thread's effective
/// clock C_t[t -> e_t], for the epoch checks) and \ref clockDominatesHistory
/// (is a promoted read history <= that clock?). Everything else about the
/// read/write handlers is identical across engines (the paper presents them
/// once, in Algorithm 2).
class SamplingDetectorBase : public Detector {
public:
  explicit SamplingDetectorBase(size_t NumThreads) : Detector(NumThreads) {
    Epochs.assign(NumThreads, 1); // e_t starts at 1 (Algorithm 2, Line 3).
    Dirty.assign(NumThreads, false);
  }

  void onRead(ThreadId T, VarId X) final;
  void onWrite(ThreadId T, VarId X) final;

  /// Local epoch e_t of thread \p T (tests inspect this).
  ClockValue localEpoch(ThreadId T) const { return Epochs[T]; }

  /// Whether thread \p T has performed a sampled event since its last
  /// release-like event (the guard of Algorithm 2, Line 19).
  bool isDirty(ThreadId T) const { return Dirty[T]; }

protected:
  /// True iff the promoted read history \p C is pointwise <= the thread's
  /// effective clock C_t[t -> e_t].
  virtual bool clockDominatesHistory(ThreadId T, const VectorClock &C) = 0;

  /// Called by the release-like handlers of subclasses: if the thread
  /// performed a sampled event since the last flush, publish e_t into the
  /// thread clock and advance the epoch (Lines 19-21 of Algorithm 2).
  /// Returns true if an increment happened. Subclasses update their clock
  /// representation in \ref publishLocalTime, which this calls first.
  bool flushLocalEpoch(ThreadId T) {
    if (!Dirty[T])
      return false;
    publishLocalTime(T, Epochs[T]);
    ++Epochs[T];
    Dirty[T] = false;
    return true;
  }

  /// Records e_t as the thread's own clock component C_t(t) (engine
  /// specific: plain set for ST/SU, possibly deferred for SO).
  virtual void publishLocalTime(ThreadId T, ClockValue Time) = 0;

  /// The effective clock component C_t[t -> e_t](Of) — subclasses answer
  /// single-component queries for the epoch checks.
  virtual ClockValue effectiveClockComponent(ThreadId T, ThreadId Of) = 0;

  /// Read/write access histories (Cw_x and Cr_x of Algorithm 2) in the
  /// representation the file comment describes. Only sampled events reach
  /// them. R is empty until the read history is promoted.
  struct VarState {
    VectorClock R;
    ThreadId WTid = 0;
    ClockValue WClk = 0;
    ThreadId RTid = 0;
    ClockValue RClk = 0;
  };

  VarState &varState(VarId X) {
    // Geometric growth: ascending-VarId traces would otherwise reallocate
    // (and move every VarState) once per new variable.
    growToIndex(Vars, X);
    return Vars[X];
  }

  std::vector<ClockValue> Epochs;
  std::vector<bool> Dirty;

private:
  std::vector<VarState> Vars;
};

} // namespace sampletrack

#endif // SAMPLETRACK_DETECTORS_SAMPLINGBASE_H
