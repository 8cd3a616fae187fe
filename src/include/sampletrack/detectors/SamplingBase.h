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
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_DETECTORS_SAMPLINGBASE_H
#define SAMPLETRACK_DETECTORS_SAMPLINGBASE_H

#include "sampletrack/detectors/Detector.h"
#include "sampletrack/support/VectorClock.h"

#include <vector>

namespace sampletrack {

/// How access histories (Cw_x / Cr_x) are represented.
///
/// The paper presents Djit+-style vector-clock histories (Algorithm 2) and
/// notes that FastTrack's epoch optimization "is independent of our
/// innovations" (Section 2.1): under sampling, Proposition 3 makes the
/// scalar epoch comparison exact for marked events, so histories can be
/// epochs with adaptive read promotion exactly as in FastTrack, cutting the
/// per-access cost from O(T) to amortized O(1).
enum class HistoryKind {
  VectorClocks, ///< Algorithm 2 as printed: full Cw/Cr vector clocks.
  Epochs,       ///< FastTrack-style write epoch + adaptive read history.
};

/// Common state and handlers of the sampling engines.
///
/// Subclasses provide the clock representation through two hooks:
/// \ref clockDominatesHistory (is a history timestamp <= the thread's
/// effective clock C_t[t -> e_t]?) and \ref snapshotEffectiveClock (copy the
/// effective clock into a history). Everything else about the read/write
/// handlers is identical across engines (the paper presents them once, in
/// Algorithm 2).
class SamplingDetectorBase : public Detector {
public:
  explicit SamplingDetectorBase(size_t NumThreads,
                                HistoryKind Histories =
                                    HistoryKind::VectorClocks)
      : Detector(NumThreads), Histories(Histories) {
    Epochs.assign(NumThreads, 1); // e_t starts at 1 (Algorithm 2, Line 3).
    Dirty.assign(NumThreads, false);
  }

  void onRead(ThreadId T, VarId X) final;
  void onWrite(ThreadId T, VarId X) final;

  HistoryKind historyKind() const { return Histories; }

  /// Local epoch e_t of thread \p T (tests inspect this).
  ClockValue localEpoch(ThreadId T) const { return Epochs[T]; }

  /// Whether thread \p T has performed a sampled event since its last
  /// release-like event (the guard of Algorithm 2, Line 19).
  bool isDirty(ThreadId T) const { return Dirty[T]; }

protected:
  /// True iff history timestamp \p C is pointwise <= the thread's effective
  /// clock C_t[t -> e_t].
  virtual bool clockDominatesHistory(ThreadId T, const VectorClock &C) = 0;

  /// Copies the effective clock C_t[t -> e_t] into \p Out (sized T).
  virtual void snapshotEffectiveClock(ThreadId T, VectorClock &Out) = 0;

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
  /// single-component queries for the epoch-history checks.
  virtual ClockValue effectiveClockComponent(ThreadId T, ThreadId Of) = 0;

  /// Read/write access histories (Cw_x and Cr_x of Algorithm 2), allocated
  /// on first touch. Only sampled events reach them, so total work here is
  /// O(|S| T) with vector-clock histories and amortized O(|S|) with epochs.
  struct VarState {
    // HistoryKind::VectorClocks representation.
    VectorClock W, R;
    // HistoryKind::Epochs representation (FastTrack-style).
    ThreadId WTid = 0;
    ClockValue WClk = 0;
    ThreadId RTid = 0;
    ClockValue RClk = 0;
    bool ReadShared = false;
  };

  VarState &varState(VarId X) {
    // Geometric growth: ascending-VarId traces would otherwise reallocate
    // (and move every VarState) once per new variable.
    growToIndex(Vars, X);
    VarState &V = Vars[X];
    if (Histories == HistoryKind::VectorClocks) {
      if (V.W.size() == 0) {
        V.W = VectorClock(numThreads());
        V.R = VectorClock(numThreads());
      }
    } else if (V.ReadShared && V.R.size() == 0) {
      V.R = VectorClock(numThreads());
    }
    return V;
  }

  HistoryKind Histories;
  std::vector<ClockValue> Epochs;
  std::vector<bool> Dirty;

private:
  void readWithEpochHistories(ThreadId T, VarId X);
  void writeWithEpochHistories(ThreadId T, VarId X);

  std::vector<VarState> Vars;
};

} // namespace sampletrack

#endif // SAMPLETRACK_DETECTORS_SAMPLINGBASE_H
