//===- sampletrack/detectors/FastTrackDetector.h - FastTrack ---*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The FastTrack race detector (Flanagan & Freund, PLDI 2009): Djit+ with
/// the epoch optimization on access histories. This is the paper's "FT"
/// baseline (full ThreadSanitizer-style analysis, no sampling). Its epoch
/// optimization is orthogonal to the paper's contributions (Section 2.1),
/// which is why the sampling engines are derived from Djit+ instead. The
/// whole-clock joins that remain on its sync path run through the simd
/// clock kernels, clipped to each clock's active prefix.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_DETECTORS_FASTTRACKDETECTOR_H
#define SAMPLETRACK_DETECTORS_FASTTRACKDETECTOR_H

#include "sampletrack/detectors/Detector.h"
#include "sampletrack/support/VectorClock.h"

#include <vector>

namespace sampletrack {

/// FastTrack: epoch-optimized full happens-before race detection.
class FastTrackDetector final : public Detector {
public:
  explicit FastTrackDetector(size_t NumThreads);

  std::string name() const override { return "FT"; }

  void onRead(ThreadId T, VarId X) override;
  void onWrite(ThreadId T, VarId X) override;
  void onAcquire(ThreadId T, SyncId L) override;
  void onRelease(ThreadId T, SyncId L) override;
  void onFork(ThreadId Parent, ThreadId Child) override;
  void onJoin(ThreadId Parent, ThreadId Child) override;
  void onReleaseStore(ThreadId T, SyncId S) override;
  void onReleaseJoin(ThreadId T, SyncId S) override;
  void onAcquireLoad(ThreadId T, SyncId S) override;

  void processBatch(std::span<const Event> Events,
                    std::span<const uint8_t> Sampled) override;

  const VectorClock &threadClock(ThreadId T) const { return Threads[T]; }

private:
  /// An epoch c@t: one clock component plus the thread that owns it.
  struct Epoch {
    ThreadId Tid = 0;
    ClockValue Clk = 0;

    bool operator==(const Epoch &O) const {
      return Tid == O.Tid && Clk == O.Clk;
    }
  };

  struct VarState {
    Epoch W;
    /// Last-read state: an epoch while reads are thread-exclusive, promoted
    /// to a full vector clock once concurrent reads are seen.
    Epoch REpoch;
    VectorClock RVC;
    bool ReadShared = false;
  };

  Epoch epochOf(ThreadId T) const { return {T, Threads[T].get(T)}; }
  /// True iff epoch \p E happens-before thread \p T's current time.
  bool epochLeq(const Epoch &E, ThreadId T) const {
    return E.Clk <= Threads[T].get(E.Tid);
  }

  VectorClock &syncClock(SyncId S);
  VarState &varState(VarId X);
  void incrementLocal(ThreadId T) { Threads[T].bump(T); }

  std::vector<VectorClock> Threads;
  std::vector<VectorClock> Syncs;
  std::vector<VarState> Vars;
};

} // namespace sampletrack

#endif // SAMPLETRACK_DETECTORS_FASTTRACKDETECTOR_H
