//===- sampletrack/detectors/SamplingNaiveDetector.h - ST ------*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The naive sampling engine "ST" (Algorithm 2): Djit+ specialized to the
/// sampling timestamp C_sam. Local clocks advance only at the first release
/// after a sampled event (RelAfter_S), so thread/lock clocks change at most
/// |S| times — but every synchronization event still pays a whole-clock
/// vector operation (O(T) worst case; O(active) via the high-water mark,
/// through the simd kernels). ST is the baseline the paper's SU/SO engines
/// are measured against (Fig. 5(b)).
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_DETECTORS_SAMPLINGNAIVEDETECTOR_H
#define SAMPLETRACK_DETECTORS_SAMPLINGNAIVEDETECTOR_H

#include "sampletrack/detectors/SamplingBase.h"

namespace sampletrack {

/// ST: Algorithm 2, the sampling timestamp with naive communication.
class SamplingNaiveDetector final : public SamplingDetectorBase {
public:
  explicit SamplingNaiveDetector(size_t NumThreads);

  std::string name() const override { return "ST"; }

  void onAcquire(ThreadId T, SyncId L) override;
  void onRelease(ThreadId T, SyncId L) override;
  void onFork(ThreadId Parent, ThreadId Child) override;
  void onJoin(ThreadId Parent, ThreadId Child) override;
  void onReleaseStore(ThreadId T, SyncId S) override;
  void onReleaseJoin(ThreadId T, SyncId S) override;
  void onAcquireLoad(ThreadId T, SyncId S) override;

  void processBatch(std::span<const Event> Events,
                    std::span<const uint8_t> Sampled) override;

  /// Current sampling clock C_t of thread \p T (tests inspect this).
  const VectorClock &threadClock(ThreadId T) const { return Threads[T]; }

protected:
  bool clockDominatesHistory(ThreadId T, const VectorClock &C) override {
    return C.leqWithOverride(Threads[T], T, Epochs[T]);
  }
  void publishLocalTime(ThreadId T, ClockValue Time) override {
    Threads[T].set(T, Time);
  }
  ClockValue effectiveClockComponent(ThreadId T, ThreadId Of) override {
    return Of == T ? Epochs[T] : Threads[T].get(Of);
  }

private:
  VectorClock &syncClock(SyncId S);

  std::vector<VectorClock> Threads;
  std::vector<VectorClock> Syncs;
};

} // namespace sampletrack

#endif // SAMPLETRACK_DETECTORS_SAMPLINGNAIVEDETECTOR_H
