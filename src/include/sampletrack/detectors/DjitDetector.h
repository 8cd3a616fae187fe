//===- sampletrack/detectors/DjitDetector.h - Djit+ baseline ---*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Djit+ vector-clock race detector (Algorithm 1 of the paper;
/// Pozniansky & Schuster 2003). Processes every event with whole-clock
/// vector-clock operations — O(T) worst case, O(active threads) in
/// practice through VectorClock's high-water mark, executed by the simd
/// clock kernels; ignores sampling decisions. This is the conceptual
/// baseline against which the sampling timestamps are defined, and the
/// reference implementation the oracle tests trust.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_DETECTORS_DJITDETECTOR_H
#define SAMPLETRACK_DETECTORS_DJITDETECTOR_H

#include "sampletrack/detectors/Detector.h"
#include "sampletrack/support/VectorClock.h"

#include <vector>

namespace sampletrack {

/// Djit+ (Algorithm 1): full happens-before race detection.
class DjitDetector final : public Detector {
public:
  explicit DjitDetector(size_t NumThreads);

  std::string name() const override { return "Djit+"; }

  /// batchDispatch's handlers.
  void onRead(ThreadId T, VarId X);
  void onWrite(ThreadId T, VarId X);
  void onAcquire(ThreadId T, SyncId L);
  void onRelease(ThreadId T, SyncId L);
  void onFork(ThreadId Parent, ThreadId Child);
  void onJoin(ThreadId Parent, ThreadId Child);
  void onReleaseStore(ThreadId T, SyncId S);
  void onReleaseJoin(ThreadId T, SyncId S);
  void onAcquireLoad(ThreadId T, SyncId S);

  void processBatch(std::span<const Event> Events,
                    std::span<const uint8_t> Sampled) override;

  /// Current clock of thread \p T (tests inspect this).
  const VectorClock &threadClock(ThreadId T) const { return Threads[T]; }

private:
  struct VarState {
    VectorClock W, R;
  };

  VectorClock &syncClock(SyncId S);
  VarState &varState(VarId X);
  /// Post-release local increment shared by all release-like handlers.
  void incrementLocal(ThreadId T);

  std::vector<VectorClock> Threads;
  std::vector<VectorClock> Syncs;
  std::vector<VarState> Vars;
};

} // namespace sampletrack

#endif // SAMPLETRACK_DETECTORS_DJITDETECTOR_H
