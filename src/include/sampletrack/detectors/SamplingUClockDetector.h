//===- sampletrack/detectors/SamplingUClockDetector.h - SU -----*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The freshness-timestamp engine "SU" (Algorithm 3). Each thread and lock
/// additionally carries a U vector clock counting per-entry updates of the
/// sampling clocks (the VT timestamp, Eq. 9). Scalar freshness comparisons
/// let acquires skip joins that would not bring new information
/// (Proposition 5) and releases skip copies when the thread's clock has not
/// changed since the lock last saw it. Timestamping work drops to
/// O(|S| T (T + L)); the joins that do happen (including the
/// change-counting join that maintains U, Eq. 9) are kernel passes over
/// the source clock's active prefix.
///
/// Non-mutex synchronization follows appendix A.2: release-stores can only
/// use the skip rule when the storing thread observed the sync object's
/// current content (monotone update); release-joins mark the sync object
/// multi-source, disabling acquire-side skips until the next exclusive
/// release.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_DETECTORS_SAMPLINGUCLOCKDETECTOR_H
#define SAMPLETRACK_DETECTORS_SAMPLINGUCLOCKDETECTOR_H

#include "sampletrack/detectors/SamplingBase.h"

namespace sampletrack {

/// SU: Algorithm 3, sampling clocks plus freshness (U) clocks.
class SamplingUClockDetector final : public SamplingDetectorBase {
public:
  explicit SamplingUClockDetector(size_t NumThreads);

  std::string name() const override { return "SU"; }

  void onAcquire(ThreadId T, SyncId L) override;
  void onRelease(ThreadId T, SyncId L) override;
  void onFork(ThreadId Parent, ThreadId Child) override;
  void onJoin(ThreadId Parent, ThreadId Child) override;
  void onReleaseStore(ThreadId T, SyncId S) override;
  void onReleaseJoin(ThreadId T, SyncId S) override;
  void onAcquireLoad(ThreadId T, SyncId S) override;

  void processBatch(std::span<const Event> Events,
                    std::span<const uint8_t> Sampled) override;

  const VectorClock &threadClock(ThreadId T) const { return Threads[T].C; }
  const VectorClock &freshnessClock(ThreadId T) const { return Threads[T].U; }

protected:
  bool clockDominatesHistory(ThreadId T, const VectorClock &C) override {
    return C.leqWithOverride(Threads[T].C, T, Epochs[T]);
  }
  void publishLocalTime(ThreadId T, ClockValue Time) override {
    // Publishing the epoch is itself one entry update (Line 17 of
    // Algorithm 3).
    Threads[T].C.set(T, Time);
    Threads[T].U.bump(T);
  }
  ClockValue effectiveClockComponent(ThreadId T, ThreadId Of) override {
    return Of == T ? Epochs[T] : Threads[T].C.get(Of);
  }

private:
  struct ThreadState {
    VectorClock C, U;
  };

  struct SyncState {
    VectorClock C, U;
    /// Thread that performed the last exclusive release (LR_l), or NoThread.
    ThreadId LastReleaser = NoThread;
    /// Set by release-joins: the content blends multiple threads and the
    /// scalar freshness check no longer applies (appendix A.2).
    bool MultiSource = false;
    /// AcquiredSince[t]: thread t has imported this object's current
    /// content; its clock therefore dominates it and a release-store by t
    /// is a monotone update.
    std::vector<bool> AcquiredSince;
  };

  SyncState &syncState(SyncId S);

  /// The join path of the acquire handler (Lines 8-12 of Algorithm 3):
  /// joins U clocks, joins C clocks counting changed entries, and charges
  /// those changes to U_t(t).
  void joinFromSync(ThreadId T, SyncState &S);

  /// Full (unskippable) copy of thread state into the sync object.
  void storeToSync(ThreadId T, SyncState &S);

  /// Direct thread-to-thread edge (fork/join), always processed.
  void joinThreadFromThread(ThreadId Dst, ThreadId Src);

  std::vector<ThreadState> Threads;
  std::vector<SyncState> Syncs;
};

} // namespace sampletrack

#endif // SAMPLETRACK_DETECTORS_SAMPLINGUCLOCKDETECTOR_H
