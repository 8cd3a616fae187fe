//===- sampletrack/detectors/TreeClockDetector.h - TC ablation -*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation engine for the related-work comparison of Section 7: tree
/// clocks are an *optimal* data structure for computing the full
/// happens-before relation, but they cannot soundly prune joins under the
/// *sampling* timestamp (the same component value may stand for growing
/// knowledge, defeating the value-based subtree pruning). This engine
/// therefore computes full-HB timestamps in tree clocks — incrementing the
/// local component at every release, as FastTrack does — while performing
/// race checks only on sampled events. bench_ablation_treeclock compares
/// its acquire-side traversal work against SO's ordered-list prefix walks.
///
/// Locks publish copy-on-write snapshots of the releasing thread's tree
/// (deep copies are charged to the releasing thread's next mutation, which
/// under full-HB timestamps means essentially every release — exactly the
/// redundancy the sampling timestamp removes).
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_DETECTORS_TREECLOCKDETECTOR_H
#define SAMPLETRACK_DETECTORS_TREECLOCKDETECTOR_H

#include "sampletrack/detectors/Detector.h"
#include "sampletrack/support/SnapshotPool.h"
#include "sampletrack/support/TreeClock.h"
#include "sampletrack/support/VectorClock.h"

#include <vector>

namespace sampletrack {

/// Tree-clock full-HB engine with sampled race checks.
class TreeClockDetector final : public Detector {
public:
  explicit TreeClockDetector(size_t NumThreads);

  std::string name() const override { return "TC"; }

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
  void setPoolingEnabled(bool Enabled) override { Pool.setEnabled(Enabled); }

  const TreeClock &threadClock(ThreadId T) const { return *Threads[T].TC; }

private:
  using ClockRef = SnapshotPool<TreeClock>::Ref;

  struct ThreadState {
    ClockRef TC;
    bool SharedFlag = false;
  };

  struct SyncState {
    /// Published snapshot; immutable while shared (const-enforced).
    SnapshotPool<TreeClock>::ConstRef Ref;
  };

  struct VarState {
    VectorClock W, R;
  };

  SyncState &syncState(SyncId S);
  VarState &varState(VarId X);
  void ensureOwned(ThreadId T);
  /// Joins \p Src into thread \p T's clock with counting; handles COW.
  void joinInto(ThreadId T, const TreeClock &Src);
  void releaseLike(ThreadId T, SyncId L);
  void acquireLike(ThreadId T, SyncId L);
  bool dominates(ThreadId T, const VectorClock &C) const;

  SnapshotPool<TreeClock> Pool;
  std::vector<ThreadState> Threads;
  std::vector<SyncState> Syncs;
  std::vector<VarState> Vars;
};

} // namespace sampletrack

#endif // SAMPLETRACK_DETECTORS_TREECLOCKDETECTOR_H
