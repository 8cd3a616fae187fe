//===- sampletrack/detectors/SamplingOrderedListDetector.h - SO -*- C++ -*-==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The nearly optimal engine "SO" (Algorithm 4): sampling clocks stored in
/// ordered lists, shared between threads and locks by shallow reference with
/// copy-on-write, plus the scalar freshness check. A release is O(1); an
/// acquire traverses only the D = U_l - U_t(LR_l) freshest list entries
/// (Proposition 6). Visiting an entry is one compare against the
/// acquirer's component (OrderedList::visitPrefixAhead); only entries
/// strictly ahead pay for the copy-on-write break and the move to the
/// head. Metrics::EntriesTraversed counts the visits: 1 for the releaser's
/// out-of-line scalar plus min(D, T) per processed single-source acquire,
/// and T per fork, join or multi-source join. Total timestamping work is
/// O(|S| T^2), independent of the number of locks, and instance optimal up
/// to a factor T (Lemma 9).
/// The promoted read-history check and the multi-source materialization
/// (dominatesWithOverride, toVectorClock) run over the list's SoA time
/// array through the simd clock kernels.
///
/// Two orthogonal options support the ablation benches:
/// - LocalEpochOpt (Section 6.1): the thread's own component travels next
///   to the shared list as a scalar, so publishing a new local epoch never
///   forces a deep copy. This is the "dirty epoch" optimization of the
///   RAPID experiments.
/// - The copy-on-write scheme itself is inherent to the algorithm and not
///   optional.
///
/// Non-mutex synchronization (appendix A.2): release-stores are handled
/// identically to releases — a shallow snapshot is always valid regardless
/// of monotonicity, which is why "the innovations of Algorithm 4 can always
/// be adopted". Release-joins convert the sync object to an owned blended
/// vector clock (multi-source) processed without skips.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_DETECTORS_SAMPLINGORDEREDLISTDETECTOR_H
#define SAMPLETRACK_DETECTORS_SAMPLINGORDEREDLISTDETECTOR_H

#include "sampletrack/detectors/SamplingBase.h"
#include "sampletrack/support/OrderedList.h"
#include "sampletrack/support/SnapshotPool.h"

namespace sampletrack {

/// SO: Algorithm 4, ordered lists with lazy copies.
///
/// Snapshot lifecycle (the zero-allocation hot path): a release publishes
/// the thread's list by reference (O(1) shallow copy); the owner's next
/// mutation re-owns it — in place when every published reference has since
/// been dropped (free), or by materializing a private copy into a
/// SnapshotPool buffer when a sync object still holds the snapshot (a
/// CowBreak; the pool recycles retired buffers so steady state allocates
/// nothing).
class SamplingOrderedListDetector final : public SamplingDetectorBase {
public:
  /// \p LocalEpochOpt toggles the Section 6.1 local-epoch optimization.
  explicit SamplingOrderedListDetector(size_t NumThreads,
                                       bool LocalEpochOpt = true);

  std::string name() const override { return "SO"; }

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

  /// The thread's ordered list (tests inspect structure and sharing).
  const OrderedList &orderedList(ThreadId T) const { return *Threads[T].O; }
  bool isListShared(ThreadId T) const { return Threads[T].SharedFlag; }
  const VectorClock &freshnessClock(ThreadId T) const { return Threads[T].U; }

  /// Effective component C_t(t'): list entry, except the thread's own
  /// component which may be carried out-of-line under LocalEpochOpt.
  ClockValue effectiveComponent(ThreadId T, ThreadId Of) const {
    return Of == T ? Threads[T].OwnTime : Threads[T].O->get(Of);
  }

protected:
  bool clockDominatesHistory(ThreadId T, const VectorClock &C) override {
    // The only possibly-stale list entry is the thread's own, and the
    // effective-epoch override replaces it anyway (e_t >= OwnTime).
    return Threads[T].O->dominatesWithOverride(C, T, Epochs[T]);
  }
  void publishLocalTime(ThreadId T, ClockValue Time) override;
  ClockValue effectiveClockComponent(ThreadId T, ThreadId Of) override {
    return Of == T ? Epochs[T] : Threads[T].O->get(Of);
  }

private:
  using ListRef = SnapshotPool<OrderedList>::Ref;
  /// Read-only view held by sync objects: published snapshots are
  /// immutable while shared, and this type makes that a compile error to
  /// violate.
  using ListSnapshot = SnapshotPool<OrderedList>::ConstRef;

  struct ThreadState {
    ListRef O;
    /// shared_t of Algorithm 4: the list may be referenced by sync objects
    /// and must be re-owned (in place, or by a pooled copy when still
    /// referenced) before mutation.
    bool SharedFlag = false;
    VectorClock U;
    /// The paper's C_t(t) (local time of the last sampled event). Under
    /// LocalEpochOpt this is authoritative and the list entry may lag.
    ClockValue OwnTime = 0;
  };

  struct SyncState {
    /// Single-source snapshot (immutable while shared) plus release-time
    /// scalars.
    ListSnapshot Ref;
    ThreadId LastReleaser = NoThread;
    /// U_l of Algorithm 4: the releaser's own freshness count at release.
    ClockValue UScalar = 0;
    /// The releaser's own component at release (C_t(t)); carried as a
    /// scalar so LocalEpochOpt releases stay O(1).
    ClockValue OwnTimeAtRelease = 0;
    /// Multi-source (release-join) content, processed without skips.
    bool MultiSource = false;
    VectorClock C, U;
  };

  SyncState &syncState(SyncId S);

  /// Re-owns the thread's list before mutation (lazy copy-on-write): in
  /// place when unique, else a pooled deep copy (a CowBreak).
  void ensureOwned(ThreadId T);

  /// Applies one foreign entry (\p Of, \p Val) that is strictly ahead of
  /// thread \p T's component: re-owns the list (copy-on-write) and moves
  /// the entry to the head.
  void applyEntry(ThreadId T, ThreadId Of, ClockValue Val);

  /// Joins the first \p K entries of \p Src, plus its owner \p SrcTid's
  /// out-of-line component \p SrcOwnTime (applied first), into thread
  /// \p T's list by OrderedList::visitPrefixAhead. Adds the min(K, T)
  /// visited list entries to EntriesTraversed; returns the number applied.
  unsigned joinList(ThreadId T, const OrderedList &Src, size_t K,
                    ThreadId SrcTid, ClockValue SrcOwnTime);

  /// The acquire fast/slow path against a single-source snapshot.
  void acquireLike(ThreadId T, SyncId L);

  /// The O(1) release: publish a shallow snapshot (Lines 24-27).
  void releaseLike(ThreadId T, SyncId L);

  /// Full join from an owned vector clock (multi-source syncs, fork/join).
  void joinFromVectorClock(ThreadId T, const VectorClock &C,
                           const VectorClock *U);

  /// Materializes a single-source snapshot into the sync's owned clocks,
  /// converting it to multi-source form.
  void convertToMultiSource(SyncState &S);

  bool LocalEpochOpt;
  SnapshotPool<OrderedList> Pool;
  std::vector<ThreadState> Threads;
  std::vector<SyncState> Syncs;
};

} // namespace sampletrack

#endif // SAMPLETRACK_DETECTORS_SAMPLINGORDEREDLISTDETECTOR_H
