//===- sampletrack/support/OrderedList.h - Recency-ordered clock -*- C++ -*-==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ordered-list data structure of Section 5 of the paper: a vector
/// timestamp stored as a doubly-linked list whose node order records the
/// recency of per-entry updates. get/set/increment are O(1); set and
/// increment move the updated node to the head. An acquire in Algorithm 4
/// only walks the first (U_l - U_t(LR_l)) nodes, because by Proposition 6
/// those are the only entries that can be ahead of the acquiring thread.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_SUPPORT_ORDEREDLIST_H
#define SAMPLETRACK_SUPPORT_ORDEREDLIST_H

#include "sampletrack/support/Common.h"
#include "sampletrack/support/VectorClock.h"
#include "sampletrack/support/simd/ClockKernels.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sampletrack {

/// A vector timestamp whose entries are kept in most-recently-updated-first
/// order.
///
/// Storage is SoA: the times live in their own contiguous array (indexed by
/// thread id, the paper's ThrMap being the index itself), with the
/// intrusive prev/next links in two parallel arrays beside it. The split
/// keeps the pointwise passes — \ref dominatesWithOverride and
/// \ref toVectorClock, the SO engines' race-check inner loops — straight
/// runs over a flat uint64_t array that the simd clock kernels consume
/// directly, instead of striding over link-padded nodes. A deep copy is
/// still three flat memcpys, one allocation each at most.
class OrderedList {
public:
  OrderedList() = default;

  /// Creates the bottom timestamp over \p NumThreads threads. The initial
  /// list order is thread 0 at the head; it is arbitrary because all entries
  /// are equal (zero).
  explicit OrderedList(size_t NumThreads) { reset(NumThreads); }

  /// Reinitializes to the bottom timestamp over \p NumThreads threads.
  void reset(size_t NumThreads) {
    Times.assign(NumThreads, 0);
    PrevLink.resize(NumThreads);
    NextLink.resize(NumThreads);
    for (size_t I = 0; I < NumThreads; ++I) {
      PrevLink[I] = (I == 0) ? NoThread : static_cast<ThreadId>(I - 1);
      NextLink[I] =
          (I + 1 == NumThreads) ? NoThread : static_cast<ThreadId>(I + 1);
    }
    Head = NumThreads == 0 ? NoThread : 0;
    Tail = NumThreads == 0 ? NoThread
                           : static_cast<ThreadId>(NumThreads - 1);
  }

  /// Number of entries.
  size_t size() const { return Times.size(); }

  /// O(1) lookup of thread \p T's component (the paper's O.get(tid)).
  ClockValue get(ThreadId T) const {
    assert(T < Times.size() && "thread out of range");
    return Times[T];
  }

  /// O(1) update of thread \p T's component to \p V, moving the node to the
  /// head of the list (the paper's O.set(tid, time)).
  void set(ThreadId T, ClockValue V) {
    assert(T < Times.size() && "thread out of range");
    Times[T] = V;
    moveToHead(T);
  }

  /// O(1) increment of thread \p T's component by \p K, moving the node to
  /// the head of the list (the paper's O.increment(tid, k)).
  void increment(ThreadId T, ClockValue K) {
    assert(T < Times.size() && "thread out of range");
    Times[T] += K;
    moveToHead(T);
  }

  /// The time array, indexed by thread id (\ref size entries): a read-only
  /// view for raw-array comparisons against flat access histories.
  const ClockValue *data() const { return Times.data(); }

  /// Thread id at the head of the list, or NoThread when empty.
  ThreadId head() const { return Head; }

  /// Thread id following \p T in list order, or NoThread at the tail.
  ThreadId next(ThreadId T) const {
    assert(T < Times.size() && "thread out of range");
    return NextLink[T];
  }

  /// Visits the first min(K, T) entries in list order (the paper's
  /// O[0 : k]). \p Visit receives (ThreadId, ClockValue) and returns void.
  template <typename VisitorT> void visitPrefix(size_t K, VisitorT Visit) const {
    ThreadId Cur = Head;
    for (size_t I = 0; I < K && Cur != NoThread; ++I) {
      Visit(Cur, Times[Cur]);
      Cur = NextLink[Cur];
    }
  }

  /// Algorithm 4's join rule, for the SO engines' acquires, forks and
  /// joins: visits the first min(K, T) entries in list order and hands
  /// \p Apply (ThreadId, ClockValue) only those strictly ahead of the
  /// acquiring thread \p Self, i.e. Of != Self && Val > Current(Of). A
  /// visit is that compare and nothing else; \p Current (ThreadId ->
  /// ClockValue) reads the acquirer's component at visit time, so it sees
  /// earlier applies. \p Self's own component is authored locally, so a
  /// foreign copy of it is never fresher. The walk stops right after the
  /// \p MaxApplies-th apply: a caller that knows how many entries are ahead
  /// passes that count and skips the tail that would apply nothing (0 skips
  /// the walk). Returns the model prefix min(K, T) however early it stops.
  template <typename CurrentT, typename ApplyT>
  size_t visitPrefixAhead(size_t K, ThreadId Self, CurrentT Current,
                          ApplyT Apply, size_t MaxApplies = SIZE_MAX) const {
    ThreadId Cur = Head;
    for (size_t I = 0; I < K && Cur != NoThread && MaxApplies != 0; ++I) {
      ClockValue Val = Times[Cur];
      if (Cur != Self && Val > Current(Cur)) {
        Apply(Cur, Val);
        --MaxApplies;
      }
      Cur = NextLink[Cur];
    }
    return K < size() ? K : size();
  }

  /// Pointwise comparison against a plain vector clock: every component of
  /// \p C is <= the corresponding component here, where component
  /// \p OverrideTid of *this* is taken to be \p OverrideVal (the effective
  /// local epoch e_t). Used by the SO race checks. A straight kernel pass
  /// over the SoA time array, clipped to C's active prefix (C's trailing
  /// zeros are <= anything).
  bool dominatesWithOverride(const VectorClock &C, ThreadId OverrideTid,
                             ClockValue OverrideVal) const {
    assert(C.size() == Times.size() && "clock size mismatch");
    return simd::allLeqWithOverride(C.data(), Times.data(), C.activeLen(),
                                    OverrideTid, OverrideVal);
  }

  /// Materializes the timestamp into \p Out, overriding component
  /// \p OverrideTid with \p OverrideVal. Used to snapshot C_t[t -> e_t] into
  /// a write access history. One flat copy; Out's high-water mark is
  /// rebuilt exactly.
  void toVectorClock(VectorClock &Out, ThreadId OverrideTid,
                     ClockValue OverrideVal) const {
    assert(Out.size() == Times.size() && "clock size mismatch");
    Out.assignWithOverride(Times.data(), Times.size(), OverrideTid,
                           OverrideVal);
  }

  /// Structural invariant check used by tests: the links form a single
  /// doubly-linked chain visiting every node exactly once.
  bool checkStructure() const;

  /// Renders entries in list order as "[t3:5 t0:2 ...]" for diagnostics.
  std::string str() const;

private:
  void moveToHead(ThreadId T) {
    if (Head == T)
      return;
    // Unlink.
    ThreadId P = PrevLink[T], N = NextLink[T];
    if (P != NoThread)
      NextLink[P] = N;
    if (N != NoThread)
      PrevLink[N] = P;
    if (Tail == T)
      Tail = P;
    // Relink at head.
    PrevLink[T] = NoThread;
    NextLink[T] = Head;
    if (Head != NoThread)
      PrevLink[Head] = T;
    Head = T;
  }

  /// SoA storage: contiguous times, links alongside.
  std::vector<ClockValue> Times;
  std::vector<ThreadId> PrevLink;
  std::vector<ThreadId> NextLink;
  ThreadId Head = NoThread;
  ThreadId Tail = NoThread;
};

} // namespace sampletrack

#endif // SAMPLETRACK_SUPPORT_ORDEREDLIST_H
