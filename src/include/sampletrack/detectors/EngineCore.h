//===- sampletrack/detectors/EngineCore.h - One engine core ----*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The thread-clock, sync-object and access-history transitions of the
/// analysis engines, written once. The offline detectors instantiate them
/// as EngineDetector<Core> (EngineDetector.h); the online rt::Runtime
/// instantiates FT, ST, SU and SO with its spin lock as the sync lock.
///
///  - FTCore: FastTrack (Flanagan & Freund, PLDI 2009), the paper's full
///    analysis: Djit+ clocks plus FastTrack's epoch histories.
///  - STCore: Algorithm 2, Djit+ over the sampling timestamp C_sam.
///  - SUCore: Algorithm 3, sampling clocks plus freshness (U) clocks.
///  - SOCore: Algorithm 4, ordered lists shared by copy-on-write.
///  - TCCore: the Section 7 ablation, full-HB tree clocks with race checks
///    on sampled events only (offline only).
///
/// Djit+ (DjitDetector) stays separate: it is the reference the engines
/// are tested against.
///
/// A core owns the per-thread state (padded to a cache line, since online
/// each thread mutates only its own) and defines the type of one sync
/// object, `Core::Sync`; its user owns the sync table and the access
/// histories and hands each transition the object it concerns. Every
/// transition takes the Metrics to charge, so offline one detector's
/// counters and online the hooking thread's counters see the same work.
///
/// The sync lock is the policy's \p LockT: offline it is NoLock, online the
/// runtime's one-word spin lock. Each transition holds it exactly while it
/// touches the sync object, so SO's acquire reads the releaser's snapshot
/// under the lock and walks the list outside it, in one body. Fork and join
/// take no lock: the child is not running (fork) or has finished (join).
///
/// Sampling (ST/SU/SO) uses the per-thread local epoch e_t with its dirty
/// bit, implementing RelAfter_S (Eq. 5): only the first release-like event
/// after a sampled event publishes e_t into the thread's clock.
///
/// Access histories (AccessHistory, checkRead/checkWrite). FT and the
/// sampling engines share one record and one body. For the sampling
/// engines it keeps Algorithm 2's declaration semantics exactly (the
/// Lemma 4 oracle, HBClosureOracle::declaredRaces with MarkedOnly) in
/// constant space per variable:
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
/// FastTrack adds its same-epoch fast paths, demotes a promoted read
/// history on a write, and declares a write once per conflicting history.
/// Access-side O(T) work is therefore only read promotions and write checks
/// against promoted read histories (both counted in Metrics::FullClockOps).
///
/// TC runs the sampling engines' body over full-HB clocks. The epoch forms
/// are exact there for the reason Proposition 3 gives for C_sam: a clock
/// that knows component c of thread u holds u's whole clock as of the
/// release-like event that ended u's local time c, and that event follows
/// every event of u stamped c.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_DETECTORS_ENGINECORE_H
#define SAMPLETRACK_DETECTORS_ENGINECORE_H

#include "sampletrack/detectors/Metrics.h"
#include "sampletrack/support/OrderedList.h"
#include "sampletrack/support/SnapshotPool.h"
#include "sampletrack/support/TreeClock.h"
#include "sampletrack/support/VectorClock.h"
#include "sampletrack/trace/Event.h"

#include <algorithm>
#include <cassert>
#include <concepts>
#include <cstdint>
#include <memory>
#include <mutex>
#include <type_traits>
#include <vector>

namespace sampletrack {
namespace engine {

/// The sync lock of single-threaded users (the offline detectors).
using sampletrack::NoLock;

/// One variable's access histories (Cw_x and Cr_x, or FastTrack's W and R),
/// in the representation the file comment describes. The record is 36
/// bytes of data; the runtime's shadow cell puts its lock word in the tail
/// padding.
struct AccessHistory {
  ClockValue WClk = 0;
  ClockValue RClk = 0;
  /// The promoted read history, one word per thread, allocated zeroed at
  /// the first promotion and reused in place afterwards.
  std::unique_ptr<ClockValue[]> Hist;
  ThreadId WTid = 0;
  ThreadId RTid = 0;
  /// Active prefix of Hist: nonzero exactly when the reads are promoted (a
  /// promotion stores two nonzero epochs), and every word at or past it is
  /// zero, so a check scans only the prefix and a reset zeroes only it.
  uint32_t RLen = 0;

  /// Forgets the read history, keeping the buffer.
  void clearReads() {
    if (Hist)
      std::fill_n(Hist.get(), RLen, 0);
    RLen = 0;
    RTid = 0;
    RClk = 0;
  }
};

/// The per-thread local epoch of the sampling engines: e_t starts at 1
/// (Algorithm 2, Line 3); Dirty is set by a sampled event and cleared when
/// a release-like event publishes e_t (the guard of Line 19).
struct LocalEpoch {
  ClockValue Epoch = 1;
  bool Dirty = false;

  /// Lines 19-21 of Algorithm 2: if a sampled event happened since the last
  /// publication, stores e_t into \p Published and advances e_t.
  bool take(ClockValue &Published) {
    if (!Dirty)
      return false;
    Dirty = false;
    Published = Epoch++;
    return true;
  }
};

/// A thread's clock structure that releases publish by reference (SO's
/// ordered list, TC's tree clock), shared with sync objects by
/// copy-on-write. Once published it is immutable; every mutation goes
/// through own(), which re-owns it in place when every published reference
/// has since been dropped (free), or by copying it into a SnapshotPool
/// buffer when a sync object still holds the snapshot (a CowBreak; the pool
/// recycles retired buffers so steady state allocates nothing). The pool is
/// synchronized iff \p Concurrent, the owning core's policy.
template <typename ClockT, bool Concurrent> class CowClock {
public:
  using Pool = SnapshotPool<ClockT, Concurrent>;

  /// Takes a buffer from \p P for a new thread and returns it for
  /// initialization.
  ClockT &init(Pool &P) {
    Ref = P.acquire();
    return *Ref;
  }

  const ClockT &operator*() const { return *Ref; }
  const ClockT *operator->() const { return Ref.get(); }
  /// shared_t of Algorithm 4: a release has published the clock since the
  /// owner last re-owned it.
  bool shared() const { return Shared; }

  /// A release's O(1) shallow publication; the caller stores the result in
  /// the sync object.
  const typename Pool::Ref &publish(Metrics &M) {
    Shared = true;
    ++M.ShallowCopies;
    return Ref;
  }

  /// The clock, for mutation.
  ClockT &own(Pool &P, Metrics &M) {
    if (Shared)
      reown(P, M);
    return *Ref;
  }

private:
  /// Only the owner mints references, so a stale reading of unique()
  /// merely costs one extra copy.
  void reown(Pool &P, Metrics &M) {
    Shared = false;
    if (Ref.unique())
      return;
    ++M.CowBreaks;
    bool Reused = false;
    typename Pool::Ref Copy = P.acquire(&Reused);
    M.PoolHits += Reused ? 1 : 0;
    *Copy = *Ref; // Flat copy; a recycled buffer reuses its storage.
    Ref = std::move(Copy);
    ++M.DeepCopies;
    ++M.FullClockOps;
  }

  typename Pool::Ref Ref;
  bool Shared = false;
};

template <typename L>
concept BasicLockable = std::is_default_constructible_v<L> &&
                        requires(L &Lk) {
                          Lk.lock();
                          Lk.unlock();
                        };

/// What EngineDetector and rt::Runtime need from an engine policy.
template <typename C>
concept EngineCore =
    BasicLockable<typename C::Lock> &&
    std::is_default_constructible_v<typename C::Sync> &&
    requires(C &Core, const C &CC, typename C::Sync &S, Metrics &M,
             ThreadId T, const ClockValue *H) {
      { C::Name } -> std::convertible_to<const char *>;
      { C::Sampling } -> std::convertible_to<bool>;
      { CC.width() } -> std::same_as<size_t>;
      { Core.accessTime(T) } -> std::same_as<ClockValue>;
      { CC.knownTime(T, T) } -> std::same_as<ClockValue>;
      { CC.dominates(T, H, size_t()) } -> std::same_as<bool>;
      Core.acquire(T, S, M);
      Core.release(T, S, M);
      Core.releaseStore(T, S, M);
      Core.releaseJoin(T, S, M);
      Core.fork(T, T, M);
      Core.join(T, T, M);
    };

//===----------------------------------------------------------------------===//
// Access histories
//===----------------------------------------------------------------------===//

/// A read of thread \p T checked against and recorded into \p H. For the
/// sampling engines only sampled reads get here. \p Declare(OpKind) is
/// called once per declared race.
template <typename Core, typename DeclareFn>
void checkRead(Core &C, ThreadId T, AccessHistory &H, Metrics &M,
               DeclareFn &&Declare) {
  ClockValue Now = C.accessTime(T);
  // FastTrack's same-epoch fast path. Algorithm 2 has none: every sampled
  // read is checked.
  if constexpr (!Core::Sampling)
    if (H.RLen != 0 ? H.Hist[T] == Now : H.RTid == T && H.RClk == Now)
      return;
  ++M.RaceChecks;
  if (H.WClk > C.knownTime(T, H.WTid))
    Declare(OpKind::Read);
  if (H.RLen != 0) {
    H.Hist[T] = Now;
    H.RLen = std::max<uint32_t>(H.RLen, T + 1);
  } else if (H.RClk <= C.knownTime(T, H.RTid)) {
    // The stored read happens-before this one, which stands for both.
    H.RTid = T;
    H.RClk = Now;
  } else {
    // Two unordered reads: promote (the buffer is all zero, RLen == 0).
    if (!H.Hist)
      H.Hist = std::make_unique<ClockValue[]>(C.width());
    ++M.FullClockOps;
    H.Hist[H.RTid] = H.RClk;
    H.Hist[T] = Now;
    H.RLen = std::max(H.RTid, T) + 1;
  }
}

/// A write of thread \p T checked against and recorded into \p H.
template <typename Core, typename DeclareFn>
void checkWrite(Core &C, ThreadId T, AccessHistory &H, Metrics &M,
                DeclareFn &&Declare) {
  ClockValue Now = C.accessTime(T);
  if constexpr (!Core::Sampling)
    if (H.WTid == T && H.WClk == Now)
      return;
  ++M.RaceChecks;
  bool WriteRace = H.WClk > C.knownTime(T, H.WTid);
  bool ReadRace;
  if (H.RLen != 0) {
    ++M.FullClockOps;
    ReadRace = !C.dominates(T, H.Hist.get(), H.RLen);
    // FastTrack demotes: this write supersedes the read set. Algorithm 2
    // keeps Cr_x, so a promoted sampling history stays promoted.
    if constexpr (!Core::Sampling)
      H.clearReads();
  } else {
    ReadRace = H.RClk > C.knownTime(T, H.RTid);
  }
  // FastTrack declares each conflicting history; Algorithm 2 declares the
  // write once.
  if constexpr (!Core::Sampling)
    if (WriteRace && ReadRace)
      Declare(OpKind::Write);
  if (WriteRace || ReadRace)
    Declare(OpKind::Write);
  H.WTid = T;
  H.WClk = Now;
}

//===----------------------------------------------------------------------===//
// FT and ST: whole vector clocks
//===----------------------------------------------------------------------===//

/// FT (\p SamplingT false) and ST (true): every sync event pays one
/// whole-clock join or copy, O(active) through the simd kernels. FT's
/// clocks start at bottom[t -> 1] and tick after every release-like event
/// (Djit+). ST's start at bottom: C_t(t) tracks the local time of the last
/// *sampled* event, published by the first release-like event after it, so
/// clocks change at most |S| times (Algorithm 2). ST is the baseline the
/// paper's SU/SO engines are measured against (Fig. 5(b)).
///
/// A sync clock is allocated on first touch; an acquire of a sync object
/// no one released joins that bottom clock (Algorithm 2 joins
/// unconditionally).
template <bool SamplingT, typename LockT = NoLock> class VectorClockCore {
public:
  using Lock = LockT;
  static constexpr bool Sampling = SamplingT;
  static constexpr const char *Name = SamplingT ? "ST" : "FT";

  struct Sync {
    [[no_unique_address]] Lock L;
    VectorClock C;
  };

  explicit VectorClockCore(size_t NumThreads) : Threads(NumThreads) {
    for (size_t T = 0; T < NumThreads; ++T) {
      Threads[T].C = VectorClock(NumThreads);
      if constexpr (!Sampling)
        Threads[T].C.set(static_cast<ThreadId>(T), 1);
    }
  }

  size_t width() const { return Threads.size(); }

  /// C_t (FT), or the sampling clock C_t (ST).
  const VectorClock &threadClock(ThreadId T) const { return Threads[T].C; }
  ClockValue localEpoch(ThreadId T) const { return Threads[T].Epoch; }
  bool isDirty(ThreadId T) const { return Threads[T].Dirty; }

  ClockValue accessTime(ThreadId T) {
    if constexpr (Sampling) {
      Threads[T].Dirty = true;
      return Threads[T].Epoch;
    }
    return Threads[T].C.get(T);
  }
  /// C_t(Of) under FT; the effective component C_t[t -> e_t](Of) under ST.
  ClockValue knownTime(ThreadId T, ThreadId Of) const {
    if constexpr (Sampling)
      if (Of == T)
        return Threads[T].Epoch;
    return Threads[T].C.get(Of);
  }
  bool dominates(ThreadId T, const ClockValue *H, size_t Len) const {
    const Thread &TS = Threads[T];
    if constexpr (Sampling)
      return simd::allLeqWithOverride(H, TS.C.data(), Len, T, TS.Epoch);
    return simd::allLeq(H, TS.C.data(), Len);
  }

  void acquire(ThreadId T, Sync &S, Metrics &M) {
    ++M.AcquiresTotal;
    ++M.AcquiresProcessed;
    ++M.FullClockOps;
    std::lock_guard<Lock> G(S.L);
    Threads[T].C.joinWith(clockOf(S));
  }
  void release(ThreadId T, Sync &S, Metrics &M) {
    send(T, S, M, /*Blend=*/false);
  }
  void releaseStore(ThreadId T, Sync &S, Metrics &M) {
    send(T, S, M, /*Blend=*/false);
  }
  void releaseJoin(ThreadId T, Sync &S, Metrics &M) {
    send(T, S, M, /*Blend=*/true);
  }
  /// A fork is a release-like edge from parent to child, communicated
  /// directly thread to thread.
  void fork(ThreadId Parent, ThreadId Child, Metrics &M) {
    ++M.ReleasesTotal;
    ++M.ReleasesProcessed;
    joinThread(Child, Parent, M);
  }
  void join(ThreadId Parent, ThreadId Child, Metrics &M) {
    ++M.AcquiresTotal;
    ++M.AcquiresProcessed;
    joinThread(Parent, Child, M);
  }

private:
  struct alignas(64) Thread : LocalEpoch {
    VectorClock C;
  };

  VectorClock &clockOf(Sync &S) {
    if (S.C.size() == 0)
      S.C = VectorClock(width());
    return S.C;
  }

  /// ST publishes e_t before a release-like event (Lines 19-21).
  void flush(ThreadId T) {
    ClockValue Time;
    if (Sampling && Threads[T].take(Time))
      Threads[T].C.set(T, Time);
  }
  /// FT ticks the local clock after one.
  void tick(ThreadId T) {
    if constexpr (!Sampling)
      Threads[T].C.bump(T);
  }

  void send(ThreadId T, Sync &S, Metrics &M, bool Blend) {
    ++M.ReleasesTotal;
    ++M.ReleasesProcessed;
    flush(T);
    ++M.FullClockOps;
    {
      std::lock_guard<Lock> G(S.L);
      if (Blend)
        clockOf(S).joinWith(Threads[T].C);
      else
        clockOf(S).copyFrom(Threads[T].C);
    }
    tick(T);
  }

  void joinThread(ThreadId Dst, ThreadId Src, Metrics &M) {
    flush(Src);
    ++M.FullClockOps;
    Threads[Dst].C.joinWith(Threads[Src].C);
    tick(Src);
  }

  std::vector<Thread> Threads;
};

template <typename LockT = NoLock> using FTCore = VectorClockCore<false, LockT>;
template <typename LockT = NoLock> using STCore = VectorClockCore<true, LockT>;

//===----------------------------------------------------------------------===//
// SU: Algorithm 3
//===----------------------------------------------------------------------===//

/// SU: each thread and sync object additionally carries a U vector clock
/// counting per-entry updates of the sampling clocks (the VT timestamp,
/// Eq. 9). Scalar freshness comparisons let acquires skip joins that would
/// not bring new information (Proposition 5) and releases skip copies when
/// the thread's clock has not changed since the object last saw it.
/// Timestamping work drops to O(|S| T (T + L)); the joins that do happen
/// (including the change-counting join that maintains U) are kernel passes
/// over the source clock's active prefix.
///
/// Non-mutex synchronization follows appendix A.2: a release-store may use
/// the skip rule only when the storing thread observed the object's current
/// content (a monotone update); a release-join marks the object
/// multi-source, disabling acquire-side skips until the next exclusive
/// release.
template <typename LockT = NoLock> class SUCore {
public:
  using Lock = LockT;
  static constexpr bool Sampling = true;
  static constexpr const char *Name = "SU";

  struct Sync {
    [[no_unique_address]] Lock L;
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

  explicit SUCore(size_t NumThreads) : Threads(NumThreads) {
    for (Thread &TS : Threads) {
      TS.C = VectorClock(NumThreads);
      TS.U = VectorClock(NumThreads);
    }
  }

  size_t width() const { return Threads.size(); }

  const VectorClock &threadClock(ThreadId T) const { return Threads[T].C; }
  const VectorClock &freshnessClock(ThreadId T) const { return Threads[T].U; }
  ClockValue localEpoch(ThreadId T) const { return Threads[T].Epoch; }
  bool isDirty(ThreadId T) const { return Threads[T].Dirty; }

  ClockValue accessTime(ThreadId T) {
    Threads[T].Dirty = true;
    return Threads[T].Epoch;
  }
  ClockValue knownTime(ThreadId T, ThreadId Of) const {
    return Of == T ? Threads[T].Epoch : Threads[T].C.get(Of);
  }
  bool dominates(ThreadId T, const ClockValue *H, size_t Len) const {
    return simd::allLeqWithOverride(H, Threads[T].C.data(), Len, T,
                                    Threads[T].Epoch);
  }

  void acquire(ThreadId T, Sync &S, Metrics &M) {
    ++M.AcquiresTotal;
    std::lock_guard<Lock> G(S.L);
    prepare(S);
    S.AcquiredSince[T] = true;
    // Blended content: the scalar freshness check does not apply (A.2).
    if (!S.MultiSource) {
      ThreadId LR = S.LastReleaser;
      // Never released: the sync clock is bottom, nothing to learn. Else
      // the freshness check of Line 7 of Algorithm 3: if the acquirer
      // already knows the releaser's clock at the version stored in the
      // object, the whole join is redundant (Proposition 5).
      if (LR == NoThread || S.U.get(LR) <= Threads[T].U.get(LR)) {
        ++M.AcquiresSkipped;
        return;
      }
    }
    ++M.AcquiresProcessed;
    joinClocks(T, S.C, S.U, M);
  }
  void release(ThreadId T, Sync &S, Metrics &M) {
    exclusiveRelease(T, S, M, /*Store=*/false);
  }
  void releaseStore(ThreadId T, Sync &S, Metrics &M) {
    exclusiveRelease(T, S, M, /*Store=*/true);
  }
  void releaseJoin(ThreadId T, Sync &S, Metrics &M) {
    ++M.ReleasesTotal;
    ++M.ReleasesProcessed;
    flush(T);
    std::lock_guard<Lock> G(S.L);
    prepare(S);
    S.C.joinWith(Threads[T].C);
    S.U.joinWith(Threads[T].U);
    M.FullClockOps += 2;
    S.MultiSource = true;
    S.LastReleaser = T;
    // Nobody (including T, whose clock may lack other contributors' info)
    // is known to dominate the blended content.
    S.AcquiredSince.assign(width(), false);
  }
  void fork(ThreadId Parent, ThreadId Child, Metrics &M) {
    ++M.ReleasesTotal;
    ++M.ReleasesProcessed;
    flush(Parent);
    joinClocks(Child, Threads[Parent].C, Threads[Parent].U, M);
  }
  void join(ThreadId Parent, ThreadId Child, Metrics &M) {
    ++M.AcquiresTotal;
    ++M.AcquiresProcessed;
    flush(Child);
    joinClocks(Parent, Threads[Child].C, Threads[Child].U, M);
  }

private:
  struct alignas(64) Thread : LocalEpoch {
    VectorClock C, U;
  };

  void prepare(Sync &S) {
    if (S.C.size() != 0)
      return;
    S.C = VectorClock(width());
    S.U = VectorClock(width());
    S.AcquiredSince.assign(width(), false);
  }

  /// Publishing e_t is itself one entry update (Line 17 of Algorithm 3).
  void flush(ThreadId T) {
    Thread &TS = Threads[T];
    ClockValue Time;
    if (!TS.take(Time))
      return;
    TS.C.set(T, Time);
    TS.U.bump(T);
  }

  /// The join path (Lines 8-12 of Algorithm 3): joins U, joins C counting
  /// changed entries, and charges each change to U_t(t) (one tick of the VT
  /// timestamp per changed entry).
  void joinClocks(ThreadId T, const VectorClock &C, const VectorClock &U,
                  Metrics &M) {
    Thread &TS = Threads[T];
    TS.U.joinWith(U);
    ++M.FullClockOps;
    unsigned Changed = TS.C.joinCountingChanges(C);
    ++M.FullClockOps;
    TS.U.bump(T, Changed);
  }

  void exclusiveRelease(ThreadId T, Sync &S, Metrics &M, bool Store) {
    ++M.ReleasesTotal;
    flush(T);
    Thread &TS = Threads[T];
    std::lock_guard<Lock> G(S.L);
    prepare(S);
    // Mutex discipline guarantees a releaser acquired the lock beforehand,
    // so its copy is a monotone update. A release-store is monotone only if
    // the storer has observed the object's current content (A.2).
    bool Monotone = !Store || (!S.MultiSource && S.AcquiredSince[T]);
    S.LastReleaser = T;
    S.MultiSource = false;
    // The release-side skip of Line 19 of Algorithm 3: if the object
    // already holds the latest version of this thread's clock, skip the
    // O(T) copy.
    if (Monotone && TS.U.get(T) == S.U.get(T)) {
      ++M.ReleasesSkipped;
      S.AcquiredSince[T] = true;
      return;
    }
    S.C.copyFrom(TS.C);
    S.U.copyFrom(TS.U);
    M.FullClockOps += 2;
    ++M.ReleasesProcessed;
    S.AcquiredSince.assign(width(), false);
    S.AcquiredSince[T] = true;
  }

  std::vector<Thread> Threads;
};

//===----------------------------------------------------------------------===//
// SO: Algorithm 4
//===----------------------------------------------------------------------===//

/// SO: sampling clocks stored in ordered lists, shared between threads and
/// sync objects by shallow reference with copy-on-write, plus the scalar
/// freshness check. A release is O(1); an acquire traverses only the
/// D = U_l - U_t(LR_l) freshest list entries (Proposition 6). Visiting an
/// entry is one compare against the acquirer's component
/// (OrderedList::visitPrefixAhead); only entries strictly ahead pay for the
/// copy-on-write break and the move to the head. A long prefix is first
/// priced by one simd pass that counts the entries ahead, which skips the
/// walk when none is and cuts it short after the last one otherwise (see
/// joinList); the counters below keep Algorithm 4's model prefix either
/// way. Metrics::EntriesTraversed
/// counts the visits: 1 for the releaser's out-of-line scalar plus
/// min(D, T) per processed single-source acquire, and T per fork, join or
/// multi-source join. Total timestamping work is O(|S| T^2), independent of
/// the number of locks, and instance optimal up to a factor T (Lemma 9).
/// The promoted read-history check and the multi-source materialization
/// run over the list's SoA time array through the simd clock kernels.
///
/// The local-epoch optimization (Section 6.1, the "dirty epoch"
/// optimization of the RAPID experiments) carries the thread's own
/// component next to the shared list as a scalar, so publishing a new local
/// epoch never forces a deep copy. It is a constructor argument so the
/// ablation (SO-noepoch) stays.
///
/// Snapshot lifecycle (the zero-allocation hot path): a release publishes
/// the thread's list by reference and the owner's next mutation re-owns it
/// (CowClock).
///
/// Non-mutex synchronization (appendix A.2): a release-store is a release,
/// since a shallow snapshot implements replacement semantics exactly ("the
/// innovations of Algorithm 4 can always be adopted"). A release-join
/// converts the object to an owned blended vector clock (multi-source),
/// processed without skips.
template <typename LockT = NoLock> class SOCore {
  /// Whether another thread may replace a sync object's snapshot once its
  /// lock is released (then an acquire pins the snapshot it walks, and the
  /// snapshot pool counts and recycles atomically).
  static constexpr bool Concurrent = !std::is_same_v<LockT, NoLock>;
  using ListPool = SnapshotPool<OrderedList, Concurrent>;
  /// Read-only view held by sync objects: published snapshots are
  /// immutable while shared, and this type makes that a compile error to
  /// violate.
  using ListSnapshot = typename ListPool::ConstRef;

public:
  using Lock = LockT;
  static constexpr bool Sampling = true;
  static constexpr const char *Name = "SO";

  struct Sync {
    [[no_unique_address]] Lock L;
    /// Single-source snapshot plus release-time scalars.
    ListSnapshot Ref;
    ThreadId LastReleaser = NoThread;
    /// U_l of Algorithm 4: the releaser's own freshness count at release.
    ClockValue UScalar = 0;
    /// The releaser's own component at release (C_t(t)), carried as a
    /// scalar so local-epoch releases stay O(1).
    ClockValue OwnTimeAtRelease = 0;
    /// Multi-source (release-join) content, processed without skips.
    bool MultiSource = false;
    VectorClock C, U;
  };

  explicit SOCore(size_t NumThreads, bool LocalEpochOpt = true)
      : LocalEpochOpt(LocalEpochOpt), Threads(NumThreads) {
    for (Thread &TS : Threads) {
      TS.O.init(Pool).reset(NumThreads);
      TS.U = VectorClock(NumThreads);
    }
  }

  size_t width() const { return Threads.size(); }

  /// The thread's ordered list (tests inspect structure and sharing).
  const OrderedList &orderedList(ThreadId T) const { return *Threads[T].O; }
  bool isListShared(ThreadId T) const { return Threads[T].O.shared(); }
  const VectorClock &freshnessClock(ThreadId T) const { return Threads[T].U; }
  ClockValue localEpoch(ThreadId T) const { return Threads[T].Epoch; }
  bool isDirty(ThreadId T) const { return Threads[T].Dirty; }
  /// Effective component C_t(Of): the list entry, except the thread's own
  /// component, which the local-epoch optimization carries out of line.
  ClockValue effectiveComponent(ThreadId T, ThreadId Of) const {
    return Of == T ? Threads[T].OwnTime : Threads[T].O->get(Of);
  }

  ClockValue accessTime(ThreadId T) {
    Threads[T].Dirty = true;
    return Threads[T].Epoch;
  }
  ClockValue knownTime(ThreadId T, ThreadId Of) const {
    return Of == T ? Threads[T].Epoch : Threads[T].O->get(Of);
  }
  /// The only possibly stale list entry is the thread's own, and the
  /// effective-epoch override replaces it anyway (e_t >= OwnTime).
  bool dominates(ThreadId T, const ClockValue *H, size_t Len) const {
    return simd::allLeqWithOverride(H, Threads[T].O->data(), Len, T,
                                    Threads[T].Epoch);
  }

  void acquire(ThreadId T, Sync &S, Metrics &M) {
    ++M.AcquiresTotal;
    Thread &TS = Threads[T];
    // Only the freshness check and the O(1) snapshot read happen under the
    // sync lock; the prefix walk reads immutable data and thread-owned
    // state.
    ListSnapshot Pin;
    const OrderedList *Src;
    ThreadId LR;
    ClockValue D, OwnAtRelease;
    {
      std::lock_guard<Lock> G(S.L);
      if (S.MultiSource) {
        // Blended content: the unoptimized full join, under the sync lock
        // (A.2: "no innovations can be adopted" on this path).
        ++M.AcquiresProcessed;
        joinFromClock(T, S.C, S.U, M);
        return;
      }
      LR = S.LastReleaser;
      if (LR == NoThread) {
        ++M.AcquiresSkipped;
        return;
      }
      // Line 7 of Algorithm 4: the scalar freshness check.
      ClockValue Known = TS.U.get(LR);
      if (S.UScalar <= Known) {
        ++M.AcquiresSkipped;
        return;
      }
      D = S.UScalar - Known;
      TS.U.set(LR, S.UScalar);
      Src = S.Ref.get();
      if constexpr (Concurrent)
        Pin = S.Ref;
      OwnAtRelease = S.OwnTimeAtRelease;
    }
    ++M.AcquiresProcessed;
    // The releaser's scalar is one visited entry; by Proposition 6 only the
    // first D list entries can be ahead of us.
    ++M.EntriesTraversed;
    unsigned Changed =
        joinList(T, *Src, static_cast<size_t>(D), LR, OwnAtRelease, M);
    M.TraversalOpportunities += width();
    TS.U.bump(T, Changed);
  }
  /// Lines 24-27 of Algorithm 4: the O(1) shallow publication. Snapshot
  /// validity relies on copy-on-write: once shared, the list is immutable.
  void release(ThreadId T, Sync &S, Metrics &M) {
    ++M.ReleasesTotal;
    flush(T, M);
    Thread &TS = Threads[T];
    std::lock_guard<Lock> G(S.L);
    S.Ref = TS.O.publish(M);
    S.LastReleaser = T;
    S.UScalar = TS.U.get(T);
    S.OwnTimeAtRelease = TS.OwnTime;
    S.MultiSource = false;
  }
  void releaseStore(ThreadId T, Sync &S, Metrics &M) { release(T, S, M); }
  void releaseJoin(ThreadId T, Sync &S, Metrics &M) {
    ++M.ReleasesTotal;
    ++M.ReleasesProcessed;
    flush(T, M);
    Thread &TS = Threads[T];
    std::lock_guard<Lock> G(S.L);
    toMultiSource(S, M);
    // Blend this thread's effective clock into the owned content.
    for (ThreadId Of = 0; Of < width(); ++Of) {
      ClockValue Val = Of == T ? TS.OwnTime : TS.O->get(Of);
      if (Val > S.C.get(Of))
        S.C.set(Of, Val);
    }
    S.U.joinWith(TS.U);
    M.FullClockOps += 2;
  }
  void fork(ThreadId Parent, ThreadId Child, Metrics &M) {
    ++M.ReleasesTotal;
    ++M.ReleasesProcessed;
    flush(Parent, M);
    joinThread(Child, Parent, M);
  }
  void join(ThreadId Parent, ThreadId Child, Metrics &M) {
    ++M.AcquiresTotal;
    ++M.AcquiresProcessed;
    flush(Child, M);
    joinThread(Parent, Child, M);
  }

private:
  struct alignas(64) Thread : LocalEpoch {
    CowClock<OrderedList, Concurrent> O;
    VectorClock U;
    /// The paper's C_t(t) (local time of the last sampled event). Under the
    /// local-epoch optimization this is authoritative and the list entry
    /// may lag.
    ClockValue OwnTime = 0;
  };

  void flush(ThreadId T, Metrics &M) {
    Thread &TS = Threads[T];
    ClockValue Time;
    if (!TS.take(Time))
      return;
    TS.OwnTime = Time;
    TS.U.bump(T);
    if (!LocalEpochOpt) {
      // Without the optimization the epoch lands in the list itself, which
      // may force a deep copy right here.
      TS.O.own(Pool, M).set(T, Time);
    }
  }

  /// Applies one foreign entry (\p Of, \p Val) strictly ahead of thread
  /// \p T's component: re-owns the list, then moves the entry to the head.
  void applyEntry(ThreadId T, ThreadId Of, ClockValue Val, Metrics &M) {
    assert(Of != T && Val > Threads[T].O->get(Of) && "entry not ahead");
    Threads[T].O.own(Pool, M).set(Of, Val);
  }

  /// Whether a walk of \p Visits entries over width-\p Width lists first
  /// counts the entries ahead in one kernel pass. The walk chases list
  /// links at about ten times a kernel word's price, so the count pays for
  /// itself once the prefix is an eighth of the width; below 8 entries the
  /// walk is cheaper than any setup.
  static constexpr bool countsAheadFirst(size_t Visits, size_t Width) {
    return Visits >= 8 && Visits * 8 >= Width;
  }

  /// Joins the first \p K entries of \p Src, plus its owner \p SrcTid's
  /// out-of-line component \p SrcOwnTime (applied first), into thread
  /// \p T's list. Adds the min(K, T) visited entries to EntriesTraversed;
  /// returns the number applied. Past the countsAheadFirst gate, one
  /// non-mutating simd pass counts the entries ahead and the walk stops
  /// after that many applies (at once when none is ahead). Applies touch
  /// only the entry applied, so the count taken before the walk is exactly
  /// the walk's apply count: the same entries land in the same order.
  unsigned joinList(ThreadId T, const OrderedList &Src, size_t K,
                    ThreadId SrcTid, ClockValue SrcOwnTime, Metrics &M) {
    Thread &TS = Threads[T];
    unsigned Changed = 0;
    auto Current = [&TS](ThreadId Of) { return TS.O->get(Of); };
    auto Apply = [&](ThreadId Of, ClockValue Val) {
      applyEntry(T, Of, Val, M);
      ++Changed;
    };
    // SrcTid != T: an acquire of one's own release is always skipped, and
    // no thread forks or joins itself.
    assert(SrcTid != T && "self-join");
    if (SrcOwnTime > Current(SrcTid))
      Apply(SrcTid, SrcOwnTime);
    size_t Bound = SIZE_MAX;
    if (countsAheadFirst(std::min(K, width()), width())) {
      // The acquirer's own component never counts: it is authored locally.
      Bound = simd::countGreater(Src.data(), TS.O->data(), width()) -
              (Src.get(T) > Current(T));
    }
    M.EntriesTraversed += Src.visitPrefixAhead(K, T, Current, Apply, Bound);
    return Changed;
  }

  /// Direct thread-to-thread edge (fork/join): \p Dst imports \p Src's
  /// effective clock (list plus out-of-line own component) and freshness
  /// clock, always processed.
  void joinThread(ThreadId Dst, ThreadId Src, Metrics &M) {
    Thread &D = Threads[Dst];
    const Thread &S = Threads[Src];
    D.U.joinWith(S.U);
    ++M.FullClockOps;
    unsigned Changed = joinList(Dst, *S.O, width(), Src, S.OwnTime, M);
    M.TraversalOpportunities += width();
    ++M.FullClockOps;
    D.U.bump(Dst, Changed);
  }

  /// Full join from an owned vector clock (multi-source sync objects).
  void joinFromClock(ThreadId T, const VectorClock &C, const VectorClock &U,
                     Metrics &M) {
    Thread &TS = Threads[T];
    TS.U.joinWith(U);
    ++M.FullClockOps;
    unsigned Changed = 0;
    for (ThreadId Of = 0; Of < width(); ++Of) {
      // visitPrefixAhead's rule, over an owned clock.
      if (Of != T && C.get(Of) > TS.O->get(Of)) {
        applyEntry(T, Of, C.get(Of), M);
        ++Changed;
      }
    }
    M.EntriesTraversed += width();
    M.TraversalOpportunities += width();
    ++M.FullClockOps;
    TS.U.bump(T, Changed);
  }

  /// Materializes a single-source snapshot into the object's owned clocks
  /// (honoring the out-of-line releaser component), converting it to
  /// multi-source form.
  void toMultiSource(Sync &S, Metrics &M) {
    if (S.MultiSource)
      return;
    if (S.C.size() == 0) {
      S.C = VectorClock(width());
      S.U = VectorClock(width());
    }
    if (S.Ref) {
      S.Ref->toVectorClock(S.C, S.LastReleaser, S.OwnTimeAtRelease);
      S.U.clear();
      S.U.set(S.LastReleaser, S.UScalar);
      M.FullClockOps += 2;
      S.Ref.reset();
    }
    S.MultiSource = true;
  }

  bool LocalEpochOpt;
  /// Declared before the thread table: its outstanding references drain
  /// back into the pool on destruction.
  ListPool Pool;
  std::vector<Thread> Threads;
};

//===----------------------------------------------------------------------===//
// TC: the tree-clock ablation
//===----------------------------------------------------------------------===//

/// TC: the ablation for the related-work comparison of Section 7. Tree
/// clocks are an *optimal* data structure for computing the full
/// happens-before relation, but they cannot soundly prune joins under the
/// *sampling* timestamp (the same component value may stand for growing
/// knowledge, defeating the value-based subtree pruning). This engine
/// therefore computes full-HB timestamps in tree clocks, ticking the local
/// component after every release-like event as FastTrack does, while
/// checking races only on sampled events. bench_ablation_treeclock compares
/// its acquire-side traversal work against SO's ordered-list prefix walks.
///
/// Sync objects hold copy-on-write snapshots of the releasing thread's
/// tree (CowClock). The tick after the release forces the deep copy at
/// once: full-HB timestamps change at every release, which is the
/// redundancy the sampling timestamp removes.
///
/// A release-join falls back to a release (replacement), so TC is exact
/// only on traces without release-joins.
class TCCore {
  /// Offline only (NoLock), so the pool is unsynchronized.
  using TreePool = SnapshotPool<TreeClock, /*Concurrent=*/false>;

public:
  using Lock = NoLock;
  static constexpr bool Sampling = true;
  static constexpr const char *Name = "TC";

  struct Sync {
    /// Published snapshot; immutable while shared (const-enforced).
    TreePool::ConstRef Ref;
  };

  explicit TCCore(size_t NumThreads) : Threads(NumThreads) {
    for (ThreadId T = 0; T < NumThreads; ++T) {
      TreeClock &C = Threads[T].init(Pool);
      C.reset(NumThreads, T);
      // Full-HB local time starts at 1, as in Djit+/FastTrack.
      C.setRootTime(1);
    }
  }

  size_t width() const { return Threads.size(); }

  const TreeClock &threadClock(ThreadId T) const { return *Threads[T]; }

  ClockValue accessTime(ThreadId T) { return Threads[T]->get(T); }
  ClockValue knownTime(ThreadId T, ThreadId Of) const {
    return Threads[T]->get(Of);
  }
  bool dominates(ThreadId T, const ClockValue *H, size_t Len) const {
    const TreeClock &C = *Threads[T];
    for (size_t I = 0; I < Len; ++I)
      if (H[I] > C.get(static_cast<ThreadId>(I)))
        return false;
    return true;
  }

  void acquire(ThreadId T, Sync &S, Metrics &M) {
    ++M.AcquiresTotal;
    if (!S.Ref) {
      ++M.AcquiresSkipped;
      return;
    }
    joinInto(T, *S.Ref, M);
  }
  /// Publishes a snapshot, then advances local time.
  void release(ThreadId T, Sync &S, Metrics &M) {
    ++M.ReleasesTotal;
    ++M.ReleasesProcessed;
    S.Ref = Threads[T].publish(M);
    tick(T, M);
  }
  void releaseStore(ThreadId T, Sync &S, Metrics &M) { release(T, S, M); }
  void releaseJoin(ThreadId T, Sync &S, Metrics &M) { release(T, S, M); }
  void fork(ThreadId Parent, ThreadId Child, Metrics &M) {
    ++M.ReleasesTotal;
    ++M.ReleasesProcessed;
    // Count the child's import as acquire-side work, mirroring the other
    // engines.
    ++M.AcquiresTotal;
    joinInto(Child, *Threads[Parent], M);
    tick(Parent, M);
  }
  void join(ThreadId Parent, ThreadId Child, Metrics &M) {
    ++M.AcquiresTotal;
    joinInto(Parent, *Threads[Child], M);
    tick(Child, M);
  }

private:
  void tick(ThreadId T, Metrics &M) {
    Threads[T].own(Pool, M).incrementRoot();
  }

  /// Joins \p Src into thread \p T's clock, counting the examined nodes.
  void joinInto(ThreadId T, const TreeClock &Src, Metrics &M) {
    // Fast path, sound under full-HB timestamps: equal root values imply
    // equal knowledge, since the local component advances at every release.
    if (Src.get(Src.root()) <= Threads[T]->get(Src.root())) {
      ++M.AcquiresSkipped;
      return;
    }
    M.EntriesTraversed += Threads[T].own(Pool, M).joinFrom(Src);
    M.TraversalOpportunities += width();
    ++M.AcquiresProcessed;
  }

  /// Declared before the thread table: its outstanding references drain
  /// back into the pool on destruction.
  TreePool Pool;
  std::vector<CowClock<TreeClock, false>> Threads;
};

} // namespace engine
} // namespace sampletrack

#endif // SAMPLETRACK_DETECTORS_ENGINECORE_H
