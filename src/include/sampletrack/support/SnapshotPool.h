//===- sampletrack/support/SnapshotPool.h - Pooled CoW snapshots -*- C++ -*-==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A free-list pool of refcounted snapshot buffers (OrderedList, TreeClock)
/// backing the zero-allocation hot path of the copy-on-write publish scheme
/// (Algorithm 4's shared lists, and the analogous tree-clock buffers).
///
/// The cycle: a thread publishes its clock as an immutable shared snapshot
/// (a cheap \ref SnapshotPool::Ref copy), keeps mutating only after a
/// CoW break, and the break's replacement buffer comes from the pool's
/// free list instead of the allocator. When the last reference to a buffer
/// drops — typically when a sync object's snapshot is overwritten by a
/// newer release — the buffer (vector capacity and all) returns to the
/// free list, so a steady-state run recycles a small working set of
/// buffers instead of allocating one per deep copy.
///
/// Refs also expose \ref Ref::unique, which is what makes the copy *lazy*:
/// an owner whose publication has since been dropped by every reader can
/// simply resume mutating in place — copy only when contended.
///
/// Thread-safety is a compile-time property of the owner. A Concurrent
/// pool counts references atomically and guards its free list with a
/// mutex, so its references may be copied and dropped from any thread (the
/// online Runtime drops snapshot references across threads). An offline
/// engine is driven by one lane at a time, so its pool uses plain counts
/// and an unguarded free list. Either way the buffers follow the usual CoW
/// discipline: immutable while shared, mutated only by their unique owner.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_SUPPORT_SNAPSHOTPOOL_H
#define SAMPLETRACK_SUPPORT_SNAPSHOTPOOL_H

#include <atomic>
#include <cassert>
#include <cstdint>
#include <mutex>
#include <type_traits>
#include <utility>

namespace sampletrack {

/// The lock of single-threaded users: an unsynchronized pool's free-list
/// guard, and the sync lock of the offline engines.
struct NoLock {
  void lock() {}
  void unlock() {}
};

/// An intrusive reference count: atomic when references cross threads, a
/// plain word when one thread holds them all.
template <bool Concurrent> class RefCount {
public:
  void inc() {
    if constexpr (Concurrent)
      N.fetch_add(1, std::memory_order_relaxed);
    else
      ++N;
  }
  /// Drops one reference; true if it was the last.
  bool dec() {
    if constexpr (Concurrent)
      return N.fetch_sub(1, std::memory_order_acq_rel) == 1;
    else
      return --N == 0;
  }
  uint64_t load() const {
    if constexpr (Concurrent)
      return N.load(std::memory_order_acquire);
    else
      return N;
  }

private:
  std::conditional_t<Concurrent, std::atomic<uint64_t>, uint64_t> N{0};
};

/// Free-list pool of intrusively refcounted \p T buffers, synchronized iff
/// \p Concurrent.
///
/// \p T must be default-constructible; recycled buffers keep their previous
/// contents (that is the point — their heap capacity is the asset), so the
/// caller re-initializes or copy-assigns over them after \ref acquire.
template <typename T, bool Concurrent> class SnapshotPool {
  using Mutex = std::conditional_t<Concurrent, std::mutex, NoLock>;
  struct Core;
  struct Node {
    T Value;
    /// No control-block allocation per snapshot, unlike std::shared_ptr
    /// with a custom deleter.
    RefCount<Concurrent> Refs;
    Core *C = nullptr;
    Node *NextFree = nullptr;
  };

  /// The pool's state, on the heap so that the destructor can leak it
  /// whole if a Ref is still out (see ~SnapshotPool).
  struct Core {
    Mutex M;
    Node *FreeHead = nullptr;
    size_t FreeCount = 0;
    uint64_t Hits = 0;
    uint64_t Misses = 0;
  };

  static void releaseNode(Node *N) {
    if (!N->Refs.dec())
      return;
    Core *C = N->C;
    std::lock_guard<Mutex> G(C->M);
    N->NextFree = C->FreeHead;
    C->FreeHead = N;
    ++C->FreeCount;
  }

public:
  /// A shared reference to a pooled buffer. Pointer-sized; copying bumps
  /// the intrusive refcount. When the last Ref drops, the buffer returns
  /// to its pool's free list.
  class Ref {
  public:
    Ref() = default;
    Ref(const Ref &O) : N(O.N) {
      if (N)
        N->Refs.inc();
    }
    Ref(Ref &&O) noexcept : N(O.N) { O.N = nullptr; }
    /// Copy or move assignment: \p O's destructor drops the old buffer.
    Ref &operator=(Ref O) noexcept {
      std::swap(N, O.N);
      return *this;
    }
    ~Ref() { reset(); }

    void reset() {
      if (N) {
        releaseNode(N);
        N = nullptr;
      }
    }

    explicit operator bool() const { return N != nullptr; }
    T *get() const { return N ? &N->Value : nullptr; }
    T &operator*() const { return N->Value; }
    T *operator->() const { return &N->Value; }

    /// True iff this is the only reference — the owner may mutate in place
    /// (the lazy-CoW check: no reader holds the published snapshot).
    bool unique() const { return N && N->Refs.load() == 1; }

    /// Identity comparison (same buffer, not same contents); tests use it
    /// to check snapshot sharing and recycling.
    bool operator==(const Ref &O) const { return N == O.N; }

  private:
    friend class SnapshotPool;
    explicit Ref(Node *N) : N(N) {}
    Node *N = nullptr;
  };

  /// A read-only reference to a published snapshot: same refcounting as
  /// \ref Ref, const-only access. Sync objects hold their snapshots
  /// through this, restoring the compile-time "immutable while shared"
  /// guarantee the shared_ptr<const T> representation used to give.
  class ConstRef {
  public:
    ConstRef() = default;
    ConstRef(Ref R) : R(std::move(R)) {}
    ConstRef &operator=(Ref O) {
      R = std::move(O);
      return *this;
    }

    void reset() { R.reset(); }
    explicit operator bool() const { return static_cast<bool>(R); }
    const T *get() const { return R.get(); }
    const T &operator*() const { return *R; }
    const T *operator->() const { return R.get(); }

    /// Identity comparison against the owner's mutable ref (tests check
    /// snapshot sharing).
    bool operator==(const Ref &O) const { return R == O; }

  private:
    Ref R;
  };

  SnapshotPool() : C(new Core) {}
  SnapshotPool(const SnapshotPool &) = delete;
  SnapshotPool &operator=(const SnapshotPool &) = delete;

  /// Frees every buffer. Each buffer ever allocated is a miss, and every
  /// one is back on the free list once its owner has dropped its Refs, as
  /// every owner does before its pool dies. If a Ref is still out, freeing
  /// would leave it pointing at freed memory, so the pool's state is leaked
  /// instead (LeakSanitizer reports it), in release builds too.
  ~SnapshotPool() {
    bool RefsOut = misses() != freeCount();
    assert(!RefsOut && "a Ref outlives its SnapshotPool");
    if (RefsOut)
      return;
    while (Node *N = C->FreeHead) {
      C->FreeHead = N->NextFree;
      delete N;
    }
    delete C;
  }

  /// Returns a buffer with refcount 1 (a parked buffer's count is 0).
  /// Served from the free list when possible (\p Reused set true — a
  /// PoolHit; the contents are stale and must be overwritten), else freshly
  /// allocated (\p Reused false).
  Ref acquire(bool *Reused = nullptr) {
    Node *N;
    {
      std::lock_guard<Mutex> G(C->M);
      N = C->FreeHead;
      if (N) {
        C->FreeHead = N->NextFree;
        --C->FreeCount;
        ++C->Hits;
      } else {
        ++C->Misses;
      }
    }
    if (Reused)
      *Reused = N != nullptr;
    if (!N) {
      N = new Node;
      N->C = C;
    }
    N->Refs.inc();
    return Ref(N);
  }

  /// Buffers currently parked on the free list.
  size_t freeCount() const {
    std::lock_guard<Mutex> G(C->M);
    return C->FreeCount;
  }

  /// Acquires served by the free list / by the allocator.
  uint64_t hits() const {
    std::lock_guard<Mutex> G(C->M);
    return C->Hits;
  }
  uint64_t misses() const {
    std::lock_guard<Mutex> G(C->M);
    return C->Misses;
  }

private:
  Core *C;
};

} // namespace sampletrack

#endif // SAMPLETRACK_SUPPORT_SNAPSHOTPOOL_H
