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
/// Thread-safety: acquire/release are safe from any thread (the online
/// Runtime drops snapshot references across threads); the buffers
/// themselves follow the usual CoW discipline — immutable while shared,
/// mutated only by their unique owner.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_SUPPORT_SNAPSHOTPOOL_H
#define SAMPLETRACK_SUPPORT_SNAPSHOTPOOL_H

#include <atomic>
#include <cassert>
#include <cstdint>
#include <mutex>
#include <utility>

namespace sampletrack {

/// Free-list pool of intrusively refcounted \p T buffers.
///
/// \p T must be default-constructible; recycled buffers keep their previous
/// contents (that is the point — their heap capacity is the asset), so the
/// caller re-initializes or copy-assigns over them after \ref acquire.
template <typename T> class SnapshotPool {
  struct Core;
  struct Node {
    T Value;
    /// Intrusive reference count: no control-block allocation per snapshot,
    /// unlike std::shared_ptr with a custom deleter.
    std::atomic<uint64_t> Refs{0};
    Core *C = nullptr;
    Node *NextFree = nullptr;
  };

  struct Core {
    std::mutex M;
    Node *FreeHead = nullptr;
    size_t FreeCount = 0;
    bool Dying = false;
    bool Enabled = true;
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    /// One reference per live Node plus one for the pool object itself;
    /// whoever drops the last one frees the Core. This lets outstanding
    /// Refs outlive the pool (they fall back to plain deletion).
    std::atomic<uint64_t> CoreRefs{1};
  };

  static void dropCore(Core *C) {
    if (C->CoreRefs.fetch_sub(1, std::memory_order_acq_rel) == 1)
      delete C;
  }

  static void releaseNode(Node *N) {
    if (N->Refs.fetch_sub(1, std::memory_order_acq_rel) != 1)
      return;
    Core *C = N->C;
    bool Recycled = false;
    {
      std::lock_guard<std::mutex> G(C->M);
      if (!C->Dying && C->Enabled) {
        N->NextFree = C->FreeHead;
        C->FreeHead = N;
        ++C->FreeCount;
        Recycled = true;
      }
    }
    if (!Recycled) {
      delete N;
      dropCore(C);
    }
  }

public:
  /// A shared reference to a pooled buffer. Pointer-sized; copying bumps
  /// the intrusive refcount. When the last Ref drops, the buffer returns
  /// to its pool's free list (or is deleted if the pool is gone).
  class Ref {
  public:
    Ref() = default;
    Ref(const Ref &O) : N(O.N) {
      if (N)
        N->Refs.fetch_add(1, std::memory_order_relaxed);
    }
    Ref(Ref &&O) noexcept : N(O.N) { O.N = nullptr; }
    Ref &operator=(const Ref &O) {
      if (O.N)
        O.N->Refs.fetch_add(1, std::memory_order_relaxed);
      Node *Old = N;
      N = O.N;
      if (Old)
        releaseNode(Old);
      return *this;
    }
    Ref &operator=(Ref &&O) noexcept {
      if (this != &O) {
        Node *Old = N;
        N = O.N;
        O.N = nullptr;
        if (Old)
          releaseNode(Old);
      }
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
    bool unique() const {
      return N && N->Refs.load(std::memory_order_acquire) == 1;
    }

    /// Identity comparison (same buffer, not same contents); tests use it
    /// to check snapshot sharing and recycling.
    bool operator==(const Ref &O) const { return N == O.N; }
    bool operator!=(const Ref &O) const { return N != O.N; }

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

  ~SnapshotPool() {
    Node *Head;
    {
      std::lock_guard<std::mutex> G(C->M);
      C->Dying = true;
      Head = C->FreeHead;
      C->FreeHead = nullptr;
      C->FreeCount = 0;
    }
    while (Head) {
      Node *N = Head;
      Head = N->NextFree;
      delete N;
      dropCore(C);
    }
    dropCore(C); // The pool's own Core reference.
  }

  /// Returns a buffer with refcount 1. Served from the free list when
  /// possible (\p Reused set true — a PoolHit; the contents are stale and
  /// must be overwritten), else freshly allocated (\p Reused false).
  Ref acquire(bool *Reused = nullptr) {
    Node *N = nullptr;
    {
      std::lock_guard<std::mutex> G(C->M);
      if (C->Enabled && C->FreeHead) {
        N = C->FreeHead;
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
      C->CoreRefs.fetch_add(1, std::memory_order_relaxed);
      N = new Node;
      N->C = C;
    }
    N->NextFree = nullptr;
    N->Refs.store(1, std::memory_order_relaxed);
    return Ref(N);
  }

  /// Disables (or re-enables) recycling: disabled, every acquire allocates
  /// and every final release deletes — the unpooled reference behavior the
  /// differential harness compares against. Disabling drains the free list.
  void setEnabled(bool Enabled) {
    Node *Head = nullptr;
    {
      std::lock_guard<std::mutex> G(C->M);
      C->Enabled = Enabled;
      if (!Enabled) {
        Head = C->FreeHead;
        C->FreeHead = nullptr;
        C->FreeCount = 0;
      }
    }
    while (Head) {
      Node *N = Head;
      Head = N->NextFree;
      delete N;
      dropCore(C);
    }
  }

  bool enabled() const {
    std::lock_guard<std::mutex> G(C->M);
    return C->Enabled;
  }

  /// Buffers currently parked on the free list.
  size_t freeCount() const {
    std::lock_guard<std::mutex> G(C->M);
    return C->FreeCount;
  }

  /// Acquires served by the free list / by the allocator.
  uint64_t hits() const {
    std::lock_guard<std::mutex> G(C->M);
    return C->Hits;
  }
  uint64_t misses() const {
    std::lock_guard<std::mutex> G(C->M);
    return C->Misses;
  }

private:
  Core *C;
};

} // namespace sampletrack

#endif // SAMPLETRACK_SUPPORT_SNAPSHOTPOOL_H
