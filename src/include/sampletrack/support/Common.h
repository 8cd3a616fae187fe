//===- sampletrack/support/Common.h - Basic identifiers --------*- C++ -*-===//
//
// Part of the SampleTrack project: a reproduction of "Efficient Timestamping
// for Sampling-Based Race Detection" (PLDI 2025).
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fundamental identifier and timestamp types shared by every SampleTrack
/// library. Thread, lock and memory-location identifiers are small dense
/// integers so that vector clocks and shadow state can be array-indexed.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_SUPPORT_COMMON_H
#define SAMPLETRACK_SUPPORT_COMMON_H

#include <cstddef>
#include <cstdint>
#include <limits>

namespace sampletrack {

/// Dense identifier of a thread. Threads are numbered 0..T-1.
using ThreadId = uint32_t;

/// Dense identifier of a synchronization object (lock, atomic variable,
/// thread-join channel). Numbered 0..L-1 within a trace.
using SyncId = uint32_t;

/// Identifier of a memory location (variable). Numbered 0..V-1 within a
/// trace; the online runtime hashes raw addresses into this space.
using VarId = uint64_t;

/// A single component of a vector timestamp.
using ClockValue = uint64_t;

/// Sentinel for "no thread", used e.g. for a lock that was never released
/// (the LR_l variable of Algorithms 3 and 4).
inline constexpr ThreadId NoThread = std::numeric_limits<ThreadId>::max();

/// Sentinel for "no sync object".
inline constexpr SyncId NoSync = std::numeric_limits<SyncId>::max();

/// Sentinel for "no variable".
inline constexpr VarId NoVar = std::numeric_limits<VarId>::max();

/// Grows \p Vec (any std::vector-like container of default-constructible
/// elements) so that index \p I is valid, reserving geometrically. A plain
/// resize(I + 1) per new maximum is O(n^2) total on ascending-index streams
/// with libraries that size the new buffer exactly; doubling the capacity
/// makes lazily-grown per-variable / per-sync state amortized O(1) per
/// element on every implementation.
///
/// Only the size check is inline: the growth lives in a separate cold
/// function, so the per-event call sites in the detectors stay one compare
/// and a not-taken branch.
template <typename VecT>
[[gnu::noinline, gnu::cold]] void growToIndexSlow(VecT &Vec, std::size_t I) {
  if (I >= Vec.capacity()) {
    std::size_t Doubled = Vec.capacity() * 2;
    Vec.reserve(I + 1 > Doubled ? I + 1 : Doubled);
  }
  Vec.resize(I + 1);
}

template <typename VecT>
inline void growToIndex(VecT &Vec, std::size_t I) {
  if (I >= Vec.size()) [[unlikely]]
    growToIndexSlow(Vec, I);
}

/// Incremental FNV-1a 64 — the repo's one non-cryptographic byte hash
/// (schedule identities, persisted-store checksums). Feed values through
/// the fixed-width helpers so the hash is byte-order independent.
struct Fnv1a {
  uint64_t H = 0xcbf29ce484222325ULL;

  void byte(uint8_t B) {
    H ^= B;
    H *= 0x100000001b3ULL;
  }

  void bytes(const void *P, std::size_t N) {
    const unsigned char *C = static_cast<const unsigned char *>(P);
    for (std::size_t I = 0; I < N; ++I)
      byte(C[I]);
  }

  void u32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      byte((V >> (8 * I)) & 0xff);
  }

  uint64_t value() const { return H; }
};

/// \ref growToIndex, assigning \p Fill to every newly created element
/// (only the new tail is touched — a full re-scan per growth would bring
/// the O(n^2) right back).
template <typename VecT>
inline void growToIndexFilled(VecT &Vec, std::size_t I,
                              const typename VecT::value_type &Fill) {
  std::size_t Old = Vec.size();
  growToIndex(Vec, I);
  for (std::size_t K = Old; K < Vec.size(); ++K)
    Vec[K] = Fill;
}

} // namespace sampletrack

#endif // SAMPLETRACK_SUPPORT_COMMON_H
