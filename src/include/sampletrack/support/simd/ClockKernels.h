//===- sampletrack/support/simd/ClockKernels.h - SIMD clock ops -*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The vectorized inner loops of every engine: pointwise max (the vector
/// clock join of Eq. 4), pointwise <= (the \f$ \sqsubseteq \f$ of Eq. 3),
/// the change-counting join Algorithm 3 charges to U_t(t), and the
/// non-mutating count of components strictly ahead (SO's acquire gate).
/// All kernels operate on flat uint64_t arrays — the SoA
/// storage of VectorClock and OrderedList — and are selected once at
/// startup from a small tier ladder, best first:
///
///   - Avx512 x86-64 with AVX-512F, detected at runtime via cpuid. 8 lanes
///            per step with native unsigned max and compare; tails of 1-7
///            words run as one masked step.
///   - Avx2   x86-64 with AVX2, detected the same way. 4 lanes per step;
///            unsigned order is emulated by sign-flipped signed compares.
///            Neither x86 tier needs -mavx2/-mavx512f for the binary: the
///            kernels carry function-level target attributes, so a host
///            without the extension simply never calls them.
///   - Neon   AArch64 (Advanced SIMD is baseline there, so compile-time).
///   - Scalar portable fallback, and the reference semantics: every tier
///            must be *bit-identical* to it — this is fuzzed by the
///            SimdTier axis of the differential harness and pinned by
///            ClockTest property cases across vector-width boundaries.
///
/// Setting SAMPLETRACK_FORCE_SCALAR=1 in the environment pins the scalar
/// tier (CI runs a whole matrix leg this way so the fallback stays green);
/// tests flip tiers programmatically with forceTier().
///
/// Calls below the dispatch threshold inline a scalar loop directly: most
/// traces have a handful of threads, and an indirect call per 4-element
/// pass would cost more than it saves. The threshold is semantically
/// invisible — every tier computes the same function.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_SUPPORT_SIMD_CLOCKKERNELS_H
#define SAMPLETRACK_SUPPORT_SIMD_CLOCKKERNELS_H

#include "sampletrack/support/Common.h"

#include <atomic>
#include <cstddef>
#include <vector>

namespace sampletrack {
namespace simd {

/// Kernel implementation tiers. The values are stable identifiers, not
/// the ladder order; supportedTiers() gives that.
enum class Tier : unsigned { Scalar = 0, Avx2 = 1, Neon = 2, Avx512 = 3 };

/// Human-readable tier name ("scalar", "avx2", "neon", "avx512") for logs
/// and bench metadata.
const char *tierName(Tier T);

/// The tiers this host can execute, best first; always ends with Scalar.
/// Dispatch picks the front one (unless SAMPLETRACK_FORCE_SCALAR is set),
/// and the tier-axis tests compare every entry against Scalar.
std::vector<Tier> supportedTiers();

/// The tier every dispatched call currently uses. Resolved on first use:
/// the best tier the host supports, unless SAMPLETRACK_FORCE_SCALAR pins
/// the fallback.
Tier activeTier();

/// Pins the dispatch to \p T. Returns false (and changes nothing) when the
/// host cannot execute that tier. Tests use this to compare tiers on the
/// same host; production code never calls it. Not safe to call while other
/// threads are inside an analysis — flip tiers between runs only.
bool forceTier(Tier T);

namespace detail {

/// One dispatch table per tier; kernels take raw arrays.
struct KernelTable {
  void (*JoinMax)(ClockValue *Dst, const ClockValue *Src, size_t N);
  unsigned (*JoinMaxCount)(ClockValue *Dst, const ClockValue *Src, size_t N);
  bool (*AllLeq)(const ClockValue *A, const ClockValue *B, size_t N);
  unsigned (*CountGreater)(const ClockValue *A, const ClockValue *B,
                           size_t N);
  Tier T;
};

/// Active table; lazily resolved, atomically swapped by forceTier.
const KernelTable *table();

/// Below this element count the inline scalar loop wins over an indirect
/// call into a vector kernel (AVX-512 is 8 lanes; AVX2 4; NEON 2).
inline constexpr size_t DispatchThreshold = 8;

} // namespace detail

/// Dst[i] = max(Dst[i], Src[i]) for i in [0, N).
inline void joinMax(ClockValue *Dst, const ClockValue *Src, size_t N) {
  if (N < detail::DispatchThreshold) {
    for (size_t I = 0; I < N; ++I)
      if (Src[I] > Dst[I])
        Dst[I] = Src[I];
    return;
  }
  detail::table()->JoinMax(Dst, Src, N);
}

/// joinMax that also returns how many components strictly increased.
inline unsigned joinMaxCount(ClockValue *Dst, const ClockValue *Src,
                             size_t N) {
  if (N < detail::DispatchThreshold) {
    unsigned Changed = 0;
    for (size_t I = 0; I < N; ++I)
      if (Src[I] > Dst[I]) {
        Dst[I] = Src[I];
        ++Changed;
      }
    return Changed;
  }
  return detail::table()->JoinMaxCount(Dst, Src, N);
}

/// True iff A[i] <= B[i] for every i in [0, N).
inline bool allLeq(const ClockValue *A, const ClockValue *B, size_t N) {
  if (N < detail::DispatchThreshold) {
    for (size_t I = 0; I < N; ++I)
      if (A[I] > B[I])
        return false;
    return true;
  }
  return detail::table()->AllLeq(A, B, N);
}

/// The number of i in [0, N) with A[i] > B[i]; reads both arrays, writes
/// neither. joinMaxCount's count without the join: SO's acquire uses it to
/// learn how many list entries are ahead before it walks the list.
inline unsigned countGreater(const ClockValue *A, const ClockValue *B,
                             size_t N) {
  if (N < detail::DispatchThreshold) {
    unsigned Count = 0;
    for (size_t I = 0; I < N; ++I)
      Count += A[I] > B[I];
    return Count;
  }
  return detail::table()->CountGreater(A, B, N);
}

/// True iff A[i] <= B'[i] for every i in [0, N), where B' is B with
/// component \p OverrideTid read as \p OverrideVal. This is the sampling
/// engines' race check "history A \f$ \sqsubseteq \f$ C_t[t -> e_t]", run
/// against the effective clock without materializing it; N is A's active
/// prefix (A's trailing zeros are <= anything). An override at or past N
/// meets one of those zeros and drops out.
inline bool allLeqWithOverride(const ClockValue *A, const ClockValue *B,
                               size_t N, ThreadId OverrideTid,
                               ClockValue OverrideVal) {
  if (OverrideTid >= N)
    return allLeq(A, B, N);
  return A[OverrideTid] <= OverrideVal && allLeq(A, B, OverrideTid) &&
         allLeq(A + OverrideTid + 1, B + OverrideTid + 1,
                N - OverrideTid - 1);
}

} // namespace simd
} // namespace sampletrack

#endif // SAMPLETRACK_SUPPORT_SIMD_CLOCKKERNELS_H
