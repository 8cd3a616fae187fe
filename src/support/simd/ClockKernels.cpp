//===- support/simd/ClockKernels.cpp - SIMD clock kernel tiers -------------=//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
//
// Tier implementations and the runtime dispatch. Every kernel here must be
// bit-identical to the scalar tier: max and <= are exact lane-wise
// functions, and the change and ahead counts are lane-order independent.
// The differential
// fuzz harness's SimdTier axis and ClockTest's width-boundary property
// cases hold every tier to that contract.
//
// uint64 lanes need care on the older ISAs: AVX2 has no unsigned 64-bit
// compare or max, so comparisons run as signed compares after flipping the
// sign bit (x ^ 2^63 maps unsigned order onto signed order), and max is a
// compare + blend. NEON (AArch64) has vcgtq_u64 but likewise no 64-bit
// max, so the same compare + bit-select shape applies. AVX-512F has both
// natively (vpmaxuq, vpcmpuq into a k-mask), so its tier needs no flips,
// counts changed lanes by mask popcount, and finishes a 1-7 word tail with
// one masked load/store step instead of a scalar loop.
//
//===----------------------------------------------------------------------===//

#include "sampletrack/support/simd/ClockKernels.h"

#include <cstdlib>

#if defined(__x86_64__) || defined(_M_X64)
#define SAMPLETRACK_SIMD_X86 1
#include <immintrin.h>
#endif

#if defined(__aarch64__)
#define SAMPLETRACK_SIMD_NEON 1
#include <arm_neon.h>
#endif

using namespace sampletrack;
using namespace sampletrack::simd;

//===----------------------------------------------------------------------===//
// Scalar tier — the reference semantics.
//===----------------------------------------------------------------------===//

namespace {

void joinMaxScalar(ClockValue *Dst, const ClockValue *Src, size_t N) {
  for (size_t I = 0; I < N; ++I)
    if (Src[I] > Dst[I])
      Dst[I] = Src[I];
}

unsigned joinMaxCountScalar(ClockValue *Dst, const ClockValue *Src,
                            size_t N) {
  unsigned Changed = 0;
  for (size_t I = 0; I < N; ++I)
    if (Src[I] > Dst[I]) {
      Dst[I] = Src[I];
      ++Changed;
    }
  return Changed;
}

bool allLeqScalar(const ClockValue *A, const ClockValue *B, size_t N) {
  for (size_t I = 0; I < N; ++I)
    if (A[I] > B[I])
      return false;
  return true;
}

unsigned countGreaterScalar(const ClockValue *A, const ClockValue *B,
                            size_t N) {
  unsigned Count = 0;
  for (size_t I = 0; I < N; ++I)
    Count += A[I] > B[I];
  return Count;
}

constexpr detail::KernelTable ScalarTable = {
    joinMaxScalar, joinMaxCountScalar, allLeqScalar, countGreaterScalar,
    Tier::Scalar};

//===----------------------------------------------------------------------===//
// AVX2 tier (x86-64). Compiled with a function-level target attribute so
// the translation unit itself needs no -mavx2; cpuid gates every call.
//===----------------------------------------------------------------------===//

#if SAMPLETRACK_SIMD_X86

/// Unsigned 64-bit a > b as a lane mask: flip sign bits, signed compare.
__attribute__((target("avx2"))) inline __m256i gtU64(__m256i A, __m256i B) {
  const __m256i Flip = _mm256_set1_epi64x(static_cast<long long>(1ull << 63));
  return _mm256_cmpgt_epi64(_mm256_xor_si256(A, Flip),
                            _mm256_xor_si256(B, Flip));
}

__attribute__((target("avx2"))) void joinMaxAvx2(ClockValue *Dst,
                                                 const ClockValue *Src,
                                                 size_t N) {
  size_t I = 0;
  for (; I + 4 <= N; I += 4) {
    __m256i D =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Dst + I));
    __m256i S =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Src + I));
    __m256i Gt = gtU64(S, D);
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(Dst + I),
                        _mm256_blendv_epi8(D, S, Gt));
  }
  for (; I < N; ++I)
    if (Src[I] > Dst[I])
      Dst[I] = Src[I];
}

__attribute__((target("avx2"))) unsigned
joinMaxCountAvx2(ClockValue *Dst, const ClockValue *Src, size_t N) {
  unsigned Changed = 0;
  size_t I = 0;
  for (; I + 4 <= N; I += 4) {
    __m256i D =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Dst + I));
    __m256i S =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Src + I));
    __m256i Gt = gtU64(S, D);
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(Dst + I),
                        _mm256_blendv_epi8(D, S, Gt));
    // Each increased lane contributes 8 set mask bytes.
    Changed += static_cast<unsigned>(
        __builtin_popcount(static_cast<unsigned>(_mm256_movemask_epi8(Gt))) /
        8);
  }
  for (; I < N; ++I)
    if (Src[I] > Dst[I]) {
      Dst[I] = Src[I];
      ++Changed;
    }
  return Changed;
}

__attribute__((target("avx2"))) bool
allLeqAvx2(const ClockValue *A, const ClockValue *B, size_t N) {
  size_t I = 0;
  for (; I + 4 <= N; I += 4) {
    __m256i Va = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(A + I));
    __m256i Vb = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(B + I));
    if (_mm256_movemask_epi8(gtU64(Va, Vb)) != 0)
      return false;
  }
  for (; I < N; ++I)
    if (A[I] > B[I])
      return false;
  return true;
}

__attribute__((target("avx2"))) unsigned
countGreaterAvx2(const ClockValue *A, const ClockValue *B, size_t N) {
  unsigned Count = 0;
  size_t I = 0;
  for (; I + 4 <= N; I += 4) {
    __m256i Va = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(A + I));
    __m256i Vb = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(B + I));
    // One sign bit per 64-bit lane.
    Count += static_cast<unsigned>(__builtin_popcount(static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(gtU64(Va, Vb))))));
  }
  for (; I < N; ++I)
    Count += A[I] > B[I];
  return Count;
}

constexpr detail::KernelTable Avx2Table = {
    joinMaxAvx2, joinMaxCountAvx2, allLeqAvx2, countGreaterAvx2, Tier::Avx2};

//===----------------------------------------------------------------------===//
// AVX-512 tier (x86-64 with AVX-512F). Same function-level target attribute
// scheme as AVX2; 8 lanes per step, masked tails.
//===----------------------------------------------------------------------===//

/// The low \p R lanes of an 8-lane step, for R in [1, 8).
inline __mmask8 tailMask(size_t R) {
  return static_cast<__mmask8>((1u << R) - 1);
}

/// One join step over the lanes in \p M. The maskz forms of vpmaxuq are
/// used throughout: the unmasked _mm512_max_epu64 passes GCC 12's
/// self-initialized "undefined" operand, which -Werror rejects.
__attribute__((target("avx512f"))) inline void
joinMaxStep(ClockValue *Dst, const ClockValue *Src, __mmask8 M) {
  _mm512_mask_storeu_epi64(
      Dst, M,
      _mm512_maskz_max_epu64(M, _mm512_maskz_loadu_epi64(M, Dst),
                             _mm512_maskz_loadu_epi64(M, Src)));
}

__attribute__((target("avx512f"))) void
joinMaxAvx512(ClockValue *Dst, const ClockValue *Src, size_t N) {
  size_t I = 0;
  for (; I + 8 <= N; I += 8)
    joinMaxStep(Dst + I, Src + I, 0xFF);
  if (I < N)
    joinMaxStep(Dst + I, Src + I, tailMask(N - I));
}

/// One counting-join step over the lanes in \p M: stores only the lanes of
/// Src that exceed Dst and returns how many there were. Lanes outside M
/// load as 0 > 0, so they are never counted or stored.
__attribute__((target("avx512f"))) inline unsigned
joinMaxCountStep(ClockValue *Dst, const ClockValue *Src, __mmask8 M) {
  __m512i S = _mm512_maskz_loadu_epi64(M, Src);
  __mmask8 Gt = _mm512_cmpgt_epu64_mask(S, _mm512_maskz_loadu_epi64(M, Dst));
  _mm512_mask_storeu_epi64(Dst, Gt, S);
  return static_cast<unsigned>(__builtin_popcount(Gt));
}

__attribute__((target("avx512f"))) unsigned
joinMaxCountAvx512(ClockValue *Dst, const ClockValue *Src, size_t N) {
  unsigned Changed = 0;
  size_t I = 0;
  for (; I + 8 <= N; I += 8)
    Changed += joinMaxCountStep(Dst + I, Src + I, 0xFF);
  if (I < N)
    Changed += joinMaxCountStep(Dst + I, Src + I, tailMask(N - I));
  return Changed;
}

__attribute__((target("avx512f"))) bool
allLeqAvx512(const ClockValue *A, const ClockValue *B, size_t N) {
  size_t I = 0;
  for (; I + 8 <= N; I += 8)
    if (_mm512_cmpgt_epu64_mask(_mm512_loadu_si512(A + I),
                                _mm512_loadu_si512(B + I)))
      return false;
  if (I < N) {
    __mmask8 M = tailMask(N - I);
    return !_mm512_cmpgt_epu64_mask(_mm512_maskz_loadu_epi64(M, A + I),
                                    _mm512_maskz_loadu_epi64(M, B + I));
  }
  return true;
}

__attribute__((target("avx512f"))) unsigned
countGreaterAvx512(const ClockValue *A, const ClockValue *B, size_t N) {
  unsigned Count = 0;
  size_t I = 0;
  for (; I + 8 <= N; I += 8)
    Count += static_cast<unsigned>(__builtin_popcount(_mm512_cmpgt_epu64_mask(
        _mm512_loadu_si512(A + I), _mm512_loadu_si512(B + I))));
  if (I < N) {
    // Lanes outside the mask load as 0 > 0 and never count.
    __mmask8 M = tailMask(N - I);
    Count += static_cast<unsigned>(__builtin_popcount(
        _mm512_cmpgt_epu64_mask(_mm512_maskz_loadu_epi64(M, A + I),
                                _mm512_maskz_loadu_epi64(M, B + I))));
  }
  return Count;
}

constexpr detail::KernelTable Avx512Table = {
    joinMaxAvx512, joinMaxCountAvx512, allLeqAvx512, countGreaterAvx512,
    Tier::Avx512};

#endif // SAMPLETRACK_SIMD_X86

//===----------------------------------------------------------------------===//
// NEON tier (AArch64; Advanced SIMD is baseline, no runtime gate needed).
//===----------------------------------------------------------------------===//

#if SAMPLETRACK_SIMD_NEON

void joinMaxNeon(ClockValue *Dst, const ClockValue *Src, size_t N) {
  size_t I = 0;
  for (; I + 2 <= N; I += 2) {
    uint64x2_t D = vld1q_u64(Dst + I);
    uint64x2_t S = vld1q_u64(Src + I);
    vst1q_u64(Dst + I, vbslq_u64(vcgtq_u64(S, D), S, D));
  }
  for (; I < N; ++I)
    if (Src[I] > Dst[I])
      Dst[I] = Src[I];
}

unsigned joinMaxCountNeon(ClockValue *Dst, const ClockValue *Src, size_t N) {
  unsigned Changed = 0;
  size_t I = 0;
  for (; I + 2 <= N; I += 2) {
    uint64x2_t D = vld1q_u64(Dst + I);
    uint64x2_t S = vld1q_u64(Src + I);
    uint64x2_t Gt = vcgtq_u64(S, D);
    vst1q_u64(Dst + I, vbslq_u64(Gt, S, D));
    // Each increased lane is all-ones; shift to 1 and add both lanes.
    Changed += static_cast<unsigned>(
        vaddvq_u64(vshrq_n_u64(Gt, 63)));
  }
  for (; I < N; ++I)
    if (Src[I] > Dst[I]) {
      Dst[I] = Src[I];
      ++Changed;
    }
  return Changed;
}

bool allLeqNeon(const ClockValue *A, const ClockValue *B, size_t N) {
  size_t I = 0;
  for (; I + 2 <= N; I += 2) {
    uint64x2_t Gt = vcgtq_u64(vld1q_u64(A + I), vld1q_u64(B + I));
    if (vgetq_lane_u64(Gt, 0) | vgetq_lane_u64(Gt, 1))
      return false;
  }
  for (; I < N; ++I)
    if (A[I] > B[I])
      return false;
  return true;
}

unsigned countGreaterNeon(const ClockValue *A, const ClockValue *B,
                          size_t N) {
  unsigned Count = 0;
  size_t I = 0;
  for (; I + 2 <= N; I += 2) {
    uint64x2_t Gt = vcgtq_u64(vld1q_u64(A + I), vld1q_u64(B + I));
    Count += static_cast<unsigned>(vaddvq_u64(vshrq_n_u64(Gt, 63)));
  }
  for (; I < N; ++I)
    Count += A[I] > B[I];
  return Count;
}

constexpr detail::KernelTable NeonTable = {
    joinMaxNeon, joinMaxCountNeon, allLeqNeon, countGreaterNeon, Tier::Neon};

#endif // SAMPLETRACK_SIMD_NEON

//===----------------------------------------------------------------------===//
// Dispatch.
//===----------------------------------------------------------------------===//

bool hostSupports(Tier T) {
  switch (T) {
  case Tier::Scalar:
    return true;
  case Tier::Avx512:
#if SAMPLETRACK_SIMD_X86
    return __builtin_cpu_supports("avx512f") != 0;
#else
    return false;
#endif
  case Tier::Avx2:
#if SAMPLETRACK_SIMD_X86
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
  case Tier::Neon:
#if SAMPLETRACK_SIMD_NEON
    return true;
#else
    return false;
#endif
  }
  return false;
}

const detail::KernelTable *tableFor(Tier T) {
  switch (T) {
#if SAMPLETRACK_SIMD_X86
  case Tier::Avx512:
    return &Avx512Table;
  case Tier::Avx2:
    return &Avx2Table;
#endif
#if SAMPLETRACK_SIMD_NEON
  case Tier::Neon:
    return &NeonTable;
#endif
  default:
    return &ScalarTable;
  }
}

/// True when SAMPLETRACK_FORCE_SCALAR is set to anything but "" or "0".
bool forceScalarFromEnv() {
  const char *V = std::getenv("SAMPLETRACK_FORCE_SCALAR");
  return V && V[0] != '\0' && !(V[0] == '0' && V[1] == '\0');
}

const detail::KernelTable *resolveBest() {
  if (forceScalarFromEnv())
    return &ScalarTable;
  return tableFor(simd::supportedTiers().front());
}

/// The active table. Resolved once (racing resolvers agree on the answer,
/// so the relaxed publish is benign); forceTier swaps it between runs.
std::atomic<const detail::KernelTable *> ActiveTable{nullptr};

} // namespace

const detail::KernelTable *simd::detail::table() {
  const detail::KernelTable *T = ActiveTable.load(std::memory_order_acquire);
  if (T)
    return T;
  T = resolveBest();
  ActiveTable.store(T, std::memory_order_release);
  return T;
}

const char *simd::tierName(Tier T) {
  switch (T) {
  case Tier::Scalar:
    return "scalar";
  case Tier::Avx512:
    return "avx512";
  case Tier::Avx2:
    return "avx2";
  case Tier::Neon:
    return "neon";
  }
  return "unknown";
}

std::vector<Tier> simd::supportedTiers() {
  // The ladder, best first; scalar always runs, so the list is never empty.
  std::vector<Tier> Tiers;
  for (Tier T : {Tier::Avx512, Tier::Avx2, Tier::Neon, Tier::Scalar})
    if (hostSupports(T))
      Tiers.push_back(T);
  return Tiers;
}

Tier simd::activeTier() { return detail::table()->T; }

bool simd::forceTier(Tier T) {
  if (!hostSupports(T))
    return false;
  ActiveTable.store(tableFor(T), std::memory_order_release);
  return true;
}
