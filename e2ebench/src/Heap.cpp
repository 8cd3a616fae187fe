//===- e2ebench/src/Heap.cpp - Benchmark-side heap accounting -------------===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replaces the global allocation functions so the benchmark can report the
/// peak live heap (peak_heap_mb) without instrumenting the library. Sizes
/// are the allocator's usable sizes, so allocation and release agree. The
/// array and nothrow forms forward to these in libstdc++.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<int64_t> Live{0};
std::atomic<int64_t> Peak{0};

void *track(void *P) {
  if (!P)
    throw std::bad_alloc();
  int64_t N = static_cast<int64_t>(malloc_usable_size(P));
  int64_t L = Live.fetch_add(N, std::memory_order_relaxed) + N;
  int64_t Pk = Peak.load(std::memory_order_relaxed);
  while (L > Pk &&
         !Peak.compare_exchange_weak(Pk, L, std::memory_order_relaxed))
    ;
  return P;
}

void untrack(void *P) {
  if (!P)
    return;
  Live.fetch_sub(static_cast<int64_t>(malloc_usable_size(P)),
                 std::memory_order_relaxed);
  std::free(P);
}

void *alignedAlloc(size_t Size, std::align_val_t Al) {
  size_t A = static_cast<size_t>(Al);
  return std::aligned_alloc(A, (Size + A - 1) / A * A);
}

} // namespace

int64_t e2e::heap::liveBytes() { return Live.load(std::memory_order_relaxed); }
int64_t e2e::heap::peakBytes() { return Peak.load(std::memory_order_relaxed); }
void e2e::heap::resetPeak() {
  Peak.store(Live.load(std::memory_order_relaxed), std::memory_order_relaxed);
}

void *operator new(size_t Size) { return track(std::malloc(Size ? Size : 1)); }
void operator delete(void *P) noexcept { untrack(P); }
void operator delete(void *P, size_t) noexcept { untrack(P); }

void *operator new(size_t Size, std::align_val_t Al) {
  return track(alignedAlloc(Size ? Size : 1, Al));
}
void operator delete(void *P, std::align_val_t) noexcept { untrack(P); }
void operator delete(void *P, size_t, std::align_val_t) noexcept {
  untrack(P);
}
