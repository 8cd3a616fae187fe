//===- tests/AllocCounter.h - Count global allocations ---------*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Global new/delete replacements that count every allocation, so a test
/// can check a no-allocation or bound-before-allocating rule instead of
/// assuming it. The replacements are definitions: include this header from
/// exactly one source file of a test binary.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_TESTS_ALLOCCOUNTER_H
#define SAMPLETRACK_TESTS_ALLOCCOUNTER_H

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

/// Allocations made, and bytes requested, through any global operator new.
static std::atomic<uint64_t> GAllocCount{0};
static std::atomic<uint64_t> GAllocBytes{0};

static void countAlloc(std::size_t Size) {
  GAllocCount.fetch_add(1, std::memory_order_relaxed);
  GAllocBytes.fetch_add(Size, std::memory_order_relaxed);
}

/// Bytes requested while \p Fn runs.
template <typename FnT> uint64_t bytesAllocatedBy(FnT &&Fn) {
  uint64_t Before = GAllocBytes.load(std::memory_order_relaxed);
  Fn();
  return GAllocBytes.load(std::memory_order_relaxed) - Before;
}

void *operator new(std::size_t Size) {
  countAlloc(Size);
  if (void *P = std::malloc(Size))
    return P;
  throw std::bad_alloc();
}

void *operator new[](std::size_t Size) {
  countAlloc(Size);
  if (void *P = std::malloc(Size))
    return P;
  throw std::bad_alloc();
}

// The nothrow forms too: the library allocates through them (e.g.
// std::stable_sort's temporary buffer) and frees through the deletes
// below, so both ends must use malloc/free.
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  countAlloc(Size);
  return std::malloc(Size);
}

void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  countAlloc(Size);
  return std::malloc(Size);
}

// Out of line: gcc 12 pairs an inlined new-expression with an inlined
// free() and reports a mismatch that these replacements make on purpose.
[[gnu::noinline]] static void release(void *P) { std::free(P); }

void operator delete(void *P) noexcept { release(P); }
void operator delete[](void *P) noexcept { release(P); }
void operator delete(void *P, std::size_t) noexcept { release(P); }
void operator delete[](void *P, std::size_t) noexcept { release(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept {
  release(P);
}
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  release(P);
}

#endif // SAMPLETRACK_TESTS_ALLOCCOUNTER_H
