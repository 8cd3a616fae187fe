//===- sampling/Sampler.cpp - Sampling strategies --------------------------==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/sampling/Sampler.h"
#include "sampletrack/sampling/PeriodSamplers.h"
#include "sampletrack/trace/Trace.h"

#include <algorithm>
#include <cstdio>

using namespace sampletrack;

uint64_t Sampler::decide(std::span<const Event> Events,
                         std::span<uint8_t> Out) {
  assert(Out.size() >= Events.size() && "decision buffer too small");
  uint64_t Sampled = 0;
  for (size_t I = 0, N = Events.size(); I < N; ++I) {
    bool D = isAccess(Events[I].Kind) && shouldSample(Events[I]);
    Out[I] = D;
    Sampled += D;
  }
  return Sampled;
}

uint64_t AlwaysSampler::decide(std::span<const Event> Events,
                               std::span<uint8_t> Out) {
  assert(Out.size() >= Events.size() && "decision buffer too small");
  uint64_t Sampled = 0;
  for (size_t I = 0, N = Events.size(); I < N; ++I) {
    uint8_t D = isAccess(Events[I].Kind);
    Out[I] = D;
    Sampled += D;
  }
  return Sampled;
}

uint64_t MarkedSampler::decide(std::span<const Event> Events,
                               std::span<uint8_t> Out) {
  assert(Out.size() >= Events.size() && "decision buffer too small");
  uint64_t Sampled = 0;
  for (size_t I = 0, N = Events.size(); I < N; ++I) {
    uint8_t D = isAccess(Events[I].Kind) & Events[I].Marked;
    Out[I] = D;
    Sampled += D;
  }
  return Sampled;
}

uint64_t BernoulliSampler::decide(std::span<const Event> Events,
                                  std::span<uint8_t> Out) {
  assert(Out.size() >= Events.size() && "decision buffer too small");
  // Accesses are randomly interleaved with sync events, so a per-event
  // isAccess branch mispredicts often. Per chunk, the first pass compacts
  // the access indices into a stack array without a branch; the second
  // draws one coin per index in a tight loop: the same SplitMix64 stream,
  // in the same order, as shouldSample per access.
  constexpr size_t Chunk = 256;
  uint64_t Sampled = 0;
  for (size_t Base = 0, Size = Events.size(); Base < Size; Base += Chunk) {
    size_t Len = std::min(Chunk, Size - Base);
    const Event *Ev = Events.data() + Base;
    uint8_t *O = Out.data() + Base;
    std::fill_n(O, Len, uint8_t(0));
    uint16_t Idx[Chunk];
    size_t N = 0;
    for (size_t I = 0; I < Len; ++I) {
      Idx[N] = static_cast<uint16_t>(I);
      N += isAccess(Ev[I].Kind);
    }
    for (size_t J = 0; J < N; ++J) {
      bool D = Rng.nextBool(Rate);
      O[Idx[J]] = D;
      Sampled += D;
    }
  }
  return Sampled;
}

std::string BernoulliSampler::name() const {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "bernoulli(%.3g%%)", Rate * 100.0);
  return Buf;
}

std::string PacerSampler::name() const {
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "pacer(%.3g%%, period %llu)", Rate * 100.0,
                static_cast<unsigned long long>(PeriodLength));
  return Buf;
}

std::string ColdRegionSampler::name() const {
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "coldregion(backoff %llu)",
                static_cast<unsigned long long>(Backoff));
  return Buf;
}

void sampletrack::markTrace(Trace &T, Sampler &S) {
  // Stack-sized chunks keep the decisions off the heap; decide carries the
  // sampler's state across chunk boundaries.
  constexpr size_t Chunk = 4096;
  uint8_t Ds[Chunk];
  for (size_t Base = 0, Size = T.size(); Base < Size; Base += Chunk) {
    size_t Len = std::min(Chunk, Size - Base);
    S.decide(std::span<const Event>(T.events()).subspan(Base, Len),
             std::span<uint8_t>(Ds, Len));
    for (size_t I = 0; I < Len; ++I) {
      Event &E = T[Base + I];
      E.Marked = isAccess(E.Kind) ? Ds[I] != 0 : E.Marked;
    }
  }
}

void sampletrack::markTrace(Trace &T, double Rate, uint64_t Seed) {
  if (Rate >= 1.0) {
    AlwaysSampler S;
    markTrace(T, S);
  } else {
    BernoulliSampler S(Rate, Seed);
    markTrace(T, S);
  }
}
