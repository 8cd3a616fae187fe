//===- sampling/Sampler.cpp - Sampling strategies --------------------------==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/sampling/Sampler.h"
#include "sampletrack/sampling/PeriodSamplers.h"
#include "sampletrack/trace/Trace.h"

#include <cstdio>

using namespace sampletrack;

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

void sampletrack::markTrace(Trace &T, double Rate, uint64_t Seed) {
  BernoulliSampler S(Rate, Seed);
  for (size_t I = 0; I < T.size(); ++I) {
    Event &E = T[I];
    if (isAccess(E.Kind))
      E.Marked = Rate >= 1.0 ? true : S.shouldSample(E);
  }
}
