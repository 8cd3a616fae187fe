//===- tests/SoWorkCountersTest.cpp - Pinned SO work counters --------------==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the exact work counters of both implementations of Algorithm 4 (SO)
/// on seeded traces: the offline detector, as an AnalysisSession lane, and
/// the online rt::Runtime, replayed single-threaded through its hooks. The
/// counters are the paper's work currency (Fig. 6(c) traversals, Fig. 8
/// deep copies), so a rewrite of the acquire scan must leave every one of
/// them bit-identical. The offline lane and the runtime draw different
/// sample sets, so each carries its own constants.
///
//===----------------------------------------------------------------------===//

#include "RuntimeReplay.h"

#include "sampletrack/SampleTrack.h"

#include <gtest/gtest.h>

using namespace sampletrack;

namespace {

/// The paper's regime: 64 threads on 96 Zipf(0.9)-contended locks, 30%
/// accesses. Lock operations only (no fork/join, no atomics). A fifth of
/// the accesses go unprotected to four racy variables, so that 0.3%
/// sampling still catches races.
Trace lockBoundTrace() {
  GenConfig G;
  G.NumThreads = 64;
  G.NumLocks = 96;
  G.NumVars = 2048;
  G.NumEvents = 200000;
  G.AccessFraction = 0.3;
  G.LockZipfTheta = 0.9;
  G.UnprotectedFraction = 0.2;
  G.RacyVars = 4;
  G.Seed = 23;
  return generateWorkload(G);
}

/// Fork, join, release-join and acquire-load: only the full-width SO joins
/// run here (every acquire-load reads a multi-source barrier).
Trace barrierTrace() { return generateBarrierRounds(16, 40, 6, 5); }

api::SessionConfig soConfig(size_t NumThreads, double Rate) {
  api::SessionConfig Cfg;
  Cfg.Engines = {EngineKind::SamplingO};
  Cfg.Sampling = api::SamplerKind::Bernoulli;
  Cfg.SamplingRate = Rate;
  Cfg.Seed = 7;
  Cfg.MaxThreads = NumThreads;
  return Cfg;
}

struct Counted {
  Metrics Stats;
  uint64_t Races = 0;
};

Counted runOffline(const Trace &T, double Rate) {
  api::SessionResult R =
      api::AnalysisSession(soConfig(T.numThreads(), Rate)).run(T);
  EXPECT_EQ(R.Engines.size(), 1u);
  return {R.Engines[0].Stats, R.Engines[0].NumRaces};
}

Counted runOnline(const Trace &T, double Rate) {
  rt::Runtime Rt(soConfig(T.numThreads(), Rate).runtimeConfig(rt::Mode::SO));
  test::replayThroughHooks(Rt, T);
  return {Rt.aggregatedMetrics(), Rt.raceCount()};
}

/// The pinned counters, in the order the constants below list them.
struct Pinned {
  uint64_t EntriesTraversed, TraversalOpportunities, AcquiresProcessed,
      AcquiresSkipped, ShallowCopies, CowBreaks, DeepCopies, Races;
};

void expectPinned(const Counted &C, const Pinned &P) {
  EXPECT_EQ(C.Stats.EntriesTraversed, P.EntriesTraversed);
  EXPECT_EQ(C.Stats.TraversalOpportunities, P.TraversalOpportunities);
  EXPECT_EQ(C.Stats.AcquiresProcessed, P.AcquiresProcessed);
  EXPECT_EQ(C.Stats.AcquiresSkipped, P.AcquiresSkipped);
  EXPECT_EQ(C.Stats.ShallowCopies, P.ShallowCopies);
  EXPECT_EQ(C.Stats.CowBreaks, P.CowBreaks);
  EXPECT_EQ(C.Stats.DeepCopies, P.DeepCopies);
  EXPECT_EQ(C.Races, P.Races);
}

} // namespace

TEST(SoWorkCounters, OfflineLaneOnLockBoundTrace) {
  expectPinned(runOffline(lockBoundTrace(), 0.003),
               {711316, 1885696, 29464, 34921, 64385, 6166, 6166, 6});
}

TEST(SoWorkCounters, OnlineReplayOnLockBoundTrace) {
  expectPinned(runOnline(lockBoundTrace(), 0.003),
               {806200, 1916032, 29938, 34447, 64385, 6826, 6826, 5});
}

TEST(SoWorkCounters, OfflineLaneOnBarrierTrace) {
  expectPinned(runOffline(barrierTrace(), 0.05),
               {10720, 10720, 655, 0, 0, 0, 0, 0});
}

TEST(SoWorkCounters, OnlineReplayOnBarrierTrace) {
  expectPinned(runOnline(barrierTrace(), 0.05),
               {10720, 10720, 655, 0, 0, 0, 0, 0});
}
