//===- tests/TimestampPropertyTest.cpp - Paper propositions ----------------==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property tests for the paper's timestamp theory, evaluated declaratively
/// by the oracle on randomized traces:
///  - Proposition 3: the sampling timestamp orders marked events exactly
///    like happens-before.
///  - Proposition 5: freshness-scalar comparison implies sampling-clock
///    ordering.
///  - Proposition 6: the freshness difference bounds the number of ahead
///    components.
///  - The component-sum bound of Section 4.1: sum_t C_sam(e)(t) <= |S|.
/// Plus the worked example of Figures 1 and 2, checked step by step against
/// a streaming run of Algorithms 2 and 3.
///
//===----------------------------------------------------------------------===//

#include "sampletrack/detectors/EngineDetector.h"
#include "sampletrack/detectors/HBClosureOracle.h"
#include "sampletrack/sampling/Sampler.h"
#include "sampletrack/trace/TraceGen.h"

#include <gtest/gtest.h>

using namespace sampletrack;

namespace {

Trace randomMarkedTrace(uint64_t Seed, double Rate) {
  GenConfig C;
  C.NumThreads = 5;
  C.NumLocks = 4;
  C.NumVars = 32;
  C.NumEvents = 300;
  C.UnprotectedFraction = 0.05;
  C.Seed = Seed;
  Trace T = generateWorkload(C);
  markTrace(T, Rate, Seed + 1);
  return T;
}

/// Feeds \p E to \p D as a one-element batch with decision \p Sampled, so
/// a test can inspect the detector's clocks after every event.
void processOne(Detector &D, const Event &E, bool Sampled) {
  const uint8_t Decision = Sampled ? 1 : 0;
  D.processBatch(std::span<const Event>(&E, 1),
                 std::span<const uint8_t>(&Decision, 1));
}

class PropertySweep
    : public ::testing::TestWithParam<std::pair<uint64_t, double>> {};

} // namespace

TEST_P(PropertySweep, Proposition3SamplingTimestampTracksHB) {
  auto [Seed, Rate] = GetParam();
  Trace T = randomMarkedTrace(Seed, Rate);
  HBClosureOracle Oracle(T);
  std::vector<VectorClock> Csam = Oracle.samplingTimestamps();

  for (size_t I = 0; I < T.size(); ++I) {
    if (!T[I].Marked)
      continue;
    for (size_t J = I + 1; J < T.size(); ++J) {
      if (T[I].Tid == T[J].Tid)
        continue;
      bool HB = Oracle.happensBefore(I, J);
      bool ScalarLeq =
          Csam[I].get(T[I].Tid) <= Csam[J].get(T[I].Tid);
      bool PointwiseLeq = Csam[I].leq(Csam[J]);
      EXPECT_EQ(ScalarLeq, HB) << "events " << I << "," << J;
      EXPECT_EQ(PointwiseLeq, HB) << "events " << I << "," << J;
    }
  }
}

// Propositions 5 and 6 are what make SU's and SO's skip/prefix decisions
// sound. Their operational content — "a skipped join would have been a
// no-op" and "the d-entry prefix covers every ahead component" — is
// captured exactly by the following lockstep invariant, which is the
// induction hypothesis of the Lemma 7/8 proofs: after every event, SU's
// and SO's sampling clocks are componentwise identical to ST's.
TEST_P(PropertySweep, LockstepClockEqualityAcrossEngines) {
  auto [Seed, Rate] = GetParam();
  Trace T = randomMarkedTrace(Seed, Rate);
  size_t NT = T.numThreads();

  SamplingNaiveDetector ST(NT);
  SamplingUClockDetector SU(NT);
  SamplingOrderedListDetector SO(NT, /*LocalEpochOpt=*/true);
  SamplingOrderedListDetector SON(NT, /*LocalEpochOpt=*/false);

  for (size_t I = 0; I < T.size(); ++I) {
    const Event &E = T[I];
    processOne(ST, E, E.Marked);
    processOne(SU, E, E.Marked);
    processOne(SO, E, E.Marked);
    processOne(SON, E, E.Marked);
    for (ThreadId A = 0; A < NT; ++A) {
      ASSERT_EQ(ST.localEpoch(A), SU.localEpoch(A)) << "event " << I;
      ASSERT_EQ(ST.localEpoch(A), SO.localEpoch(A)) << "event " << I;
      for (ThreadId B = 0; B < NT; ++B) {
        ClockValue Ref = ST.threadClock(A).get(B);
        ASSERT_EQ(SU.threadClock(A).get(B), Ref)
            << "SU clock diverged at event " << I << " C_" << A << "(" << B
            << ")";
        ASSERT_EQ(SO.effectiveComponent(A, B), Ref)
            << "SO clock diverged at event " << I << " C_" << A << "(" << B
            << ")";
        ASSERT_EQ(SON.effectiveComponent(A, B), Ref)
            << "SO-noepoch clock diverged at event " << I << " C_" << A
            << "(" << B << ")";
      }
    }
  }
}

TEST_P(PropertySweep, FreshnessTimestampMonotoneAndBounded) {
  auto [Seed, Rate] = GetParam();
  Trace T = randomMarkedTrace(Seed, Rate);
  HBClosureOracle Oracle(T);
  std::vector<VectorClock> U = Oracle.freshnessTimestamps();
  uint64_t SBound = T.countMarked() * T.numThreads();

  for (size_t I = 0; I < T.size(); ++I) {
    // U is monotone along HB (it is a max over the HB past)...
    for (size_t J = I + 1; J < std::min(T.size(), I + 40); ++J)
      if (Oracle.happensBefore(I, J)) {
        EXPECT_TRUE(U[I].leq(U[J])) << "events " << I << "," << J;
      }
    // ... and each component is bounded by |S| * T (the observation in the
    // proof of Lemma 7: clocks change at most |S| times, each change
    // touching at most T entries).
    for (ThreadId X = 0; X < T.numThreads(); ++X)
      EXPECT_LE(U[I].get(X), SBound);
  }
}

TEST_P(PropertySweep, ComponentSumBoundedBySampleSize) {
  auto [Seed, Rate] = GetParam();
  Trace T = randomMarkedTrace(Seed, Rate);
  HBClosureOracle Oracle(T);
  std::vector<VectorClock> Csam = Oracle.samplingTimestamps();
  uint64_t S = T.countMarked();
  for (size_t I = 0; I < T.size(); ++I)
    EXPECT_LE(Csam[I].componentSum(), S) << "event " << I;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PropertySweep,
    ::testing::Values(std::pair<uint64_t, double>{1, 0.05},
                      std::pair<uint64_t, double>{2, 0.1},
                      std::pair<uint64_t, double>{3, 0.3},
                      std::pair<uint64_t, double>{4, 1.0},
                      std::pair<uint64_t, double>{5, 0.02},
                      std::pair<uint64_t, double>{6, 0.2}));

//===----------------------------------------------------------------------===//
// The worked example of Fig. 1 / Fig. 2.
//===----------------------------------------------------------------------===//

namespace {

/// Builds the 18-event execution of Fig. 1. Threads: t1 = 0, t2 = 1.
/// Locks l1..l4 = 0..3; x = 0. Marked events: e5, e15, e16.
Trace figure1Trace() {
  Trace T;
  T.acquire(0, 3);              // e1: acq(l4)
  T.acquire(0, 2);              // e2: acq(l3)
  T.acquire(0, 1);              // e3: acq(l2)
  T.acquire(0, 0);              // e4: acq(l1)
  T.write(0, 0, /*Marked=*/true);  // e5: w(x) in S
  T.release(0, 0);              // e6: rel(l1)
  T.write(0, 0);                // e7: w(x)
  T.acquire(1, 0);              // e8: acq(l1)
  T.write(1, 0);                // e9: w(x)
  T.release(0, 1);              // e10: rel(l2)
  T.write(0, 0);                // e11: w(x)
  T.acquire(1, 1);              // e12: acq(l2)
  T.release(0, 2);              // e13: rel(l3)
  T.acquire(1, 2);              // e14: acq(l3)
  T.write(0, 0, /*Marked=*/true);  // e15: w(x) in S
  T.write(0, 0, /*Marked=*/true);  // e16: w(x) in S
  T.release(0, 3);              // e17: rel(l4)
  T.acquire(1, 3);              // e18: acq(l4)
  return T;
}

} // namespace

TEST(Figure1Example, Algorithm2ClockEvolution) {
  Trace T = figure1Trace();
  ASSERT_TRUE(T.validate());

  SamplingNaiveDetector D(T.numThreads());
  MarkedSampler S;
  // Process up to (and including) e6 = index 5: the first release sends
  // <1,0> to l1 and bumps t1's local epoch to 2.
  for (size_t I = 0; I <= 5; ++I)
    processOne(D, T[I], T[I].Marked);
  EXPECT_EQ(D.threadClock(0).get(0), 1u);
  EXPECT_EQ(D.localEpoch(0), 2u);

  // After e10 (rel(l2), index 9): NOT a RelAfter release — epoch unchanged,
  // clock still <1,0> (the paper highlights this step).
  for (size_t I = 6; I <= 9; ++I)
    processOne(D, T[I], T[I].Marked);
  EXPECT_EQ(D.threadClock(0).get(0), 1u);
  EXPECT_EQ(D.localEpoch(0), 2u);

  // After e17 (rel(l4), index 16): e15/e16 were sampled, so the release
  // flushes: C_t1 = <2,0>, epoch 3.
  for (size_t I = 10; I <= 16; ++I)
    processOne(D, T[I], T[I].Marked);
  EXPECT_EQ(D.threadClock(0).get(0), 2u);
  EXPECT_EQ(D.localEpoch(0), 3u);

  // e18: t2 receives <2,0>.
  processOne(D, T[17], false);
  EXPECT_EQ(D.threadClock(1).get(0), 2u);
}

TEST(Figure2Example, Algorithm3SkipsRedundantAcquires) {
  Trace T = figure1Trace();
  SamplingUClockDetector D(T.numThreads());
  for (size_t I = 0; I < T.size(); ++I)
    processOne(D, T[I], T[I].Marked);

  // The paper: e8 performs a join; e12 and e14 are skipped; e18 joins.
  // t2 performs 4 mutex acquires plus 0 others; 2 of them are skipped.
  // t1's four acquires (e1-e4) hit never-released locks and are skipped.
  const Metrics &M = D.metrics();
  EXPECT_EQ(M.AcquiresTotal, 8u);
  EXPECT_EQ(M.AcquiresProcessed, 2u) << "only e8 and e18 join";
  EXPECT_EQ(M.AcquiresSkipped, 6u);

  // Final clocks match the right-hand table of Fig. 2.
  EXPECT_EQ(D.threadClock(1).get(0), 2u);
  EXPECT_EQ(D.freshnessClock(1).get(0), 2u);
  EXPECT_EQ(D.freshnessClock(1).get(1), 2u) << "two entry updates at t2";
}

TEST(Figure1Example, NoRaceDeclaredAmongMarkedEvents) {
  // e5, e15, e16 are all by t1: no cross-thread marked pair exists, so no
  // engine may declare a race even though unmarked writes (e7/e9) race.
  Trace T = figure1Trace();
  HBClosureOracle Oracle(T);
  EXPECT_FALSE(Oracle.allRacePairs().empty())
      << "the trace does contain (unmarked) races";
  EXPECT_TRUE(Oracle.markedRacePairs().empty());
  EXPECT_TRUE(Oracle.declaredRaces(/*MarkedOnly=*/true).empty());
}
