//===- tests/DetectorEquivalenceTest.cpp - Engine equivalence -------------==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The central correctness tests: Lemmas 4, 7 and 8 state that ST, SU and SO
/// declare races on exactly the same events, and that those events are
/// exactly the ones a last-access-history detector with perfect
/// happens-before information would flag. These tests sweep randomized
/// traces and sampling rates and check both claims, plus the full-detection
/// baselines against the oracle.
///
//===----------------------------------------------------------------------===//

#include "sampletrack/api/AnalysisSession.h"
#include "sampletrack/detectors/DetectorFactory.h"
#include "sampletrack/detectors/HBClosureOracle.h"
#include "sampletrack/trace/TraceGen.h"

#include <gtest/gtest.h>

using namespace sampletrack;

namespace {

/// Runs engine \p K over pre-marked trace \p T and returns the indices of
/// events where a race was declared.
std::vector<size_t> declaredEvents(const Trace &T, EngineKind K) {
  std::unique_ptr<Detector> D = createDetector(K, T.numThreads());
  MarkedSampler S;
  api::AnalysisSession().addDetector(*D).withSampler(S).run(T);
  std::vector<size_t> Out;
  for (const RaceReport &R : D->races())
    Out.push_back(R.EventIndex);
  return Out;
}

/// A small racy mutex-structured trace (acquire/release plus protected and
/// unprotected accesses).
Trace mixedTrace(uint64_t Seed) {
  GenConfig C;
  C.NumThreads = 4;
  C.NumLocks = 3;
  C.NumVars = 24;
  C.NumEvents = 600;
  C.UnprotectedFraction = 0.08;
  C.RacyVars = 3;
  C.Seed = Seed;
  return generateWorkload(C);
}

struct SweepParam {
  uint64_t Seed;
  double Rate;
};

class EquivalenceSweep : public ::testing::TestWithParam<SweepParam> {};

} // namespace

//===----------------------------------------------------------------------===//
// Lemmas 7 and 8: ST, SU, SO (and SO without the local-epoch optimization)
// declare races on exactly the same events, given the same sample set.
//===----------------------------------------------------------------------===//

TEST_P(EquivalenceSweep, SamplingEnginesAgreeEventwise) {
  SweepParam P = GetParam();
  Trace T = mixedTrace(P.Seed);
  ASSERT_TRUE(T.validate());
  markTrace(T, P.Rate, P.Seed * 7919 + 13);

  std::vector<size_t> ST = declaredEvents(T, EngineKind::SamplingNaive);
  std::vector<size_t> SU = declaredEvents(T, EngineKind::SamplingU);
  std::vector<size_t> SO = declaredEvents(T, EngineKind::SamplingO);
  std::vector<size_t> SON = declaredEvents(T, EngineKind::SamplingONoEpochOpt);

  EXPECT_EQ(ST, SU) << "SU diverged from ST (Lemma 7)";
  EXPECT_EQ(ST, SO) << "SO diverged from ST (Lemma 8)";
  EXPECT_EQ(ST, SON) << "SO-noepoch diverged from ST";
}

//===----------------------------------------------------------------------===//
// Lemma 4: the sampling engines match the declarative last-access-history
// semantics computed with exact happens-before.
//===----------------------------------------------------------------------===//

TEST_P(EquivalenceSweep, SamplingEnginesMatchOracle) {
  SweepParam P = GetParam();
  Trace T = mixedTrace(P.Seed);
  markTrace(T, P.Rate, P.Seed * 104729 + 7);

  HBClosureOracle Oracle(T);
  // The detectors warehouse duplicates (first declaration per signature),
  // so the oracle's full declaration list is deduped the same way.
  std::vector<size_t> Expected =
      dedupDeclaredRaces(T, Oracle.declaredRaces(/*MarkedOnly=*/true));

  EXPECT_EQ(Expected, declaredEvents(T, EngineKind::SamplingNaive));
  EXPECT_EQ(Expected, declaredEvents(T, EngineKind::SamplingU));
  EXPECT_EQ(Expected, declaredEvents(T, EngineKind::SamplingO));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EquivalenceSweep,
    ::testing::Values(SweepParam{1, 0.0}, SweepParam{1, 0.03},
                      SweepParam{1, 0.3}, SweepParam{1, 1.0},
                      SweepParam{2, 0.03}, SweepParam{2, 0.3},
                      SweepParam{3, 0.1}, SweepParam{4, 0.1},
                      SweepParam{5, 0.03}, SweepParam{5, 1.0},
                      SweepParam{6, 0.5}, SweepParam{7, 0.05},
                      SweepParam{8, 0.2}, SweepParam{9, 0.03},
                      SweepParam{10, 0.3}, SweepParam{11, 1.0},
                      SweepParam{12, 0.02}, SweepParam{13, 0.15},
                      SweepParam{14, 0.08}, SweepParam{15, 0.6}));

//===----------------------------------------------------------------------===//
// Full-detection baselines against the oracle.
//===----------------------------------------------------------------------===//

namespace {

class FullDetectionSweep : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(FullDetectionSweep, DjitMatchesOracleEventwise) {
  Trace T = mixedTrace(GetParam());
  HBClosureOracle Oracle(T);
  std::vector<size_t> Expected =
      dedupDeclaredRaces(T, Oracle.declaredRaces(/*MarkedOnly=*/false));
  EXPECT_EQ(Expected, declaredEvents(T, EngineKind::Djit));
}

TEST_P(FullDetectionSweep, FastTrackFindsSameRacyLocationsAsDjit) {
  Trace T = mixedTrace(GetParam());
  std::unique_ptr<Detector> Djit = createDetector(EngineKind::Djit,
                                                  T.numThreads());
  std::unique_ptr<Detector> FT = createDetector(EngineKind::FastTrack,
                                                T.numThreads());
  AlwaysSampler S;
  api::AnalysisSession().addDetector(*Djit).withSampler(S).run(T);
  AlwaysSampler S2;
  api::AnalysisSession().addDetector(*FT).withSampler(S2).run(T);
  EXPECT_EQ(Djit->racyLocations(), FT->racyLocations());
}

TEST_P(FullDetectionSweep, SamplingAt100PercentMatchesDjitVerdicts) {
  Trace T = mixedTrace(GetParam());
  markTrace(T, 1.0, 0);
  std::vector<size_t> Djit = declaredEvents(T, EngineKind::Djit);
  EXPECT_EQ(Djit, declaredEvents(T, EngineKind::SamplingNaive));
  EXPECT_EQ(Djit, declaredEvents(T, EngineKind::SamplingO));
}

TEST_P(FullDetectionSweep, RacyLocationsCoverAllRacyPairs) {
  // Location-level completeness: every location with an HB-race pair is
  // reported by the history-based detector.
  Trace T = mixedTrace(GetParam());
  HBClosureOracle Oracle(T);
  std::unordered_set<VarId> PairLocations;
  for (auto [I, J] : Oracle.allRacePairs())
    PairLocations.insert(T[J].var());

  std::unique_ptr<Detector> D = createDetector(EngineKind::Djit,
                                               T.numThreads());
  AlwaysSampler S;
  api::AnalysisSession().addDetector(*D).withSampler(S).run(T);
  EXPECT_EQ(PairLocations, D->racyLocations());
}

INSTANTIATE_TEST_SUITE_P(Sweep, FullDetectionSweep,
                         ::testing::Range<uint64_t>(1, 13));

//===----------------------------------------------------------------------===//
// Tree-clock ablation engine: full-HB timestamps imply it must agree with
// the sampling engines' verdicts on mutex/fork-join traces.
//===----------------------------------------------------------------------===//

//===----------------------------------------------------------------------===//
// Structured traces with fork/join and non-mutex synchronization
// (appendix A.2 paths).
//===----------------------------------------------------------------------===//

namespace {

std::vector<Trace> structuredTraces(uint64_t Seed) {
  std::vector<Trace> Out;
  Out.push_back(generateProducerConsumer(3, 3, 40, Seed));
  Out.push_back(generateForkJoin(3, 10, Seed));
  Out.push_back(generateBarrierRounds(4, 8, 6, Seed));
  Out.push_back(generatePipeline(2, 3, 60, Seed));
  Out.push_back(generatePingPong(4, 3, 50, Seed));
  return Out;
}

} // namespace

TEST(StructuredTraces, SamplingEnginesAgreeAndMatchOracle) {
  for (uint64_t Seed : {1u, 2u, 3u}) {
    size_t Idx = 0;
    for (Trace &T : structuredTraces(Seed)) {
      ASSERT_TRUE(T.validate()) << "trace " << Idx;
      for (double Rate : {0.05, 0.5, 1.0}) {
        markTrace(T, Rate, Seed + Idx * 31);
        HBClosureOracle Oracle(T);
        std::vector<size_t> Expected =
            Oracle.declaredRaces(/*MarkedOnly=*/true);
        EXPECT_EQ(Expected, declaredEvents(T, EngineKind::SamplingNaive))
            << "ST trace " << Idx << " rate " << Rate << " seed " << Seed;
        EXPECT_EQ(Expected, declaredEvents(T, EngineKind::SamplingU))
            << "SU trace " << Idx << " rate " << Rate << " seed " << Seed;
        EXPECT_EQ(Expected, declaredEvents(T, EngineKind::SamplingO))
            << "SO trace " << Idx << " rate " << Rate << " seed " << Seed;
      }
      ++Idx;
    }
  }
}

TEST(StructuredTraces, DjitMatchesOracleWithAtomicsAndForkJoin) {
  for (uint64_t Seed : {1u, 2u}) {
    for (Trace &T : structuredTraces(Seed)) {
      HBClosureOracle Oracle(T);
      EXPECT_EQ(Oracle.declaredRaces(false),
                declaredEvents(T, EngineKind::Djit));
    }
  }
}

TEST(StructuredTraces, WellSynchronizedTracesAreRaceFree) {
  // Producer/consumer, fork/join trees, barriers and pipelines are fully
  // synchronized by construction: no engine may report a race.
  for (uint64_t Seed : {1u, 2u, 3u, 4u}) {
    for (Trace &T : structuredTraces(Seed)) {
      markTrace(T, 1.0, Seed);
      EXPECT_TRUE(declaredEvents(T, EngineKind::Djit).empty());
      EXPECT_TRUE(declaredEvents(T, EngineKind::SamplingO).empty());
    }
  }
}

TEST(TreeClockEngine, MatchesSamplingVerdictsOnMutexTraces) {
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    Trace T = mixedTrace(Seed);
    markTrace(T, 0.2, Seed);
    std::vector<size_t> SO = declaredEvents(T, EngineKind::SamplingO);
    std::vector<size_t> TC = declaredEvents(T, EngineKind::TreeClockFull);
    EXPECT_EQ(SO, TC) << "seed " << Seed;
  }
}
