//===- tests/WorkBoundTest.cpp - Complexity-bound tests --------------------==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks the asymptotic claims of the paper as concrete counter bounds:
///  - Lemma 8: SO performs O(|S| T) deep copies and O(|S| T^2) + O(N)
///    traversal work; its timestamping work does not scale with the trace
///    length N or the number of locks L when |S| is fixed.
///  - Lemma 7 observation: SU's thread/lock clocks change at most |S| T
///    times, so processed acquires are bounded by |S| T^2 and processed
///    releases by |S| T L.
///  - ST by contrast pays a full clock op for every sync event.
///
//===----------------------------------------------------------------------===//

#include "sampletrack/api/AnalysisSession.h"
#include "sampletrack/detectors/DetectorFactory.h"
#include "sampletrack/trace/TraceGen.h"

#include <gtest/gtest.h>

using namespace sampletrack;

namespace {

/// Generates a trace and marks exactly the accesses chosen by a periodic
/// schedule so |S| is controlled precisely.
Trace markedPeriodic(size_t NumEvents, size_t NumLocks, size_t TargetSamples,
                     uint64_t Seed) {
  GenConfig C;
  C.NumThreads = 8;
  C.NumLocks = NumLocks;
  C.NumVars = 256;
  C.NumEvents = NumEvents;
  C.Seed = Seed;
  Trace T = generateWorkload(C);
  size_t Accesses = T.countKind(OpKind::Read) + T.countKind(OpKind::Write);
  size_t Period = std::max<size_t>(1, Accesses / std::max<size_t>(
                                                     1, TargetSamples));
  size_t Counter = 0;
  for (size_t I = 0; I < T.size(); ++I)
    if (isAccess(T[I].Kind))
      T[I].Marked = (Counter++ % Period) == 0;
  return T;
}

Metrics runMarked(const Trace &T, EngineKind K) {
  std::unique_ptr<Detector> D = createDetector(K, T.numThreads());
  MarkedSampler S;
  api::AnalysisSession().addDetector(*D).withSampler(S).run(T);
  return D->metrics();
}

} // namespace

TEST(WorkBounds, SoDeepCopiesBoundedBySampleTimesThreads) {
  for (uint64_t Seed : {1u, 2u, 3u}) {
    Trace T = markedPeriodic(40000, 16, 60, Seed);
    uint64_t S = T.countMarked();
    uint64_t NT = T.numThreads();
    Metrics M = runMarked(T, EngineKind::SamplingO);
    // Each deep copy requires a prior change to some thread's list; lists
    // change at most |S| T times overall (plus T initial epochs).
    EXPECT_LE(M.DeepCopies, S * NT + NT) << "seed " << Seed;
  }
}

TEST(WorkBounds, SoTraversalWorkBoundedBySampleTimesThreadsSquared) {
  for (uint64_t Seed : {1u, 2u, 3u}) {
    Trace T = markedPeriodic(40000, 16, 60, Seed);
    uint64_t S = T.countMarked();
    uint64_t NT = T.numThreads();
    Metrics M = runMarked(T, EngineKind::SamplingO);
    // O(|S| T^2) with a small constant; the +T^2 absorbs fork/join edges
    // and startup.
    EXPECT_LE(M.EntriesTraversed, 4 * S * NT * NT + NT * NT)
        << "seed " << Seed;
    // Each (acquirer, releaser) pair processes at most one acquire per
    // version of the releaser's clock, and versions number O(|S|): the
    // total is O(|S| T^2), not O(|S| T).
    EXPECT_LE(M.AcquiresProcessed, 2 * S * NT * NT + NT) << "seed " << Seed;
  }
}

TEST(WorkBounds, SoWorkIndependentOfTraceLength) {
  // Same structure, fixed |S| = ~60, trace 4x longer: SO's timestamping
  // work must stay in the same ballpark while ST's quadruples.
  Trace Short = markedPeriodic(30000, 16, 60, 7);
  Trace Long = markedPeriodic(120000, 16, 60, 7);
  ASSERT_NEAR(static_cast<double>(Short.countMarked()),
              static_cast<double>(Long.countMarked()), 8.0);

  Metrics SoShort = runMarked(Short, EngineKind::SamplingO);
  Metrics SoLong = runMarked(Long, EngineKind::SamplingO);
  Metrics StShort = runMarked(Short, EngineKind::SamplingNaive);
  Metrics StLong = runMarked(Long, EngineKind::SamplingNaive);

  double SoGrowth = static_cast<double>(SoLong.totalTimestampingWork() + 1) /
                    static_cast<double>(SoShort.totalTimestampingWork() + 1);
  double StGrowth = static_cast<double>(StLong.totalTimestampingWork() + 1) /
                    static_cast<double>(StShort.totalTimestampingWork() + 1);
  EXPECT_LT(SoGrowth, 2.0) << "SO work should not scale with N";
  EXPECT_GT(StGrowth, 3.0) << "ST work scales linearly with N";
}

TEST(WorkBounds, SoWorkIndependentOfLockCount) {
  // |S| fixed, 4 locks vs 64 locks: SO's traversal work must not grow with
  // L (Lemma 8's improvement over Lemma 7).
  Trace FewLocks = markedPeriodic(60000, 4, 60, 9);
  Trace ManyLocks = markedPeriodic(60000, 64, 60, 9);
  Metrics SoFew = runMarked(FewLocks, EngineKind::SamplingO);
  Metrics SoMany = runMarked(ManyLocks, EngineKind::SamplingO);
  double Growth = static_cast<double>(SoMany.totalTimestampingWork() + 1) /
                  static_cast<double>(SoFew.totalTimestampingWork() + 1);
  EXPECT_LT(Growth, 2.5) << "SO work should not scale with L";
}

TEST(WorkBounds, StPaysFullOpPerSyncEvent) {
  Trace T = markedPeriodic(30000, 16, 60, 4);
  Metrics M = runMarked(T, EngineKind::SamplingNaive);
  uint64_t Syncs = M.AcquiresTotal + M.ReleasesTotal;
  EXPECT_GE(M.FullClockOps, Syncs) << "ST never skips";
  EXPECT_EQ(M.AcquiresSkipped, 0u);
  EXPECT_EQ(M.ReleasesSkipped, 0u);
}

TEST(WorkBounds, MetricAccountingInvariants) {
  for (EngineKind K : {EngineKind::SamplingU, EngineKind::SamplingO,
                       EngineKind::SamplingNaive, EngineKind::Djit,
                       EngineKind::FastTrack, EngineKind::TreeClockFull}) {
    Trace T = markedPeriodic(20000, 8, 200, 11);
    Metrics M = runMarked(T, K);
    EXPECT_EQ(M.AcquiresSkipped + M.AcquiresProcessed, M.AcquiresTotal)
        << engineKindName(K);
    EXPECT_LE(M.ReleasesSkipped + M.ReleasesProcessed, M.ReleasesTotal + 1)
        << engineKindName(K);
    EXPECT_LE(M.EntriesTraversed,
              M.TraversalOpportunities + M.AcquiresProcessed)
        << engineKindName(K);
  }
}

TEST(WorkBounds, SkipRatesRiseAsSamplingRateFalls) {
  // The qualitative Fig. 6(b)/Fig. 7 trend: fewer samples => more skips.
  GenConfig C;
  C.NumThreads = 8;
  C.NumLocks = 8;
  C.NumEvents = 60000;
  C.Seed = 21;
  Trace Base = generateWorkload(C);

  double PrevSkipRatio = -1.0;
  for (double Rate : {1.0, 0.1, 0.01, 0.001}) {
    Trace T = Base;
    markTrace(T, Rate, 77);
    Metrics M = runMarked(T, EngineKind::SamplingU);
    double Ratio = static_cast<double>(M.AcquiresSkipped) /
                   static_cast<double>(M.AcquiresTotal);
    EXPECT_GE(Ratio, PrevSkipRatio - 0.05)
        << "skip ratio should not fall as the rate drops (rate " << Rate
        << ")";
    PrevSkipRatio = Ratio;
  }
}
