//===- tests/SupportAndSuiteTest.cpp - Utilities and full-suite checks -----==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/SampleTrack.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

using namespace sampletrack;

//===----------------------------------------------------------------------===//
// Table / Summary
//===----------------------------------------------------------------------===//

TEST(Summary, ComputesOrderStatistics) {
  Summary S = Summary::of({5.0, 1.0, 3.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(S.Mean, 3.0);
  EXPECT_DOUBLE_EQ(S.Min, 1.0);
  EXPECT_DOUBLE_EQ(S.Max, 5.0);
  EXPECT_DOUBLE_EQ(S.P50, 3.0);
  EXPECT_DOUBLE_EQ(S.P95, 4.0);
}

TEST(Summary, EmptyInputYieldsZeros) {
  Summary S = Summary::of({});
  EXPECT_EQ(S.Mean, 0.0);
  EXPECT_EQ(S.Max, 0.0);
}

TEST(Table, FormatsAndWritesCsv) {
  Table T({"a", "b"});
  T.addRow({"x", Table::fmt(1.2345, 2)});
  T.addRow({"row-with-missing-cell"});
  EXPECT_EQ(T.numRows(), 2u);
  EXPECT_EQ(Table::fmt(1.2345, 2), "1.23");

  std::string Path = "/tmp/sampletrack_table_test.csv";
  ASSERT_TRUE(T.writeCsv(Path));
  std::ifstream In(Path);
  std::string Line;
  ASSERT_TRUE(std::getline(In, Line));
  EXPECT_EQ(Line, "a,b");
  ASSERT_TRUE(std::getline(In, Line));
  EXPECT_EQ(Line, "x,1.23");
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Metrics / factory
//===----------------------------------------------------------------------===//

TEST(MetricsStr, MentionsKeyCounters) {
  Metrics M;
  M.AcquiresTotal = 42;
  M.DeepCopies = 7;
  std::string S = M.str();
  EXPECT_NE(S.find("total=42"), std::string::npos);
  EXPECT_NE(S.find("deep=7"), std::string::npos);
}

TEST(DetectorFactory, NamesRoundTrip) {
  for (EngineKind K : allEngineKinds()) {
    std::optional<EngineKind> Back = parseEngineKind(engineKindName(K));
    ASSERT_TRUE(Back.has_value()) << engineKindName(K);
    EXPECT_EQ(*Back, K);
    std::unique_ptr<Detector> D = createDetector(K, 4);
    ASSERT_NE(D, nullptr);
    EXPECT_EQ(D->numThreads(), 4u);
  }
  EXPECT_FALSE(parseEngineKind("bogus").has_value());
  EXPECT_TRUE(parseEngineKind("djit").has_value()) << "lowercase alias";
}

TEST(EventHelpers, KindPredicates) {
  EXPECT_TRUE(isAccess(OpKind::Read));
  EXPECT_TRUE(isAccess(OpKind::Write));
  EXPECT_FALSE(isAccess(OpKind::Acquire));
  EXPECT_TRUE(isReleaseLike(OpKind::Release));
  EXPECT_TRUE(isReleaseLike(OpKind::Fork));
  EXPECT_TRUE(isReleaseLike(OpKind::ReleaseStore));
  EXPECT_TRUE(isReleaseLike(OpKind::ReleaseJoin));
  EXPECT_FALSE(isReleaseLike(OpKind::AcquireLoad));
  EXPECT_TRUE(isAcquireLike(OpKind::Acquire));
  EXPECT_TRUE(isAcquireLike(OpKind::Join));
  EXPECT_TRUE(isAcquireLike(OpKind::AcquireLoad));
  EXPECT_FALSE(isAcquireLike(OpKind::Read));
}

//===----------------------------------------------------------------------===//
// The whole offline suite, end to end
//===----------------------------------------------------------------------===//

TEST(FullSuite, EveryTraceValidatesAndIsDeterministic) {
  for (const SuiteEntry &E : suiteEntries()) {
    Trace A = generateSuiteTrace(E.Name, 0.05, 7);
    Trace B = generateSuiteTrace(E.Name, 0.05, 7);
    std::string Err;
    ASSERT_TRUE(A.validate(&Err)) << E.Name << ": " << Err;
    ASSERT_EQ(A.size(), B.size()) << E.Name;
    for (size_t I = 0; I < A.size(); ++I)
      ASSERT_EQ(A[I], B[I]) << E.Name << " event " << I;
  }
}

TEST(FullSuite, EnginesAgreeOnEveryBenchmark) {
  for (const SuiteEntry &E : suiteEntries()) {
    Trace T = generateSuiteTrace(E.Name, 0.05, 3);
    markTrace(T, 0.05, 11);
    auto Run = [&](EngineKind K) {
      std::unique_ptr<Detector> D = createDetector(K, T.numThreads());
      MarkedSampler S;
      api::AnalysisSession().addDetector(*D).withSampler(S).run(T);
      std::vector<uint64_t> Out;
      for (const RaceReport &R : D->races())
        Out.push_back(R.EventIndex);
      return Out;
    };
    std::vector<uint64_t> ST = Run(EngineKind::SamplingNaive);
    EXPECT_EQ(ST, Run(EngineKind::SamplingU)) << E.Name;
    EXPECT_EQ(ST, Run(EngineKind::SamplingO)) << E.Name;
  }
}

TEST(FullSuite, SamplingWorkScalesDownWithRate) {
  // The headline economic claim across the whole suite: at 0.3% the SO
  // engine's timestamping work must be far below ST's on every trace with
  // meaningful synchronization.
  size_t Improved = 0, Count = 0;
  for (const SuiteEntry &E : suiteEntries()) {
    Trace T = generateSuiteTrace(E.Name, 0.05, 5);
    markTrace(T, 0.003, 13);
    api::EngineRun St, So;
    {
      std::unique_ptr<Detector> D =
          createDetector(EngineKind::SamplingNaive, T.numThreads());
      MarkedSampler S;
      St = api::AnalysisSession()
               .addDetector(*D)
               .withSampler(S)
               .run(T)
               .Engines.front();
    }
    {
      std::unique_ptr<Detector> D =
          createDetector(EngineKind::SamplingO, T.numThreads());
      MarkedSampler S;
      So = api::AnalysisSession()
               .addDetector(*D)
               .withSampler(S)
               .run(T)
               .Engines.front();
    }
    uint64_t StWork = St.Stats.EntriesTraversed +
                      St.Stats.FullClockOps * T.numThreads();
    uint64_t SoWork = So.Stats.EntriesTraversed +
                      So.Stats.FullClockOps * T.numThreads();
    ++Count;
    if (SoWork * 2 < StWork)
      ++Improved;
  }
  EXPECT_GE(Improved * 4, Count * 3)
      << "SO should halve ST's entry-level work on >= 75% of the suite";
}
