//===- tests/ProfilerTest.cpp - Hierarchical self-profiler tests ----------===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
// The prof subsystem's contracts: RAII scope nesting builds the tree the
// names describe and the exclusive-time arithmetic holds; the merged report
// is keyed by span path, not by which tree recorded it; a profiled
// AnalysisSession's report is byte-identical (modulo timing) across every
// worker count; disabled profiling yields the empty profile; and
// the chrome-trace export of all three batch subsystems (session, runtime,
// explore) is well-formed Trace Event Format JSON.
//
//===----------------------------------------------------------------------===//

#include "sampletrack/prof/ChromeTrace.h"
#include "sampletrack/prof/Profiler.h"

#include "sampletrack/api/AnalysisSession.h"
#include "sampletrack/api/Exploration.h"
#include "sampletrack/runtime/Runtime.h"
#include "sampletrack/support/Json.h"
#include "sampletrack/trace/SuiteGen.h"
#include "sampletrack/trace/TraceGen.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace sampletrack;

namespace {

/// Finds the direct child of \p N named \p Name; nullptr when absent.
const prof::ReportNode *child(const prof::ReportNode &N,
                              std::string_view Name) {
  for (const prof::ReportNode &C : N.Children)
    if (C.Name == Name)
      return &C;
  return nullptr;
}

uint64_t childInclusiveSum(const prof::ReportNode &N) {
  uint64_t Sum = 0;
  for (const prof::ReportNode &C : N.Children)
    Sum += C.InclusiveNanos;
  return Sum;
}

/// Recursively checks the exclusive-time identity on every node.
void expectExclusiveInvariant(const prof::ReportNode &N) {
  uint64_t ChildSum = childInclusiveSum(N);
  if (ChildSum >= N.InclusiveNanos)
    EXPECT_EQ(N.ExclusiveNanos, 0u) << N.Name;
  else
    EXPECT_EQ(N.ExclusiveNanos, N.InclusiveNanos - ChildSum) << N.Name;
  for (const prof::ReportNode &C : N.Children)
    expectExclusiveInvariant(C);
}

api::SessionConfig profiledConfig() {
  api::SessionConfig Cfg;
  Cfg.Engines = {EngineKind::FastTrack, EngineKind::SamplingNaive,
                 EngineKind::SamplingO, EngineKind::SamplingU};
  Cfg.Sampling = api::SamplerKind::Bernoulli;
  Cfg.SamplingRate = 0.03;
  Cfg.Seed = 7;
  Cfg.ProfilingEnabled = true;
  return Cfg;
}

} // namespace

TEST(Profiler, ScopeNestingBuildsTheTreeAndExclusiveTimeAddsUp) {
  prof::Profiler P;
  prof::Tree *T = P.makeTree("main");

  for (int I = 0; I < 3; ++I) {
    prof::Scope Outer(T, "outer");
    {
      prof::Scope Inner(T, "inner");
      // A second distinct child on one of the iterations only.
      if (I == 0) {
        Inner.reset();
        prof::Scope Other(T, "other");
      }
    }
  }
  { prof::Scope Top(T, "outer"); } // Re-entering merges into the same node.

  prof::Report R = P.report();
  ASSERT_EQ(R.Root.Children.size(), 1u);
  const prof::ReportNode *Outer = child(R.Root, "outer");
  ASSERT_NE(Outer, nullptr);
  EXPECT_EQ(Outer->Count, 4u);

  const prof::ReportNode *Inner = child(*Outer, "inner");
  const prof::ReportNode *Other = child(*Outer, "other");
  ASSERT_NE(Inner, nullptr);
  ASSERT_NE(Other, nullptr);
  EXPECT_EQ(Inner->Count, 3u);
  EXPECT_EQ(Other->Count, 1u);
  // Children are name-sorted.
  EXPECT_EQ(Outer->Children[0].Name, "inner");
  EXPECT_EQ(Outer->Children[1].Name, "other");

  // Nesting: a parent's inclusive time covers its children's.
  EXPECT_GE(Outer->InclusiveNanos, childInclusiveSum(*Outer));
  // Leaves spend everything on themselves.
  EXPECT_EQ(Inner->ExclusiveNanos, Inner->InclusiveNanos);
  expectExclusiveInvariant(R.Root);
}

TEST(Profiler, MergeIsKeyedByPathNotByRecordingTree) {
  // One thread recording a path twice vs two threads recording it once
  // each: the merged reports must be byte-identical after timing-strip.
  prof::Profiler A;
  prof::Tree *T1 = A.makeTree("only");
  for (int I = 0; I < 2; ++I) {
    prof::Scope S(T1, "work");
    prof::Scope C(T1, "step");
    T1->addCounter(T1->intern(T1->root(), "work"), "items", 5);
  }

  prof::Profiler B;
  for (const char *Name : {"w-0", "w-1"}) {
    prof::Tree *T = B.makeTree(Name);
    prof::Scope S(T, "work");
    prof::Scope C(T, "step");
    T->addCounter(T->intern(T->root(), "work"), "items", 5);
  }

  prof::Report Ra = prof::stripTiming(A.report());
  prof::Report Rb = prof::stripTiming(B.report());
  EXPECT_TRUE(Ra == Rb);
  EXPECT_EQ(prof::toText(Ra), prof::toText(Rb));

  const prof::ReportNode *Work = child(Ra.Root, "work");
  ASSERT_NE(Work, nullptr);
  EXPECT_EQ(Work->Count, 2u);
  ASSERT_EQ(Work->Counters.size(), 1u);
  EXPECT_EQ(Work->Counters[0].first, "items");
  EXPECT_EQ(Work->Counters[0].second, 10u);
}

TEST(Profiler, InternPathRecordsNothingAndSamplesFoldIn) {
  prof::Profiler P;
  prof::Tree *T = P.makeTree("t");

  // internPath creates the chain but no counts — threads may pre-intern
  // shared paths without perturbing the merged tree.
  prof::NodeId Leaf = T->internPath({"a", "b", "c"});
  prof::Report R0 = P.report();
  const prof::ReportNode *A0 = child(R0.Root, "a");
  ASSERT_NE(A0, nullptr);
  EXPECT_EQ(A0->Count, 0u);
  EXPECT_EQ(A0->InclusiveNanos, 0u);
  ASSERT_NE(child(*A0, "b"), nullptr);

  // Each sample folds in one call and its nanoseconds.
  T->addSample(Leaf, 1000);
  T->addSample(Leaf, 500);
  prof::Report R1 = P.report();
  const prof::ReportNode *C1 = child(*child(*child(R1.Root, "a"), "b"), "c");
  ASSERT_NE(C1, nullptr);
  EXPECT_EQ(C1->Count, 2u);
  EXPECT_EQ(C1->InclusiveNanos, 1500u);
}

TEST(Profiler, SessionProfileIsIdenticalAcrossWorkerCounts) {
  // The tentpole determinism contract: the merged span tree — shape,
  // counts, counters, rendered bytes — is independent of how the work was
  // scheduled. Only nanoseconds may differ.
  Trace T = generateSuiteTrace("bufwriter", 0.25, 3);
  api::SessionConfig Cfg = profiledConfig();

  api::SessionConfig Base = Cfg;
  api::SessionResult R0 = api::AnalysisSession(Base).run(T);
  ASSERT_FALSE(R0.Profile.empty());
  prof::Report Baseline = prof::stripTiming(R0.Profile);
  std::string BaselineText = prof::toText(Baseline);

  // The taxonomy the README documents.
  const prof::ReportNode *Session = child(Baseline.Root, "session");
  ASSERT_NE(Session, nullptr);
  EXPECT_EQ(Session->Count, 1u);
  ASSERT_NE(child(*Session, "ingest"), nullptr);
  const prof::ReportNode *Analyze = child(*Session, "analyze");
  ASSERT_NE(Analyze, nullptr);
  EXPECT_EQ(Analyze->Children.size(), 4u); // One child per engine lane.
  // Each lane is sampled once per ingest batch; every lane sees the same
  // batches, so the counts agree (their value is the batch count).
  EXPECT_GE(Analyze->Children[0].Count, 1u);
  for (const prof::ReportNode &Lane : Analyze->Children)
    EXPECT_EQ(Lane.Count, Analyze->Children[0].Count) << Lane.Name;
  ASSERT_NE(child(*Session, "finish"), nullptr);
  // Root counters: the session's headline numbers.
  ASSERT_EQ(Session->Counters.size(), 2u);
  EXPECT_EQ(Session->Counters[0].first, "events");
  EXPECT_EQ(Session->Counters[0].second, T.size());
  EXPECT_EQ(Session->Counters[1].first, "sampledAccesses");

  for (size_t W : {size_t(0), size_t(1), size_t(2), size_t(8)}) {
    SCOPED_TRACE("workers=" + std::to_string(W));
    api::SessionConfig C = Cfg;
    C.NumWorkers = W;
    api::SessionResult R = api::AnalysisSession(C).run(T);
    prof::Report Stripped = prof::stripTiming(R.Profile);
    EXPECT_TRUE(Stripped == Baseline);
    EXPECT_EQ(prof::toText(Stripped), BaselineText);
  }
}

TEST(Profiler, DisabledProfilingYieldsEmptyProfileAndStripCoversProfile) {
  Trace T = generateSuiteTrace("bufwriter", 0.1, 3);

  api::SessionConfig Off = profiledConfig();
  Off.ProfilingEnabled = false;
  api::SessionResult Plain = api::AnalysisSession(Off).run(T);
  EXPECT_TRUE(Plain.Profile.empty());

  // api::stripTiming reaches into the profile: nanoseconds go to zero,
  // structure and counts survive.
  api::SessionResult On = api::AnalysisSession(profiledConfig()).run(T);
  ASSERT_FALSE(On.Profile.empty());
  api::SessionResult Stripped = api::stripTiming(On);
  EXPECT_FALSE(Stripped.Profile.empty());
  const prof::ReportNode *Session = child(Stripped.Profile.Root, "session");
  ASSERT_NE(Session, nullptr);
  EXPECT_EQ(Session->InclusiveNanos, 0u);
  EXPECT_EQ(Session->Count, 1u);
  EXPECT_TRUE(Stripped.Profile == prof::stripTiming(On.Profile));
}

TEST(Profiler, ReportRendersAsJsonAndCsv) {
  Trace T = generateSuiteTrace("bufwriter", 0.1, 3);
  api::SessionResult R = api::AnalysisSession(profiledConfig()).run(T);

  // The flat array the session JSON reporter / bench trajectory embed.
  std::string Arr = prof::toJsonArray(R.Profile);
  support::JsonValue V;
  std::string Err;
  ASSERT_TRUE(support::JsonValue::parse(Arr, V, &Err)) << Err;
  ASSERT_TRUE(V.isArray());
  ASSERT_FALSE(V.Array.empty());
  bool SawSession = false;
  for (const support::JsonValue &Span : V.Array) {
    ASSERT_TRUE(Span.isObject());
    EXPECT_NE(Span.get("path"), nullptr);
    EXPECT_NE(Span.get("count"), nullptr);
    EXPECT_NE(Span.get("inclusiveNanos"), nullptr);
    EXPECT_NE(Span.get("exclusiveNanos"), nullptr);
    if (Span.getString("path") == "session")
      SawSession = true;
  }
  EXPECT_TRUE(SawSession);

  std::string Csv = prof::toCsv(R.Profile);
  EXPECT_EQ(Csv.rfind("path,count,inclusiveNanos,exclusiveNanos\n", 0), 0u);
  EXPECT_NE(Csv.find("session/analyze/FT,"), std::string::npos);
}

TEST(Profiler, ChromeTraceCoversSessionRuntimeAndExploreSources) {
  // Session source.
  Trace T = generateSuiteTrace("bufwriter", 0.1, 3);
  api::AnalysisSession S(profiledConfig());
  S.run(T);
  std::unique_ptr<prof::Profiler> SessionProf = S.takeProfiler();
  ASSERT_NE(SessionProf, nullptr);

  // Runtime source: a tiny online run with hook spans enabled.
  rt::Config RC;
  RC.AnalysisMode = rt::Mode::SO;
  RC.SamplingRate = 1.0;
  RC.ProfilingEnabled = true;
  rt::Runtime Rt(RC);
  uint64_t Shared = 0;
  ThreadId A = Rt.registerThread();
  Rt.onFork(0, A);
  Rt.onAcquire(A, 1);
  Rt.onWrite(A, reinterpret_cast<uint64_t>(&Shared));
  Rt.onRead(A, reinterpret_cast<uint64_t>(&Shared));
  Rt.onRelease(A, 1);
  Rt.onJoin(0, A);
  ASSERT_NE(Rt.profiler(), nullptr);

  // Explore source.
  GenConfig G;
  G.NumThreads = 3;
  G.NumEvents = 300;
  G.Seed = 5;
  explore::Workload W = explore::Workload::fromTrace(generateWorkload(G));
  explore::ExploreConfig EC;
  EC.MaxSchedules = 4;
  api::SessionConfig ECfg;
  ECfg.Engines = {EngineKind::FastTrack};
  prof::Profiler ExploreProf;
  api::runExploration(ECfg, W, EC, &ExploreProf);

  const prof::TraceSource Sources[] = {
      {SessionProf.get(), "session"},
      {Rt.profiler(), "runtime"},
      {&ExploreProf, "explore"},
  };
  std::string Trace = prof::toChromeTrace(Sources);

  support::JsonValue Doc;
  std::string Err;
  ASSERT_TRUE(support::JsonValue::parse(Trace, Doc, &Err)) << Err;
  EXPECT_EQ(Doc.getString("displayTimeUnit"), "ms");
  const support::JsonValue *Events = Doc.get("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());

  bool ProcessNames[3] = {false, false, false};
  bool SawSpan[3] = {false, false, false};
  bool SawCounter = false;
  for (const support::JsonValue &E : Events->Array) {
    ASSERT_TRUE(E.isObject());
    std::string Ph = E.getString("ph");
    double Pid = E.getNumber("pid", -1);
    ASSERT_GE(Pid, 1);
    ASSERT_LE(Pid, 3);
    size_t Src = static_cast<size_t>(Pid) - 1;
    if (Ph == "M") {
      if (E.getString("name") == "process_name")
        ProcessNames[Src] = true;
    } else if (Ph == "X") {
      SawSpan[Src] = true;
      bool HasTs = false, HasDur = false;
      E.getNumber("ts", 0, &HasTs);
      E.getNumber("dur", 0, &HasDur);
      EXPECT_TRUE(HasTs && HasDur);
      EXPECT_FALSE(E.getString("name").empty());
    } else if (Ph == "C") {
      SawCounter = true;
    } else {
      ADD_FAILURE() << "unexpected event phase: " << Ph;
    }
  }
  for (size_t I = 0; I < 3; ++I) {
    EXPECT_TRUE(ProcessNames[I]) << "source " << I;
    EXPECT_TRUE(SawSpan[I]) << "source " << I;
  }
  EXPECT_TRUE(SawCounter); // The session's events/sampledAccesses tracks.

  // The spans the ISSUE's acceptance bullet names, one per subsystem.
  EXPECT_NE(Trace.find("\"name\": \"session\""), std::string::npos);
  EXPECT_NE(Trace.find("\"name\": \"acquire\""), std::string::npos);
  EXPECT_NE(Trace.find("\"name\": \"enumerate\""), std::string::npos);
}

TEST(Profiler, ChromeTraceExportsALockedTreeWhileItRecords) {
  // A live server exports its profile while worker threads keep recording
  // into their locked trees: the export must read each tree under its lock.
  prof::Profiler P(/*LockTrees=*/true);
  prof::Tree *Worker = P.makeTree("worker");
  prof::NodeId Node = Worker->internPath({"serve", "upload"});
  std::atomic<bool> Stop{false};
  std::thread Recorder([&] {
    for (uint64_t I = 1; !Stop.load(std::memory_order_relaxed); ++I) {
      Worker->addSpan(Node, I, I + 1);
      Worker->counterEvent(Node, "bytes", I);
    }
  });
  for (int Export = 0; Export < 20; ++Export) {
    std::string Trace = prof::toChromeTrace(P, "server");
    support::JsonValue Doc;
    std::string Err;
    EXPECT_TRUE(support::JsonValue::parse(Trace, Doc, &Err)) << Err;
  }
  Stop.store(true, std::memory_order_relaxed);
  Recorder.join();
}
