//===- tests/ExploreTest.cpp - Schedule exploration ------------------------==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The schedule-exploration subsystem's contract tests: exhaustive
/// enumeration is complete (closed-form counts), the cooperative scheduler
/// respects enabledness (locks serialize, forks gate, deadlocks are counted
/// and never emitted), exploration is deterministic in the seed down to the
/// report's bytes, and — the per-schedule correctness gate — every engine's
/// deduplicated race set matches the HBClosureOracle's on every explored
/// interleaving.
///
/// Schedule budgets scale with SAMPLETRACK_EXPLORE_SCHEDULES (the `explore`
/// ctest label): CI smoke keeps the defaults, nightly goes deep.
///
//===----------------------------------------------------------------------===//

#include "sampletrack/api/Exploration.h"
#include "sampletrack/detectors/HBClosureOracle.h"
#include "sampletrack/trace/TraceGen.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

using namespace sampletrack;
using namespace sampletrack::explore;

namespace {

/// Schedule budget for one exploration loop: \p Default, unless
/// SAMPLETRACK_EXPLORE_SCHEDULES overrides it (nightly CI goes deeper).
size_t exploreSchedules(size_t Default) {
  if (const char *V = std::getenv("SAMPLETRACK_EXPLORE_SCHEDULES"))
    return std::max(1, std::atoi(V));
  return Default;
}

/// Drains a scheduler into a list of choice sequences.
std::vector<std::vector<ThreadId>> enumerate(const Workload &W,
                                             const ExploreConfig &C) {
  Scheduler S(W, C);
  std::vector<std::vector<ThreadId>> Out;
  Schedule Sch;
  while (S.next(Sch))
    Out.push_back(Sch.Choices);
  return Out;
}

/// 2 threads x 3 lock-free writes each: C(6,3) = 20 interleavings.
Workload lockFreePair() {
  Workload W;
  ThreadId A = W.addThread(), B = W.addThread();
  for (int I = 0; I < 3; ++I) {
    W.write(A, 0);
    W.write(B, 1);
  }
  return W;
}

/// The schedule-dependent race: T0 publishes V0 via a release-store that T1
/// may or may not acquire-load before its own write. Of the C(4,2) = 6
/// interleavings, exactly the one executing st before ld is race-free.
Workload atomicPublishPair() {
  Workload W;
  ThreadId A = W.addThread(), B = W.addThread();
  W.write(A, 0);
  W.releaseStore(A, 0);
  W.acquireLoad(B, 0);
  W.write(B, 0);
  return W;
}

ExploreConfig exhaustiveAll() {
  ExploreConfig C;
  C.Mode = ExploreMode::Exhaustive;
  C.MaxSchedules = 0;
  return C;
}

} // namespace

//===----------------------------------------------------------------------===//
// Exhaustive enumeration: completeness and enabledness.
//===----------------------------------------------------------------------===//

TEST(ExhaustiveMode, LockFreeCountMatchesClosedForm) {
  Workload W = lockFreePair();
  EXPECT_EQ(W.unconstrainedInterleavingCount(), 20u);
  EXPECT_FALSE(W.hasBlockingOps());

  std::vector<std::vector<ThreadId>> All = enumerate(W, exhaustiveAll());
  EXPECT_EQ(All.size(), 20u);
  // All distinct, all complete, all well-formed.
  std::set<std::vector<ThreadId>> Distinct(All.begin(), All.end());
  EXPECT_EQ(Distinct.size(), All.size());
  for (const std::vector<ThreadId> &Choices : All) {
    ASSERT_EQ(Choices.size(), W.numOps());
    Trace T = Scheduler::materialize(W, Choices);
    std::string Err;
    EXPECT_TRUE(T.validate(&Err)) << Err;
  }

  // Three threads x two ops: 6! / (2! 2! 2!) = 90.
  Workload W3;
  for (ThreadId T = 0; T < 3; ++T) {
    W3.addThread();
    W3.write(T, T);
    W3.read(T, T);
  }
  EXPECT_EQ(W3.unconstrainedInterleavingCount(), 90u);
  EXPECT_EQ(enumerate(W3, exhaustiveAll()).size(), 90u);
}

TEST(ExhaustiveMode, MutexCriticalSectionsSerialize) {
  // Two threads contending for one lock around their whole program: the
  // only schedule freedom is who enters first.
  Workload W;
  ThreadId A = W.addThread(), B = W.addThread();
  for (ThreadId T : {A, B}) {
    W.acquire(T, 0);
    W.write(T, 0);
    W.release(T, 0);
  }
  std::vector<std::vector<ThreadId>> All = enumerate(W, exhaustiveAll());
  EXPECT_EQ(All.size(), 2u);
  for (const std::vector<ThreadId> &Choices : All) {
    Trace T = Scheduler::materialize(W, Choices);
    std::string Err;
    EXPECT_TRUE(T.validate(&Err)) << Err;
  }
}

TEST(ExhaustiveMode, ForkJoinGatesLeaveOneSchedule) {
  // Parent forks the child, joins it, then writes: the child's write is
  // pinned between fork and join, so exactly one interleaving exists.
  Workload W;
  ThreadId P = W.addThread(), C = W.addThread();
  W.fork(P, C);
  W.join(P, C);
  W.write(P, 0);
  W.write(C, 0);
  std::vector<std::vector<ThreadId>> All = enumerate(W, exhaustiveAll());
  ASSERT_EQ(All.size(), 1u);
  EXPECT_EQ(All[0], (std::vector<ThreadId>{P, C, P, P}));
  // And the join edge makes it race-free on every engine's reference.
  Trace T = Scheduler::materialize(W, All[0]);
  HBClosureOracle Oracle(T);
  EXPECT_TRUE(Oracle.declaredRaces(/*MarkedOnly=*/false).empty());
}

TEST(ExhaustiveMode, MaxSchedulesCapsEnumeration) {
  Workload W = lockFreePair();
  ExploreConfig C = exhaustiveAll();
  C.MaxSchedules = 5;
  EXPECT_EQ(enumerate(W, C).size(), 5u);
}

TEST(Scheduler, MaxSchedulesBoundsEmittedSchedulesNotAttempts) {
  // A deadlock-prone space: walks that dead-end or repeat must not use up
  // the budget, so small budgets still emit, and no budget is exceeded.
  Trace T = generateWorkload([] {
    GenConfig G;
    G.NumThreads = 5;
    G.NumEvents = 300;
    G.Seed = 11;
    return G;
  }());
  Workload W = Workload::fromTrace(T);
  for (ExploreMode M : {ExploreMode::Random, ExploreMode::Pct}) {
    for (size_t Budget : {1u, 2u, 4u, 8u}) {
      ExploreConfig C;
      C.Mode = M;
      C.Seed = 1234;
      C.MaxSchedules = Budget;
      Scheduler S(W, C);
      Schedule Sch;
      size_t Emitted = 0;
      while (S.next(Sch))
        ++Emitted;
      EXPECT_EQ(Emitted, Budget) << exploreModeName(M) << " budget " << Budget;
      EXPECT_LE(S.attempts(), Budget * Scheduler::AttemptsPerSchedule);
      EXPECT_EQ(Emitted + S.deadlocked() + S.duplicates(), S.attempts());
    }
  }
}

TEST(Scheduler, DeadlockedBranchesAreCountedNeverEmitted) {
  // Classic ABBA: each emitted schedule must fully serialize one thread's
  // nested section before the other enters both locks.
  Workload W;
  ThreadId A = W.addThread(), B = W.addThread();
  W.acquire(A, 0);
  W.acquire(A, 1);
  W.release(A, 1);
  W.release(A, 0);
  W.acquire(B, 1);
  W.acquire(B, 0);
  W.release(B, 0);
  W.release(B, 1);
  ASSERT_TRUE(W.validate());

  Scheduler S(W, exhaustiveAll());
  Schedule Sch;
  size_t Complete = 0;
  while (S.next(Sch)) {
    ++Complete;
    ASSERT_EQ(Sch.Choices.size(), W.numOps());
    Trace T = Scheduler::materialize(W, Sch.Choices);
    std::string Err;
    EXPECT_TRUE(T.validate(&Err)) << Err;
  }
  EXPECT_GT(Complete, 0u);
  EXPECT_GT(S.deadlocked(), 0u); // The ABBA branches dead-ended.

  // Random mode hits the same deadlocks; they spend attempts, never emit.
  // The space holds fewer than 50 distinct schedules, so generation stops
  // at the attempt bound, not at the emission cap.
  ExploreConfig RC;
  RC.Mode = ExploreMode::Random;
  RC.MaxSchedules = 50;
  Scheduler SR(W, RC);
  size_t Emitted = 0;
  while (SR.next(Sch))
    ++Emitted;
  EXPECT_LT(Emitted, 50u);
  EXPECT_EQ(SR.attempts(), 50u * Scheduler::AttemptsPerSchedule);
  EXPECT_GT(SR.deadlocked(), 0u);
  EXPECT_EQ(Emitted + SR.deadlocked() + SR.duplicates(), SR.attempts());
}

//===----------------------------------------------------------------------===//
// Workload model: projection and static validation.
//===----------------------------------------------------------------------===//

TEST(ExploreWorkload, FromTraceIdentityScheduleReproducesTheTrace) {
  GenConfig G;
  G.NumThreads = 4;
  G.NumLocks = 3;
  G.NumEvents = 400;
  G.Seed = 97;
  Trace T = generateWorkload(G);
  ASSERT_TRUE(T.validate());

  Workload W = Workload::fromTrace(T);
  ASSERT_TRUE(W.validate());
  EXPECT_EQ(W.numOps(), T.size());
  EXPECT_EQ(W.numThreads(), T.numThreads());
  EXPECT_EQ(W.numSyncs(), T.numSyncs());
  EXPECT_EQ(W.numVars(), T.numVars());

  // The trace's own tid sequence is a schedule of its projection, and
  // materializing it reproduces the trace (modulo Marked bits).
  std::vector<ThreadId> Identity;
  Identity.reserve(T.size());
  for (const Event &E : T)
    Identity.push_back(E.Tid);
  Trace Back = Scheduler::materialize(W, Identity);
  ASSERT_EQ(Back.size(), T.size());
  for (size_t I = 0; I < T.size(); ++I) {
    EXPECT_EQ(Back[I].Tid, T[I].Tid);
    EXPECT_EQ(Back[I].Kind, T[I].Kind);
    EXPECT_EQ(Back[I].Target, T[I].Target);
  }
}

TEST(ExploreWorkload, ValidateRejectsUnschedulablePrograms) {
  std::string Err;
  { // Re-acquiring a held lock self-deadlocks.
    Workload W;
    ThreadId A = W.addThread();
    W.acquire(A, 0);
    W.acquire(A, 0);
    EXPECT_FALSE(W.validate(&Err));
  }
  { // Releasing a lock never acquired.
    Workload W;
    ThreadId A = W.addThread();
    W.release(A, 0);
    EXPECT_FALSE(W.validate(&Err));
  }
  { // Forking the same thread twice.
    Workload W;
    ThreadId A = W.addThread(), B = W.addThread();
    W.fork(A, B);
    W.fork(A, B);
    EXPECT_FALSE(W.validate(&Err));
  }
  { // Self-join.
    Workload W;
    ThreadId A = W.addThread();
    W.join(A, A);
    EXPECT_FALSE(W.validate(&Err));
  }
  { // The happy path still validates.
    Workload W;
    ThreadId A = W.addThread(), B = W.addThread();
    W.fork(A, B);
    W.acquire(B, 0);
    W.write(B, 3);
    W.release(B, 0);
    W.join(A, B);
    EXPECT_TRUE(W.validate(&Err)) << Err;
  }
}

//===----------------------------------------------------------------------===//
// Determinism: the seed pins the schedule set and the report bytes.
//===----------------------------------------------------------------------===//

TEST(ExploreDeterminism, SameSeedSameScheduleSet) {
  Trace T = generateWorkload([] {
    GenConfig G;
    G.NumThreads = 5;
    G.NumEvents = 300;
    G.Seed = 11;
    return G;
  }());
  Workload W = Workload::fromTrace(T);

  for (ExploreMode M : {ExploreMode::Random, ExploreMode::Pct}) {
    ExploreConfig C;
    C.Mode = M;
    C.Seed = 1234;
    C.MaxSchedules = exploreSchedules(8);
    std::vector<std::vector<ThreadId>> A = enumerate(W, C);
    std::vector<std::vector<ThreadId>> B = enumerate(W, C);
    EXPECT_EQ(A, B) << exploreModeName(M);
    ASSERT_FALSE(A.empty());

    // A different seed walks a different region of the (astronomically
    // large) schedule space.
    C.Seed = 99;
    EXPECT_NE(A, enumerate(W, C)) << exploreModeName(M);
  }
}

TEST(ExploreDeterminism, ReportIsByteIdenticalAcrossRunsAndWorkerCounts) {
  Trace T = generateProducerConsumer(2, 2, 25, 77);
  Workload W = Workload::fromTrace(T);

  api::SessionConfig Cfg;
  Cfg.Sampling = api::SamplerKind::Bernoulli;
  Cfg.SamplingRate = 0.25;
  Cfg.Seed = 21;

  ExploreConfig EC;
  EC.Mode = ExploreMode::Random;
  EC.Seed = 5;
  EC.MaxSchedules = exploreSchedules(6);

  ExploreReport R1 = api::runExploration(Cfg, W, EC);
  ExploreReport R2 = api::runExploration(Cfg, W, EC);
  EXPECT_TRUE(R1 == R2);
  EXPECT_EQ(toJson(R1), toJson(R2));

  // Lane workers change nothing but wall clock — and the report carries no
  // wall clock, so it is bit-identical across worker counts too.
  api::SessionConfig Par = Cfg;
  Par.NumWorkers = 2;
  ExploreReport R3 = api::runExploration(Par, W, EC);
  EXPECT_EQ(toJson(R1), toJson(R3));
}

//===----------------------------------------------------------------------===//
// The injected schedule-dependent race, measured.
//===----------------------------------------------------------------------===//

TEST(ExploreCoverage, AtomicPublishRaceIsExposedByFiveOfSixSchedules) {
  Workload W = atomicPublishPair();
  api::SessionConfig Cfg;
  Cfg.Sampling = api::SamplerKind::Always;

  ExploreReport R = api::runExploration(Cfg, W, exhaustiveAll());
  EXPECT_EQ(R.SchedulesRun, 6u);
  EXPECT_EQ(R.DeadlockedSchedules, 0u);
  // Only the schedule that executes the release-store before the
  // acquire-load orders the two writes; every other interleaving races.
  EXPECT_EQ(R.SchedulesWithOracleRaces, 5u);
  size_t RaceFree = 0;
  for (const ScheduleOutcome &S : R.Schedules)
    RaceFree += S.OracleFullSignatures == 0 ? 1 : 0;
  EXPECT_EQ(RaceFree, 1u);

  // At full sampling every engine sees what the oracle sees, per schedule.
  EXPECT_TRUE(R.AllAgreed);
  ASSERT_EQ(R.Engines.size(), 6u);
  for (const EngineCoverage &E : R.Engines) {
    EXPECT_EQ(E.SchedulesChecked, 6u) << E.Engine;
    EXPECT_EQ(E.SchedulesAgreed, 6u) << E.Engine;
    EXPECT_EQ(E.OracleRacySchedules, 5u) << E.Engine;
    EXPECT_EQ(E.DetectedRacySchedules, 5u) << E.Engine;
    EXPECT_DOUBLE_EQ(E.DetectionRate, 1.0) << E.Engine;
  }
}

//===----------------------------------------------------------------------===//
// The per-schedule engine-vs-oracle gate, across workload families, modes,
// sampling rates and worker counts.
//===----------------------------------------------------------------------===//

TEST(ExploreAgreement, AllSixEnginesMatchOracleOnEverySchedule) {
  struct Case {
    const char *Name;
    Trace T;
  };
  std::vector<Case> Cases;
  Cases.push_back({"gen", generateWorkload([] {
                     GenConfig G;
                     G.NumThreads = 4;
                     G.NumLocks = 4;
                     G.NumEvents = 250;
                     G.UnprotectedFraction = 0.08;
                     G.Seed = 31;
                     return G;
                   }())});
  Cases.push_back({"prodcons", generateProducerConsumer(2, 2, 20, 32)});
  Cases.push_back({"forkjoin", generateForkJoin(2, 6, 33, true)});
  Cases.push_back({"pingpong", generatePingPong(3, 2, 15, 34)});
  Cases.push_back({"barrier", generateBarrierRounds(3, 3, 4, 35)});

  const size_t Budget = exploreSchedules(6);
  for (const Case &C : Cases) {
    ASSERT_TRUE(C.T.validate()) << C.Name;
    Workload W = Workload::fromTrace(C.T);
    for (ExploreMode M : {ExploreMode::Random, ExploreMode::Pct}) {
      for (double Rate : {0.15, 1.0}) {
        SCOPED_TRACE(std::string(C.Name) + ", " + exploreModeName(M) +
                     ", rate=" + std::to_string(Rate));
        api::SessionConfig Cfg;
        Cfg.Sampling = api::SamplerKind::Bernoulli;
        Cfg.SamplingRate = Rate;
        Cfg.Seed = 7;
        Cfg.NumWorkers = (M == ExploreMode::Pct) ? 2 : 0;

        ExploreConfig EC;
        EC.Mode = M;
        EC.Seed = 42;
        EC.MaxSchedules = Budget;

        ExploreReport R = api::runExploration(Cfg, W, EC);
        ASSERT_GT(R.SchedulesRun, 0u);
        EXPECT_TRUE(R.AllAgreed);
        for (const EngineCoverage &E : R.Engines) {
          EXPECT_EQ(E.SchedulesChecked, R.SchedulesRun) << E.Engine;
          EXPECT_EQ(E.SchedulesAgreed, E.SchedulesChecked) << E.Engine;
        }
      }
    }
  }
}

TEST(ExploreAgreement, TreeClockLaneIsGatedToReleaseJoinFreeSchedules) {
  api::SessionConfig Cfg;
  Cfg.Sampling = api::SamplerKind::Always;
  Cfg.Engines = {EngineKind::SamplingO, EngineKind::TreeClockFull};

  // Release-stores and acquire-loads: TC is exact, so it is checked on
  // every schedule.
  Workload Atomic = atomicPublishPair();
  ASSERT_FALSE(Atomic.hasReleaseJoins());
  ExploreReport RA = api::runExploration(Cfg, Atomic, exhaustiveAll());
  ASSERT_EQ(RA.Engines.size(), 2u);
  EXPECT_EQ(RA.Engines[1].SchedulesChecked, RA.SchedulesRun);
  EXPECT_EQ(RA.Engines[1].SchedulesAgreed, RA.SchedulesRun);
  EXPECT_EQ(RA.Engines[0].SchedulesChecked, RA.SchedulesRun);
  EXPECT_TRUE(RA.AllAgreed);

  // A release-join: the TC lane still runs, but has no exact reference,
  // so it is never checked (and never counted against agreement).
  Workload Join = atomicPublishPair();
  Join.releaseJoin(1, 0);
  ASSERT_TRUE(Join.hasReleaseJoins());
  ExploreReport RJ = api::runExploration(Cfg, Join, exhaustiveAll());
  ASSERT_GT(RJ.SchedulesRun, 0u);
  EXPECT_EQ(RJ.Engines[1].SchedulesChecked, 0u);
  EXPECT_EQ(RJ.Engines[0].SchedulesChecked, RJ.SchedulesRun);
  EXPECT_TRUE(RJ.AllAgreed);

  // Mutex-only workloads check the TC lane on every schedule.
  Workload Mutex = Workload::fromTrace(generatePingPong(2, 2, 8, 9));
  ASSERT_FALSE(Mutex.hasReleaseJoins());
  ExploreConfig EC;
  EC.Mode = ExploreMode::Random;
  EC.MaxSchedules = exploreSchedules(5);
  ExploreReport RM = api::runExploration(Cfg, Mutex, EC);
  ASSERT_GT(RM.SchedulesRun, 0u);
  EXPECT_EQ(RM.Engines[1].SchedulesChecked, RM.SchedulesRun);
  EXPECT_EQ(RM.Engines[1].SchedulesAgreed, RM.SchedulesRun);
  EXPECT_TRUE(RM.AllAgreed);
}
