//===- tests/RecordReplayTest.cpp - Online/offline cross-validation --------==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Integration tests that close the loop between the two halves of the
/// system: the online runtime records its execution as an offline trace
/// (with the exact sample set it used), and the offline engines replay it.
/// Well-synchronized executions must replay race-free; seeded races must
/// replay as races at the same locations.
///
//===----------------------------------------------------------------------===//

#include "sampletrack/SampleTrack.h"

#include <gtest/gtest.h>

#include <thread>

using namespace sampletrack;
using namespace sampletrack::rt;

namespace {

Config recordingConfig(Mode M, double Rate = 1.0) {
  Config C;
  C.AnalysisMode = M;
  C.SamplingRate = Rate;
  C.MaxThreads = 8;
  C.RecordTrace = true;
  C.Seed = 11;
  return C;
}

} // namespace

TEST(RecordReplay, RecordedTraceIsWellFormed) {
  Runtime Rt(recordingConfig(Mode::FT));
  Mutex L1(Rt), L2(Rt);
  uint64_t A = 0, B = 0;
  ThreadId T1 = Rt.registerThread();
  ThreadId T2 = Rt.registerThread();
  Rt.onFork(0, T1);
  Rt.onFork(0, T2);
  auto Work = [&](ThreadId T) {
    for (int I = 0; I < 100; ++I) {
      L1.lock(T);
      Rt.onWrite(T, reinterpret_cast<uint64_t>(&A));
      A++;
      L1.unlock(T);
      L2.lock(T);
      Rt.onRead(T, reinterpret_cast<uint64_t>(&B));
      L2.unlock(T);
    }
  };
  std::thread W1([&] { Work(T1); });
  std::thread W2([&] { Work(T2); });
  W1.join();
  W2.join();
  Rt.onJoin(0, T1);
  Rt.onJoin(0, T2);

  Trace T = Rt.recordedTrace();
  std::string Err;
  EXPECT_TRUE(T.validate(&Err)) << Err;
  EXPECT_EQ(T.countKind(OpKind::Acquire), 400u);
  EXPECT_EQ(T.countKind(OpKind::Release), 400u);
  EXPECT_EQ(T.countKind(OpKind::Fork), 2u);
  EXPECT_EQ(T.countKind(OpKind::Join), 2u);
}

TEST(RecordReplay, AtomicsRecordTheirOwnKinds) {
  // Every recording runtime (ET and the four engines) keeps an
  // acquire-load's kind; the engines process it as an acquire.
  for (Mode M : {Mode::ET, Mode::FT, Mode::ST, Mode::SU, Mode::SO}) {
    Runtime Rt(recordingConfig(M));
    AtomicFlag Flag(Rt);
    Flag.store(0, 1);
    EXPECT_EQ(Flag.load(0), 1u);
    Trace T = Rt.recordedTrace();
    ASSERT_EQ(T.size(), 2u) << modeName(M);
    EXPECT_EQ(T[0], Event(0, OpKind::ReleaseStore, Flag.id()))
        << modeName(M) << " recorded " << T[0].str();
    EXPECT_EQ(T[1], Event(0, OpKind::AcquireLoad, Flag.id()))
        << modeName(M) << " recorded " << T[1].str();
  }
}

TEST(RecordReplay, WellSynchronizedReplayIsRaceFree) {
  for (Mode M : {Mode::FT, Mode::SO}) {
    Runtime Rt(recordingConfig(M, 0.8));
    Mutex Lock(Rt);
    uint64_t Counter = 0;
    constexpr size_t Workers = 4;
    std::vector<ThreadId> Tids;
    for (size_t W = 0; W < Workers; ++W) {
      ThreadId T = Rt.registerThread();
      Rt.onFork(0, T);
      Tids.push_back(T);
    }
    std::vector<std::thread> Ws;
    for (size_t W = 0; W < Workers; ++W)
      Ws.emplace_back([&, W] {
        for (int I = 0; I < 200; ++I) {
          Lock.lock(Tids[W]);
          Rt.onRead(Tids[W], reinterpret_cast<uint64_t>(&Counter));
          uint64_t V = Counter;
          Rt.onWrite(Tids[W], reinterpret_cast<uint64_t>(&Counter));
          Counter = V + 1;
          Lock.unlock(Tids[W]);
        }
      });
    for (size_t W = 0; W < Workers; ++W) {
      Ws[W].join();
      Rt.onJoin(0, Tids[W]);
    }
    EXPECT_EQ(Rt.raceCount(), 0u);

    // Offline replay with the recorded sample set must also be race-free,
    // under every offline engine.
    Trace T = Rt.recordedTrace();
    ASSERT_TRUE(T.validate());
    for (EngineKind K : {EngineKind::Djit, EngineKind::FastTrack,
                         EngineKind::SamplingNaive, EngineKind::SamplingU,
                         EngineKind::SamplingO}) {
      std::unique_ptr<Detector> D = createDetector(K, T.numThreads());
      MarkedSampler S;
      api::AnalysisSession().addDetector(*D).withSampler(S).run(T);
      EXPECT_EQ(D->metrics().RacesDeclared, 0u)
          << engineKindName(K) << " found a phantom race in the replay of "
          << modeName(M);
    }
  }
}

TEST(RecordReplay, SeededRaceReplaysAtSameLocation) {
  Runtime Rt(recordingConfig(Mode::SO, 1.0));
  uint64_t Shared = 0;
  ThreadId A = Rt.registerThread();
  ThreadId B = Rt.registerThread();
  Rt.onFork(0, A);
  Rt.onFork(0, B);
  std::thread Ta([&] {
    Rt.onWrite(A, reinterpret_cast<uint64_t>(&Shared));
    reinterpret_cast<std::atomic<uint64_t> &>(Shared).fetch_add(1);
  });
  std::thread Tb([&] {
    Rt.onWrite(B, reinterpret_cast<uint64_t>(&Shared));
    reinterpret_cast<std::atomic<uint64_t> &>(Shared).fetch_add(1);
  });
  Ta.join();
  Tb.join();
  Rt.onJoin(0, A);
  Rt.onJoin(0, B);
  ASSERT_GE(Rt.raceCount(), 1u);

  Trace T = Rt.recordedTrace();
  SamplingOrderedListDetector D(T.numThreads());
  MarkedSampler S;
  api::AnalysisSession().addDetector(D).withSampler(S).run(T);
  ASSERT_EQ(D.racyLocations().size(), 1u);
  // The recorded VarId is the shadow cell of &Shared; the online report
  // used the same cell space, so the location matches by construction.
  EXPECT_EQ(Rt.racyLocationCount(), D.racyLocations().size());
}

TEST(RecordReplay, RecordedWorkloadProgramsAreExplorable) {
  // Close the third loop: the online OLTP simulator records one execution
  // (workload::recordPrograms forces RecordTrace on), the projection turns
  // it into per-thread schedule-point programs, and the explorer replays
  // *other* interleavings of the same programs through the offline
  // engines, cross-checked against the oracle on every schedule.
  workload::BenchmarkSpec Spec = *workload::findBenchmark("smallbank");
  Spec.RowsPerTable = 16;
  Spec.OpsMin = 2;
  Spec.OpsMax = 4;
  Spec.UnprotectedProb = 0.2; // Seed real races so exploration finds some.

  workload::RunConfig Config;
  Config.NumClients = 2;
  Config.RequestsPerClient = 4;
  Config.Rt = recordingConfig(Mode::SO, 1.0);
  Config.Seed = 5;

  workload::RunStats Stats;
  explore::Workload W = workload::recordPrograms(Spec, Config, &Stats);
  ASSERT_TRUE(Stats.Recorded.validate());
  ASSERT_EQ(W.numOps(), Stats.Recorded.size());
  std::string Err;
  ASSERT_TRUE(W.validate(&Err)) << Err;

  // The recorded interleaving itself is reachable: its tid sequence
  // materializes back to the recorded trace.
  std::vector<ThreadId> Identity;
  for (const Event &E : Stats.Recorded)
    Identity.push_back(E.Tid);
  Trace Back = explore::Scheduler::materialize(W, Identity);
  ASSERT_EQ(Back.size(), Stats.Recorded.size());
  for (size_t I = 0; I < Back.size(); ++I)
    EXPECT_EQ(Back[I].Target, Stats.Recorded[I].Target);

  // Re-scheduled neighbors analyze clean: engines match the oracle on
  // every explored interleaving of the recorded programs.
  api::SessionConfig Cfg;
  Cfg.Engines = {EngineKind::Djit, EngineKind::SamplingNaive,
                 EngineKind::SamplingO};
  Cfg.Sampling = api::SamplerKind::Bernoulli;
  Cfg.SamplingRate = 0.5;
  Cfg.Seed = 13;

  explore::ExploreConfig EC;
  EC.Mode = explore::ExploreMode::Random;
  EC.MaxSchedules = 4;
  EC.Seed = 99;
  explore::ExploreReport R = api::runExploration(Cfg, W, EC);
  ASSERT_GT(R.SchedulesRun, 0u);
  EXPECT_TRUE(R.AllAgreed);
  EXPECT_EQ(R.EventsAnalyzed, R.SchedulesRun * W.numOps());
}

TEST(RecordReplay, RecordingRoundTripsThroughTraceFiles) {
  Runtime Rt(recordingConfig(Mode::SU, 0.3));
  Mutex Lock(Rt);
  uint64_t X = 0;
  ThreadId T1 = Rt.registerThread();
  Rt.onFork(0, T1);
  for (int I = 0; I < 500; ++I) {
    Lock.lock(T1);
    Rt.onWrite(T1, reinterpret_cast<uint64_t>(&X));
    X++;
    Lock.unlock(T1);
  }
  Rt.onJoin(0, T1);

  Trace T = Rt.recordedTrace();
  ASSERT_GT(T.size(), 1000u);
  std::string Path = "/tmp/sampletrack_record_replay.bin";
  ASSERT_TRUE(writeTraceFileBinary(Path, T));
  Trace Back;
  std::string Err;
  ASSERT_TRUE(readTraceFile(Path, Back, &Err)) << Err;
  ASSERT_EQ(T.size(), Back.size());
  for (size_t I = 0; I < T.size(); ++I)
    ASSERT_EQ(T[I], Back[I]);
  std::remove(Path.c_str());
}
