//===- tests/DifferentialFuzzTest.cpp - Randomized differential testing ----==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Heavier randomized differential testing than the targeted equivalence
/// suites: many random trace shapes (including fork/join trees, atomics and
/// degenerate shapes) x many samplers x all engines, checking the Lemma 7/8
/// verdict equality and the oracle everywhere, plus the session-level
/// harness: an api::AnalysisSession fan-out (sequential or with parallel
/// lane workers) must match standalone per-engine runs lane-by-lane.
/// Complements the directed tests with breadth.
///
/// Case counts scale with the SAMPLETRACK_FUZZ_CASES environment variable
/// (the `ctest -L differential` label group): CI smoke keeps the default,
/// nightly sets it high to go deep.
///
//===----------------------------------------------------------------------===//

#include "sampletrack/api/AnalysisSession.h"
#include "sampletrack/detectors/DetectorFactory.h"
#include "sampletrack/detectors/HBClosureOracle.h"
#include "sampletrack/explore/Scheduler.h"
#include "sampletrack/sampling/PeriodSamplers.h"
#include "sampletrack/support/simd/ClockKernels.h"
#include "sampletrack/trace/TraceGen.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace sampletrack;

namespace {

/// Case count for one fuzz loop: \p Default, unless SAMPLETRACK_FUZZ_CASES
/// overrides it (nightly CI runs the same binaries much deeper).
int fuzzCases(int Default) {
  if (const char *V = std::getenv("SAMPLETRACK_FUZZ_CASES"))
    return std::max(1, std::atoi(V));
  return Default;
}

/// Random trace with a shape drawn from several families, some of them
/// degenerate on purpose.
Trace randomTrace(SplitMix64 &Rng) {
  switch (Rng.nextBelow(8)) {
  case 0: {
    GenConfig C;
    C.NumThreads = 2 + Rng.nextBelow(6);
    C.NumLocks = 1 + Rng.nextBelow(8);
    C.NumVars = 8 + Rng.nextBelow(64);
    C.NumEvents = 100 + Rng.nextBelow(700);
    C.AccessFraction = 0.1 + Rng.nextDouble() * 0.8;
    C.UnprotectedFraction = Rng.nextDouble() * 0.2;
    C.EmptyCsFraction = Rng.nextDouble() * 0.6;
    C.SelfReacquireBias = Rng.nextDouble();
    C.MaxNesting = 1 + Rng.nextBelow(3);
    C.MeanBurst = 1 + Rng.nextBelow(12);
    C.Seed = Rng.next();
    return generateWorkload(C);
  }
  case 1:
    return generateProducerConsumer(1 + Rng.nextBelow(3),
                                    1 + Rng.nextBelow(3),
                                    10 + Rng.nextBelow(60), Rng.next());
  case 2:
    return generateForkJoin(1 + Rng.nextBelow(3), 2 + Rng.nextBelow(12),
                            Rng.next(), Rng.nextBool(0.5));
  case 3:
    return generateBarrierRounds(2 + Rng.nextBelow(4), 2 + Rng.nextBelow(8),
                                 2 + Rng.nextBelow(8), Rng.next());
  case 4:
    return generateLockBarrierRounds(2 + Rng.nextBelow(4),
                                     2 + Rng.nextBelow(8),
                                     2 + Rng.nextBelow(8), Rng.next());
  case 5:
    return generatePipeline(1 + Rng.nextBelow(3), 1 + Rng.nextBelow(3),
                            10 + Rng.nextBelow(80), Rng.next());
  case 6:
    return generatePingPong(2 + Rng.nextBelow(4), 1 + Rng.nextBelow(4),
                            10 + Rng.nextBelow(60), Rng.next());
  default: {
    // Degenerate: single thread, or one variable hammered by everyone.
    Trace T;
    if (Rng.nextBool(0.5)) {
      for (int I = 0; I < 60; ++I) {
        T.acquire(0, 0);
        T.write(0, 0);
        T.release(0, 0);
      }
    } else {
      size_t Threads = 2 + Rng.nextBelow(4);
      for (int I = 0; I < 120; ++I) {
        ThreadId Tid = static_cast<ThreadId>(Rng.nextBelow(Threads));
        if (Rng.nextBool(0.7))
          T.write(Tid, 0);
        else
          T.read(Tid, 0);
      }
    }
    return T;
  }
  }
}

/// A random trace whose non-mutex synchronization is release-stores and
/// acquire-loads only (no release-join), mixed with accesses and whole
/// critical sections: the shapes on which the tree-clock ablation is exact
/// although they carry atomics. Locks are sync ids [0, Locks), atomic
/// objects the ids after them.
Trace releaseStoreTrace(SplitMix64 &Rng) {
  size_t Threads = 2 + Rng.nextBelow(7);
  size_t Locks = 1 + Rng.nextBelow(3);
  size_t Atomics = 1 + Rng.nextBelow(4);
  size_t Vars = 2 + Rng.nextBelow(24);
  size_t Steps = 40 + Rng.nextBelow(400);
  double SyncShare = 0.1 + Rng.nextDouble() * 0.5;
  Trace T;
  auto Access = [&](ThreadId Tid) {
    VarId X = static_cast<VarId>(Rng.nextBelow(Vars));
    if (Rng.nextBool(0.5))
      T.write(Tid, X);
    else
      T.read(Tid, X);
  };
  for (size_t Step = 0; Step < Steps; ++Step) {
    ThreadId Tid = static_cast<ThreadId>(Rng.nextBelow(Threads));
    if (!Rng.nextBool(SyncShare)) {
      Access(Tid);
      continue;
    }
    SyncId Atomic = static_cast<SyncId>(Locks + Rng.nextBelow(Atomics));
    switch (Rng.nextBelow(3)) {
    case 0:
      T.releaseStore(Tid, Atomic);
      break;
    case 1:
      T.acquireLoad(Tid, Atomic);
      break;
    default: {
      SyncId L = static_cast<SyncId>(Rng.nextBelow(Locks));
      T.acquire(Tid, L);
      for (uint64_t I = Rng.nextBelow(3); I > 0; --I)
        Access(Tid);
      T.release(Tid, L);
      break;
    }
    }
  }
  return T;
}

/// A generated workload with 9..72 threads, so clock passes reach the
/// dispatched SIMD kernels (randomTrace stays mostly under their 8-wide
/// threshold). \p Threads = 0 draws the width.
Trace wideTrace(SplitMix64 &Rng, size_t Threads = 0) {
  GenConfig C;
  C.NumThreads = Threads ? Threads : 9 + Rng.nextBelow(64);
  C.NumLocks = 1 + Rng.nextBelow(16);
  C.NumVars = 16 + Rng.nextBelow(128);
  C.NumEvents = 400 + Rng.nextBelow(1200);
  C.AccessFraction = 0.1 + Rng.nextDouble() * 0.8;
  C.UnprotectedFraction = Rng.nextDouble() * 0.2;
  C.EmptyCsFraction = Rng.nextDouble() * 0.6;
  C.SelfReacquireBias = Rng.nextDouble();
  C.MaxNesting = 1 + Rng.nextBelow(3);
  C.MeanBurst = 1 + Rng.nextBelow(12);
  C.Seed = Rng.next();
  return generateWorkload(C);
}

/// Marks T using a randomly chosen sampler family.
void randomMark(Trace &T, SplitMix64 &Rng) {
  uint64_t Seed = Rng.next();
  std::unique_ptr<Sampler> S;
  switch (Rng.nextBelow(5)) {
  case 0:
    S = std::make_unique<BernoulliSampler>(Rng.nextDouble(), Seed);
    break;
  case 1:
    S = std::make_unique<PeriodicSampler>(1 + Rng.nextBelow(17));
    break;
  case 2:
    S = std::make_unique<PacerSampler>(0.1 + Rng.nextDouble() * 0.8,
                                       1 + Rng.nextBelow(40), Seed);
    break;
  case 3:
    S = std::make_unique<BudgetSampler>(1 + Rng.nextBelow(50),
                                        std::max<size_t>(1, T.size() / 2),
                                        Seed);
    break;
  default:
    S = std::make_unique<ColdRegionSampler>(1 + Rng.nextBelow(8), 0.01,
                                            Seed);
    break;
  }
  for (size_t I = 0; I < T.size(); ++I)
    if (isAccess(T[I].Kind))
      T[I].Marked = S->shouldSample(T[I]);
}

std::vector<size_t> declared(const Trace &T, EngineKind K) {
  std::unique_ptr<Detector> D = createDetector(K, T.numThreads());
  MarkedSampler S;
  api::AnalysisSession().addDetector(*D).withSampler(S).run(T);
  std::vector<size_t> Out;
  for (const RaceReport &R : D->races())
    Out.push_back(R.EventIndex);
  return Out;
}

/// The engine's warehouse view of the trace: signatures, hit counts,
/// exemplars.
triage::TriageSummary declaredSummary(const Trace &T, EngineKind K) {
  std::unique_ptr<Detector> D = createDetector(K, T.numThreads());
  MarkedSampler S;
  api::AnalysisSession().addDetector(*D).withSampler(S).run(T);
  return D->raceSink().summary();
}

/// What the oracle's full declaration list dedups to — the reference the
/// engines' sinks must reproduce signature-by-signature, hit-by-hit.
triage::TriageSummary oracleSummary(const Trace &T,
                                    const std::vector<size_t> &Declared) {
  triage::RaceSink Sink(Declared.size() + 1);
  for (size_t I : Declared)
    Sink.insert(RaceReport{I, T[I].Tid, T[I].var(), T[I].Kind});
  return Sink.summary();
}

} // namespace

TEST(DifferentialFuzz, AllEnginesAgreeOnHundredsOfRandomCases) {
  SplitMix64 Rng(20250613);
  const int Cases = fuzzCases(250);
  for (int Case = 0; Case < Cases; ++Case) {
    Trace T = randomTrace(Rng);
    ASSERT_TRUE(T.validate()) << "case " << Case;
    randomMark(T, Rng);

    HBClosureOracle Oracle(T);
    // Engines warehouse duplicates; dedup the oracle's list identically.
    std::vector<size_t> Declarations =
        Oracle.declaredRaces(/*MarkedOnly=*/true);
    std::vector<size_t> Expected = dedupDeclaredRaces(T, Declarations);
    ASSERT_EQ(Expected, declared(T, EngineKind::SamplingNaive))
        << "ST diverged, case " << Case;
    ASSERT_EQ(Expected, declared(T, EngineKind::SamplingU))
        << "SU diverged, case " << Case;
    ASSERT_EQ(Expected, declared(T, EngineKind::SamplingO))
        << "SO diverged, case " << Case;
    ASSERT_EQ(Expected, declared(T, EngineKind::SamplingONoEpochOpt))
        << "SO-noepoch diverged, case " << Case;
    // TC replaces on a release-join (its conservative fallback), so it is
    // exact only without them.
    if (T.countKind(OpKind::ReleaseJoin) == 0) {
      ASSERT_EQ(Expected, declared(T, EngineKind::TreeClockFull))
          << "TC diverged, case " << Case;
    }
    // Beyond the exemplar events: the whole warehouse view (signatures,
    // hit counts, exemplars) must match what the oracle's declarations
    // dedup to.
    ASSERT_TRUE(oracleSummary(T, Declarations) ==
                declaredSummary(T, EngineKind::SamplingO))
        << "SO warehouse summary diverged from oracle, case " << Case;
  }
}

TEST(DifferentialFuzz, TreeClockMatchesOracleWithReleaseStoresAndLoads) {
  // TC replaces only where a release-join joins; release-stores replace and
  // acquire-loads join in every engine, so on these traces TC must declare
  // exactly the oracle's sampled races, as SO does.
  SplitMix64 Rng(777001);
  const int Cases = fuzzCases(250);
  int Racy = 0;
  for (int Case = 0; Case < Cases; ++Case) {
    Trace T = releaseStoreTrace(Rng);
    ASSERT_TRUE(T.validate()) << "case " << Case;
    ASSERT_EQ(T.countKind(OpKind::ReleaseJoin), 0u);
    randomMark(T, Rng);
    HBClosureOracle Oracle(T);
    std::vector<size_t> Expected =
        dedupDeclaredRaces(T, Oracle.declaredRaces(/*MarkedOnly=*/true));
    ASSERT_EQ(Expected, declared(T, EngineKind::TreeClockFull))
        << "TC diverged, case " << Case;
    ASSERT_EQ(Expected, declared(T, EngineKind::SamplingO))
        << "SO diverged, case " << Case;
    Racy += !Expected.empty();
  }
  // Not vacuous: most cases declare races for the engines to match.
  EXPECT_GT(Racy, Cases / 2);
}

TEST(DifferentialFuzz, FullEnginesMatchOracleOnRandomCases) {
  SplitMix64 Rng(424242);
  const int Cases = fuzzCases(120);
  for (int Case = 0; Case < Cases; ++Case) {
    Trace T = randomTrace(Rng);
    HBClosureOracle Oracle(T);
    ASSERT_EQ(dedupDeclaredRaces(T, Oracle.declaredRaces(/*MarkedOnly=*/false)),
              declared(T, EngineKind::Djit))
        << "Djit+ diverged, case " << Case;
  }
}

//===----------------------------------------------------------------------===//
// Session-level differential harness: a K-lane AnalysisSession (sequential
// or parallel) vs K standalone single-engine runs over the same seed.
//===----------------------------------------------------------------------===//

//===----------------------------------------------------------------------===//
// The worker axis: the parallel lane workers must be invisible — every
// engine, at every sampling rate, batch geometry and worker count, must
// produce the result of the sequential reference session, bit-for-bit
// (modulo timing). That includes PoolHits: each lane owns its snapshot
// pool, so its free-list hits depend only on the lane's events.
//===----------------------------------------------------------------------===//

TEST(DifferentialFuzz, ParallelPathsMatchSequential) {
  SplitMix64 Rng(31415926535ull);
  const std::vector<EngineKind> Kinds = allEngineKinds();
  const double Rates[] = {0.003, 0.03, 1.0};
  const size_t WorkerAxis[] = {0, 1, 2, 8};
  const int Cases = fuzzCases(15);
  for (int Case = 0; Case < Cases; ++Case) {
    Trace T = randomTrace(Rng);
    ASSERT_TRUE(T.validate()) << "case " << Case;

    api::SessionConfig Base;
    Base.Engines = Kinds;
    Base.Sampling = api::SamplerKind::Bernoulli;
    Base.SamplingRate = Rates[Case % std::size(Rates)];
    Base.Seed = Rng.next();
    Base.BatchSize = 1 + Rng.nextBelow(300);

    // Reference: sequential.
    api::SessionResult Ref = api::stripTiming(api::AnalysisSession(Base).run(T));
    ASSERT_EQ(Ref.Engines.size(), Kinds.size()) << "case " << Case;

    for (size_t W : WorkerAxis) {
      api::SessionConfig Cfg = Base;
      Cfg.NumWorkers = W;
      api::SessionResult R = api::stripTiming(api::AnalysisSession(Cfg).run(T));
      // Lane-by-lane first (readable failures), then the whole result.
      ASSERT_EQ(R.Engines.size(), Ref.Engines.size());
      for (size_t I = 0; I < R.Engines.size(); ++I) {
        SCOPED_TRACE("workers=" + std::to_string(W) + ", " +
                     std::string(engineKindName(Kinds[I])) + ", case " +
                     std::to_string(Case));
        EXPECT_EQ(R.Engines[I].Races, Ref.Engines[I].Races);
        EXPECT_EQ(R.Engines[I].Stats, Ref.Engines[I].Stats);
        EXPECT_EQ(R.Engines[I].RacesTruncated, Ref.Engines[I].RacesTruncated);
      }
      // The triage axis: the deduplicated signature set (and its hit
      // counts) must be bit-identical across every worker count — the
      // warehouse's stability contract.
      ASSERT_EQ(R.Triage.Entries.size(), Ref.Triage.Entries.size())
          << "workers=" << W << ", case " << Case;
      for (size_t I = 0; I < R.Triage.Entries.size(); ++I)
        EXPECT_TRUE(R.Triage.Entries[I] == Ref.Triage.Entries[I])
            << "workers=" << W << ", case " << Case << ": triage entry " << I
            << " diverged (signature "
            << triage::RaceSignature{R.Triage.Entries[I].Signature}.hex()
            << " vs "
            << triage::RaceSignature{Ref.Triage.Entries[I].Signature}.hex()
            << ")";
      EXPECT_TRUE(R == Ref) << "workers=" << W << ", case " << Case;
    }
  }
}

//===----------------------------------------------------------------------===//
// The schedule axis: every interleaving the explorer emits is just a trace,
// so the worker axis must stay bit-identical on *re-scheduled* executions
// too, not only on the original interleavings the generators produce.
//===----------------------------------------------------------------------===//

TEST(DifferentialFuzz, ExploredSchedulesReplayBitIdenticalAcrossWorkerCounts) {
  SplitMix64 Rng(271828182845ull);
  const std::vector<EngineKind> Kinds = allEngineKinds();
  const double Rates[] = {0.003, 0.03, 1.0};
  const size_t WorkerAxis[] = {0, 1, 2, 8};
  const int Cases = fuzzCases(5);
  for (int Case = 0; Case < Cases; ++Case) {
    Trace Original = randomTrace(Rng);
    ASSERT_TRUE(Original.validate()) << "case " << Case;
    explore::Workload W = explore::Workload::fromTrace(Original);

    // Re-interleave the projected programs: each emitted schedule is a new
    // execution of the same program, fed through the full axis matrix.
    explore::ExploreConfig EC;
    EC.Mode = Case % 2 ? explore::ExploreMode::Pct
                       : explore::ExploreMode::Random;
    EC.Seed = Rng.next();
    EC.MaxSchedules = 3;
    explore::Scheduler Sched(W, EC);
    explore::Schedule Sch;
    while (Sched.next(Sch)) {
      Trace T = explore::Scheduler::materialize(W, Sch.Choices);
      ASSERT_TRUE(T.validate()) << "case " << Case << ", schedule "
                                << Sch.Index;

      api::SessionConfig Base;
      Base.Engines = Kinds;
      Base.Sampling = api::SamplerKind::Bernoulli;
      Base.SamplingRate = Rates[Case % std::size(Rates)];
      Base.Seed = Rng.next();
      Base.BatchSize = 1 + Rng.nextBelow(300);

      api::SessionResult Ref =
          api::stripTiming(api::AnalysisSession(Base).run(T));

      for (size_t Workers : WorkerAxis) {
        api::SessionConfig Cfg = Base;
        Cfg.NumWorkers = Workers;
        api::SessionResult R =
            api::stripTiming(api::AnalysisSession(Cfg).run(T));
        EXPECT_TRUE(R == Ref) << "case " << Case << ", schedule " << Sch.Index
                              << ", workers=" << Workers;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// The profiling axis: SessionConfig::ProfilingEnabled may add spans to the
// result but must never change it — every analysis field must be
// bit-identical with profiling on vs off, across worker counts.
//===----------------------------------------------------------------------===//

TEST(DifferentialFuzz, ProfilingOnOffBitIdentical) {
  SplitMix64 Rng(16180339887ull);
  const std::vector<EngineKind> Kinds = allEngineKinds();
  const double Rates[] = {0.003, 0.03, 1.0};
  const int Cases = fuzzCases(15);
  for (int Case = 0; Case < Cases; ++Case) {
    Trace T = randomTrace(Rng);
    ASSERT_TRUE(T.validate()) << "case " << Case;

    api::SessionConfig Base;
    Base.Engines = Kinds;
    Base.Sampling = api::SamplerKind::Bernoulli;
    Base.SamplingRate = Rates[Case % std::size(Rates)];
    Base.Seed = Rng.next();
    Base.BatchSize = 1 + Rng.nextBelow(300);

    for (size_t Workers : {size_t(0), size_t(2)}) {
      api::SessionConfig Off = Base;
      Off.NumWorkers = Workers;
      api::SessionConfig On = Off;
      On.ProfilingEnabled = true;

      api::SessionResult ROff =
          api::stripTiming(api::AnalysisSession(Off).run(T));
      api::SessionResult ROn =
          api::stripTiming(api::AnalysisSession(On).run(T));
      ASSERT_TRUE(ROff.Profile.empty());
      EXPECT_FALSE(ROn.Profile.empty());
      // The profile is the one field profiling may add; everything the
      // analysis computed must be untouched by the measurement.
      ROn.Profile = prof::Report();
      EXPECT_TRUE(ROn == ROff) << "case " << Case << ", workers=" << Workers;
    }
  }
}

TEST(DifferentialFuzz, SessionFanOutMatchesStandaloneRunsLaneByLane) {
  SplitMix64 Rng(987651234);
  const std::vector<EngineKind> Kinds = allEngineKinds();
  // The paper's sweep rates: 0.3%, 3%, and 100% (where Bernoulli degrades
  // to always-sample so full detection is exercised too).
  const double Rates[] = {0.003, 0.03, 1.0};
  const int Cases = fuzzCases(45);
  for (int Case = 0; Case < Cases; ++Case) {
    Trace T = randomTrace(Rng);
    ASSERT_TRUE(T.validate()) << "case " << Case;
    const uint64_t Seed = Rng.next();
    const double Rate = Rates[Case % std::size(Rates)];

    api::SessionConfig Cfg;
    Cfg.Engines = Kinds;
    Cfg.Sampling = api::SamplerKind::Bernoulli;
    Cfg.SamplingRate = Rate;
    Cfg.Seed = Seed;
    // Rotate batch geometry and worker count so span boundaries and the
    // parallel hand-off both get fuzzed, not just the defaults.
    Cfg.BatchSize = 1 + Rng.nextBelow(300);
    Cfg.NumWorkers = Case % 4;
    api::SessionResult Fan = api::AnalysisSession(Cfg).run(T);

    ASSERT_EQ(Fan.Engines.size(), Kinds.size()) << "case " << Case;
    EXPECT_EQ(Fan.EventsProcessed, T.size()) << "case " << Case;

    for (size_t I = 0; I < Kinds.size(); ++I) {
      SCOPED_TRACE(std::string(engineKindName(Kinds[I])) + ", case " +
                   std::to_string(Case));
      // Standalone reference: a one-lane session over a fresh detector and
      // a fresh decision stream from the same seed (rate >= 1 degrades to
      // always, as the session does).
      std::unique_ptr<Detector> D = createDetector(Kinds[I], T.numThreads());
      std::unique_ptr<Sampler> S;
      if (Rate >= 1.0)
        S = std::make_unique<AlwaysSampler>();
      else
        S = std::make_unique<BernoulliSampler>(Rate, Seed);
      api::SessionResult R =
          api::AnalysisSession().addDetector(*D).withSampler(*S).run(T);
      const api::EngineRun &Alone = R.Engines.front();

      const api::EngineRun &Lane = Fan.Engines[I];
      EXPECT_EQ(Lane.Engine, Alone.Engine);
      EXPECT_EQ(Lane.SampleSize, Alone.SampleSize);
      EXPECT_EQ(Lane.Stats, Alone.Stats);
      EXPECT_EQ(Lane.NumRaces, Alone.NumRaces);
      EXPECT_EQ(Lane.NumRacyLocations, Alone.NumRacyLocations);
      EXPECT_EQ(Lane.Races, D->races());
      EXPECT_EQ(Lane.RacesTruncated, Alone.RacesTruncated);
    }
  }
}

//===----------------------------------------------------------------------===//
// The SIMD tier axis: the clock kernels (AVX-512/AVX2/NEON vs scalar) sit
// under every detector's joins, comparisons and snapshots, so whole-session
// results must be bit-identical whichever tier executes — across the
// worker axis too, since it reshuffles which threads run the kernels. This
// is the differential proof the vectorized tiers rest on; CI's
// force-scalar leg runs the same binary with the scalar tier pinned.
//===----------------------------------------------------------------------===//

TEST(DifferentialFuzz, SimdTiersBitIdenticalToScalarAcrossSessions) {
  std::vector<simd::Tier> Tiers = simd::supportedTiers();
  Tiers.pop_back(); // Scalar, the reference.
  simd::Tier Native = simd::activeTier();
  std::string Names;
  for (simd::Tier T : Tiers)
    Names += std::string(" ") + simd::tierName(T);
  std::printf("[ tiers    ] SimdTiersBitIdenticalToScalarAcrossSessions: "
              "scalar vs%s\n",
              Tiers.empty() ? " (none)" : Names.c_str());
  if (Tiers.empty())
    GTEST_SKIP() << "host supports no SIMD tier; the scalar tier is "
                    "trivially identical to itself";

  SplitMix64 Rng(86028157ull);
  const std::vector<EngineKind> Kinds = allEngineKinds();
  const double Rates[] = {0.003, 0.03, 1.0};
  const size_t WorkerAxis[] = {0, 2};
  const int Cases = fuzzCases(12);
  for (int Case = 0; Case < Cases; ++Case) {
    // Even cases are wide enough to reach the kernels: the first at T = 64
    // (the benchmark's width), the second at a T with a masked 8-lane tail.
    Trace T;
    if (Case % 2)
      T = randomTrace(Rng);
    else if (Case == 0)
      T = wideTrace(Rng, 64);
    else if (Case == 2)
      T = wideTrace(Rng, 9 + 8 * Rng.nextBelow(8) + Rng.nextBelow(7));
    else
      T = wideTrace(Rng);
    ASSERT_TRUE(T.validate()) << "case " << Case;

    api::SessionConfig Base;
    Base.Engines = Kinds;
    Base.Sampling = api::SamplerKind::Bernoulli;
    Base.SamplingRate = Rates[Case % std::size(Rates)];
    Base.Seed = Rng.next();
    Base.BatchSize = 1 + Rng.nextBelow(300);

    for (size_t W : WorkerAxis) {
      api::SessionConfig Cfg = Base;
      Cfg.NumWorkers = W;

      // Scalar reference. forceTier flips only between runs: no session
      // is live while the active table changes.
      ASSERT_TRUE(simd::forceTier(simd::Tier::Scalar));
      api::SessionResult Ref =
          api::stripTiming(api::AnalysisSession(Cfg).run(T));

      for (simd::Tier Tier : Tiers) {
        ASSERT_TRUE(simd::forceTier(Tier));
        api::SessionResult R =
            api::stripTiming(api::AnalysisSession(Cfg).run(T));
        ASSERT_EQ(R.Engines.size(), Ref.Engines.size());
        for (size_t I = 0; I < R.Engines.size(); ++I) {
          SCOPED_TRACE(std::string(simd::tierName(Tier)) + ", workers=" +
                       std::to_string(W) + ", " +
                       std::string(engineKindName(Kinds[I])) + ", case " +
                       std::to_string(Case));
          EXPECT_EQ(R.Engines[I].Races, Ref.Engines[I].Races);
          EXPECT_EQ(R.Engines[I].Stats, Ref.Engines[I].Stats);
        }
        EXPECT_TRUE(R == Ref) << simd::tierName(Tier) << ", workers=" << W
                              << ", case " << Case;
      }
      simd::forceTier(Native);
    }
  }
}
