//===- tests/EngineAgreementTest.cpp - Online/offline engine agreement ----===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// rt::Runtime and the offline detectors instantiate the same engine cores
/// (EngineCore.h), so they must do the same work on the same execution.
/// Each case replays a generated trace single-threaded through the runtime
/// with RecordTrace on, then runs the matching offline engine over the
/// recorded trace with a MarkedSampler, so both see the runtime's sample
/// set. Every Metrics field must be equal except PoolHits (allocator
/// traffic, which depends on when each implementation allocates), and so
/// must the racy-location counts.
///
/// The recorded trace names shadow cells where the original names
/// variables. A cell shared by two variables is reclaimed online on every
/// owner change, which offline replay cannot see, so each case asserts that
/// its variables map to distinct cells.
///
/// Case counts scale with SAMPLETRACK_FUZZ_CASES, like the differential
/// fuzz harness. The traces declare 2 to 72 threads; they are thread ids
/// only, no OS threads are started.
///
//===----------------------------------------------------------------------===//

#include "RuntimeReplay.h"

#include "sampletrack/SampleTrack.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <unordered_map>

using namespace sampletrack;

namespace sampletrack {
/// Failure messages name each counter instead of dumping bytes.
void PrintTo(const Metrics &M, std::ostream *OS) { *OS << '\n' << M.str(); }
} // namespace sampletrack

namespace {

int fuzzCases(int Default) {
  if (const char *V = std::getenv("SAMPLETRACK_FUZZ_CASES"))
    return std::max(1, std::atoi(V));
  return Default;
}

/// One trace of a shape drawn from the lock, fork/join, barrier and
/// producer/consumer families, declaring 2 to 72 threads.
Trace agreementTrace(SplitMix64 &Rng) {
  uint64_t Seed = Rng.next();
  switch (Rng.nextBelow(4)) {
  case 0: {
    GenConfig C;
    C.NumThreads = 2 + Rng.nextBelow(71);
    C.NumLocks = 1 + Rng.nextBelow(32);
    C.NumVars = 8 + Rng.nextBelow(56);
    C.NumEvents = 500 + Rng.nextBelow(3000);
    C.AccessFraction = 0.2 + Rng.nextDouble() * 0.7;
    C.MeanBurst = 1.0 + Rng.nextBelow(6);
    C.UnprotectedFraction = Rng.nextDouble() * 0.3;
    C.Seed = Seed;
    return generateWorkload(C);
  }
  case 1:
    return generateForkJoin(1 + static_cast<unsigned>(Rng.nextBelow(5)),
                            1 + Rng.nextBelow(8), Seed, Rng.nextBool(0.5));
  case 2:
    return generateBarrierRounds(2 + Rng.nextBelow(71), 1 + Rng.nextBelow(6),
                                 1 + Rng.nextBelow(4), Seed);
  default:
    return generateProducerConsumer(1 + Rng.nextBelow(36),
                                    1 + Rng.nextBelow(36),
                                    1 + Rng.nextBelow(20), Seed);
  }
}

EngineKind offlineKind(rt::Mode M) {
  switch (M) {
  case rt::Mode::FT:
    return EngineKind::FastTrack;
  case rt::Mode::ST:
    return EngineKind::SamplingNaive;
  case rt::Mode::SU:
    return EngineKind::SamplingU;
  default:
    return EngineKind::SamplingO;
  }
}

/// Replays \p T through a runtime in mode \p M, runs the offline engine on
/// the recording, and compares their work.
void expectAgreement(const Trace &T, rt::Mode M, double Rate, uint64_t Seed) {
  SCOPED_TRACE(::testing::Message()
               << rt::modeName(M) << " rate=" << Rate << " seed=" << Seed
               << " threads=" << T.numThreads() << " events=" << T.size());
  rt::Config C;
  C.AnalysisMode = M;
  C.SamplingRate = Rate;
  C.Seed = Seed;
  C.MaxThreads = T.numThreads();
  C.RecordTrace = true;
  rt::Runtime Rt(C);
  test::replayThroughHooks(Rt, T);
  Trace Rec = Rt.recordedTrace();
  ASSERT_EQ(Rec.size(), T.size()) << "single-threaded replay records all";

  std::unordered_map<VarId, VarId> VarOfCell;
  for (size_t I = 0; I < T.size(); ++I) {
    if (!isAccess(T[I].Kind))
      continue;
    auto [It, New] = VarOfCell.emplace(Rec[I].Target, T[I].Target);
    ASSERT_EQ(It->second, T[I].Target)
        << "variables " << It->second << " and " << T[I].Target
        << " share shadow cell " << Rec[I].Target;
  }

  std::unique_ptr<Detector> D = createDetector(offlineKind(M), C.MaxThreads);
  std::vector<uint8_t> Marks(Rec.size());
  for (size_t I = 0; I < Rec.size(); ++I)
    Marks[I] = Rec[I].Marked ? 1 : 0;
  D->processBatch(Rec.events(), Marks);

  Metrics Online = Rt.aggregatedMetrics();
  Metrics Offline = D->metrics();
  Online.PoolHits = Offline.PoolHits = 0;
  EXPECT_EQ(Online, Offline);
  EXPECT_EQ(Rt.racyLocationCount(), D->racyLocations().size());
}

} // namespace

TEST(EngineAgreement, RuntimeMatchesOfflineEngineOnRecordedTrace) {
  SplitMix64 Rng(2025);
  const rt::Mode Modes[] = {rt::Mode::FT, rt::Mode::ST, rt::Mode::SU,
                            rt::Mode::SO};
  const double Rates[] = {0.05, 0.3, 1.0};
  for (int Case = 0, N = fuzzCases(24); Case < N; ++Case) {
    Trace T = agreementTrace(Rng);
    ASSERT_GE(T.numThreads(), 2u);
    ASSERT_LE(T.numThreads(), 72u);
    double Rate = Rates[Rng.nextBelow(3)];
    uint64_t Seed = Rng.next();
    for (rt::Mode M : Modes) {
      expectAgreement(T, M, Rate, Seed);
      if (::testing::Test::HasFatalFailure())
        return;
    }
  }
}

// The two cases that first showed the implementations apart: FT and ST
// acquires of locks no one has released yet (a bottom join offline, once
// skipped online), and SO's fork and join (two whole-clock operations
// offline, once one online).
TEST(EngineAgreement, NeverReleasedLocksAndForkJoin) {
  GenConfig G;
  G.NumThreads = 8;
  G.NumLocks = 32;
  G.NumEvents = 20000;
  G.Seed = 41;
  Trace Lock = generateWorkload(G);
  Trace ForkJoin = generateForkJoin(2, 50, 3, /*UseProgressLock=*/true);
  for (rt::Mode M :
       {rt::Mode::FT, rt::Mode::ST, rt::Mode::SU, rt::Mode::SO}) {
    expectAgreement(Lock, M, 0.3, 7);
    expectAgreement(ForkJoin, M, 0.3, 7);
  }
}
