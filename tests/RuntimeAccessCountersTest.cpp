//===- tests/RuntimeAccessCountersTest.cpp - Pinned access counters ------===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the access-path counters and race results of rt::Runtime in FT, ST,
/// SU and SO on seeded access-heavy traces, replayed single-threaded through
/// the hooks. A change to how shadow cells store their access histories
/// (FastTrack's read vector clock, Algorithm 2's Cr_x/Cw_x) must leave every
/// pinned race result and RaceChecks count bit-identical; FullClockOps
/// moves only by the O(T) history work the change adds or removes.
///
/// Metrics::PoolHits is deliberately not pinned: the access histories are
/// per-cell buffers that are never shared, so FT, ST and SU pool nothing
/// and only SO's copy-on-write lists can hit the pool. That counter
/// measures allocator traffic, not analysis work.
///
//===----------------------------------------------------------------------===//

#include "RuntimeReplay.h"

#include "sampletrack/SampleTrack.h"

#include <gtest/gtest.h>

using namespace sampletrack;

namespace {

/// 8 threads, ~90% accesses, half of them unprotected on 2 racy variables,
/// with threads interleaved step by step: 3% sampling still catches races.
Trace accessHeavyTrace() {
  GenConfig G;
  G.NumThreads = 8;
  G.NumLocks = 32;
  G.NumVars = 2048;
  G.NumEvents = 80000;
  G.AccessFraction = 0.9;
  G.LockZipfTheta = 0.8;
  G.MeanBurst = 1.0;
  G.UnprotectedFraction = 0.5;
  G.RacyVars = 2;
  G.Seed = 41;
  return generateWorkload(G);
}

struct Pinned {
  uint64_t RaceChecks, FullClockOps, SampledAccesses, RacesDeclared,
      RaceCount, RacyLocations, DistinctRaces;
};

struct Case {
  rt::Mode Mode;
  double Rate;
  /// The default table, or so few cells that colliding addresses evict
  /// each other's histories all the time.
  size_t ShadowCells;
  Pinned Expected;
};

void PrintTo(const Case &C, std::ostream *OS) {
  *OS << rt::modeName(C.Mode) << " rate=" << C.Rate
      << " cells=" << C.ShadowCells;
}

class RuntimeAccessCounters : public ::testing::TestWithParam<Case> {};

} // namespace

TEST_P(RuntimeAccessCounters, ReplayMatchesPinnedCounters) {
  static const Trace T = accessHeavyTrace();
  const Case &C = GetParam();
  rt::Config Cfg;
  Cfg.AnalysisMode = C.Mode;
  Cfg.SamplingRate = C.Rate;
  Cfg.Seed = 7;
  Cfg.MaxThreads = T.numThreads();
  Cfg.ShadowCells = C.ShadowCells;
  rt::Runtime Rt(Cfg);
  test::replayThroughHooks(Rt, T);

  Metrics M = Rt.aggregatedMetrics();
  const Pinned &P = C.Expected;
  EXPECT_EQ(M.RaceChecks, P.RaceChecks);
  EXPECT_EQ(M.FullClockOps, P.FullClockOps);
  EXPECT_EQ(M.SampledAccesses, P.SampledAccesses);
  EXPECT_EQ(M.RacesDeclared, P.RacesDeclared);
  EXPECT_EQ(Rt.raceCount(), P.RaceCount);
  EXPECT_EQ(Rt.racyLocationCount(), P.RacyLocations);
  EXPECT_EQ(Rt.distinctRaceCount(), P.DistinctRaces);
}

// Constants captured before the shadow histories moved into flat per-cell
// buffers. FT ignores the sampling rate, so it runs once per table size.
// ST/SU/SO's FullClockOps changed when Algorithm 2's histories became
// epochs: each sampled write no longer snapshots a clock into Cw_x, and
// each read promotion and each write checked against a promoted Cr_x
// costs one (e.g. ST at full rate: 30177 - 21359 writes + 15 + 542).
// FT's and ST's FullClockOps then rose by 32 when the runtime took the
// offline engines' sync transitions: an acquire of a sync object no one
// has released joins its bottom clock, as Algorithm 2 does, where the
// runtime used to skip it. The trace's 32 locks each have exactly one such
// acquire, the first, which precedes the lock's first release (e.g. FT by
// default: 9372 + 32 = 9404). SU and SO skip those acquires in both.
constexpr size_t DefaultCells = 1 << 16;
constexpr size_t FewCells = 256;

INSTANTIATE_TEST_SUITE_P(
    AccessHeavy, RuntimeAccessCounters,
    ::testing::Values(
        Case{rt::Mode::FT, 1.0, DefaultCells,
             {63957, 9404, 0, 1484, 1484, 2, 8}},
        Case{rt::Mode::ST, 1.0, DefaultCells,
             {71162, 9407, 71162, 1506, 1506, 2, 8}},
        Case{rt::Mode::SU, 1.0, DefaultCells,
             {71162, 12953, 71162, 1506, 1506, 2, 8}},
        Case{rt::Mode::SO, 1.0, DefaultCells,
             {71162, 2215, 71162, 1506, 1506, 2, 8}},
        Case{rt::Mode::ST, 0.03, DefaultCells,
             {2131, 8867, 2131, 11, 11, 2, 4}},
        Case{rt::Mode::SU, 0.03, DefaultCells,
             {2131, 10617, 2131, 11, 11, 2, 4}},
        Case{rt::Mode::SO, 0.03, DefaultCells,
             {2131, 1558, 2131, 11, 11, 2, 4}},
        Case{rt::Mode::FT, 1.0, FewCells, {65553, 9297, 0, 842, 842, 2, 8}},
        Case{rt::Mode::ST, 1.0, FewCells,
             {71162, 9331, 71162, 873, 873, 2, 8}},
        Case{rt::Mode::SU, 1.0, FewCells,
             {71162, 12877, 71162, 873, 873, 2, 8}},
        Case{rt::Mode::SO, 1.0, FewCells,
             {71162, 2139, 71162, 873, 873, 2, 8}},
        Case{rt::Mode::ST, 0.03, FewCells, {2131, 8868, 2131, 11, 11, 2, 4}},
        Case{rt::Mode::SU, 0.03, FewCells,
             {2131, 10618, 2131, 11, 11, 2, 4}},
        Case{rt::Mode::SO, 0.03, FewCells,
             {2131, 1559, 2131, 11, 11, 2, 4}}),
    [](const ::testing::TestParamInfo<Case> &Info) {
      const Case &C = Info.param;
      return std::string(rt::modeName(C.Mode)) +
             (C.Rate == 1.0 ? "_Full" : "_Rate3pct") +
             (C.ShadowCells == FewCells ? "_Colliding" : "_DefaultCells");
    });
