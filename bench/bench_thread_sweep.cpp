//===- bench/bench_thread_sweep.cpp - Offline ST/SU/SO thread sweep ---------=/
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Where does Fig. 5(b) hold offline? The paper's claim rests on ST paying
/// O(T) per sync op, so this bench sweeps the thread count T over
/// {8, 16, 64, 128, 256} on one lock-heavy workload shape (96 locks, Zipf
/// 0.9 lock popularity, 30% accesses, Bernoulli 0.3% sampling) and prints
/// the ST, SU and SO lanes' ns/event as the median [min-max] of 5 runs,
/// plus SO's list entries walked per processed acquire and SO/ST.
///
/// The clock kernels run on the tier dispatch picks (printed first);
/// SAMPLETRACK_FORCE_SCALAR=1 pins the scalar tier for the other half of
/// the comparison. --scale 0.25 (the default) is 400k events per T; runs
/// alternate engines so host drift spreads over all three.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <algorithm>

using namespace sampletrack;
using namespace stbench;

int main(int argc, char **argv) {
  Options O = Options::parse(argc, argv);
  std::printf("== Thread sweep: offline ST / SU / SO ns/event ==\n");
  std::printf("simd tier: %s\n\n", simd::tierName(simd::activeTier()));

  constexpr int Runs = 5;
  const size_t ThreadCounts[] = {8, 16, 64, 128, 256};
  const EngineKind Kinds[] = {EngineKind::SamplingNaive, EngineKind::SamplingU,
                              EngineKind::SamplingO};

  Table Out({"T", "ST ns/ev", "SU ns/ev", "SO ns/ev", "SO entries/proc-acq",
             "SO/ST"});
  for (size_t Threads : ThreadCounts) {
    GenConfig G;
    G.NumThreads = Threads;
    G.NumLocks = 96;
    G.LockZipfTheta = 0.9;
    G.AccessFraction = 0.3;
    G.NumEvents = std::max<size_t>(1000, static_cast<size_t>(1.6e6 * O.Scale));
    G.Seed = O.Seed;
    Trace T = generateWorkload(G);
    markTrace(T, 0.003, O.Seed * 31 + Threads);

    std::vector<double> Ns[3];
    Metrics SoStats;
    for (int Run = 0; Run < Runs; ++Run) {
      for (size_t K = 0; K < 3; ++K) {
        api::EngineRun R = runMarked(T, Kinds[K], O.Workers);
        Ns[K].push_back(static_cast<double>(R.WallNanos) /
                        static_cast<double>(T.size()));
        if (K == 2)
          SoStats = R.Stats;
      }
    }
    std::vector<std::string> Row = {std::to_string(Threads)};
    double Median[3];
    for (size_t K = 0; K < 3; ++K) {
      Summary S = Summary::of(Ns[K]);
      Median[K] = S.P50;
      Row.push_back(Table::fmt(S.P50, 1) + " [" + Table::fmt(S.Min, 1) + "-" +
                    Table::fmt(S.Max, 1) + "]");
    }
    double SoWalk = safeRatio(static_cast<double>(SoStats.EntriesTraversed),
                              static_cast<double>(SoStats.AcquiresProcessed));
    Row.push_back(Table::fmt(SoWalk, 1));
    Row.push_back(Table::fmt(safeRatio(Median[2], Median[0]), 2));
    Out.addRow(std::move(Row));
  }
  finish(Out, O);
  return 0;
}
