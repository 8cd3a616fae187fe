//===- bench/bench_fig8_releases_deepcopies.cpp - Fig. 8 reproduction -------=/
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 8 (appendix A.1): release-side O(T) work — the fraction of
/// release events at which SU performs a full copy versus the fraction of
/// releases that cost SO a deep copy, for the 3% and 100% engines.
///
/// Expected shape: SO's deep-copy ratio is generally much smaller than
/// SU's processed-release ratio (lazy copies shift and amortize the O(T)
/// cost); even SU-(100%) does not process all releases on traces whose
/// critical sections contain no accesses.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace sampletrack;
using namespace stbench;

int main(int argc, char **argv) {
  Options O = Options::parse(argc, argv);
  std::printf("== Fig 8: releases processed (SU) / deep copies (SO) over "
              "total releases ==\n\n");

  Table Out({"benchmark", "releases", "SU-(3%)", "SO-(3%)", "SU-(100%)",
             "SO-(100%)"});
  // SnapshotPool economics of the SO lanes: deep copies actually paid
  // (all of them CoW breaks under the lazy scheme) and how many were
  // served allocation-free from the pool's free list.
  Table Pool({"benchmark", "cow(3%)", "hit(3%)", "cow(100%)", "hit(100%)"});
  JsonReport Json("fig8", O);

  size_t Count = 0, SoBelowSu = 0;
  uint64_t SoDeep = 0, SoCow = 0, SoHits = 0;

  for (const SuiteEntry &E : suiteEntries()) {
    Trace Base = generateSuiteTrace(E.Name, O.Scale, O.Seed);
    std::vector<std::string> Row = {E.Name};
    std::vector<std::string> PoolRow = {E.Name};
    double Su3 = 0, So3 = 0;
    const std::pair<EngineKind, double> Cfgs[4] = {
        {EngineKind::SamplingU, 0.03},
        {EngineKind::SamplingO, 0.03},
        {EngineKind::SamplingU, 1.0},
        {EngineKind::SamplingO, 1.0},
    };
    for (size_t I = 0; I < 4; ++I) {
      Trace T = Base;
      markTrace(T, Cfgs[I].second, O.Seed * 13 + 7);
      api::EngineRun R = runMarked(T, Cfgs[I].first, O.Workers);
      const Metrics &M = R.Stats;
      bool IsSu = Cfgs[I].first == EngineKind::SamplingU;
      Json.addRow(E.Name, IsSu ? "SU" : "SO", Cfgs[I].second, T.size(),
                  R.WallNanos, M);
      // SU's release cost is the full copies it performs; SO's is the deep
      // copies the lazy scheme eventually pays.
      uint64_t Work = IsSu ? M.ReleasesProcessed : M.DeepCopies;
      double Ratio = M.ReleasesTotal ? static_cast<double>(Work) /
                                           static_cast<double>(M.ReleasesTotal)
                                     : 0;
      if (Row.size() == 1)
        Row.push_back(std::to_string(M.ReleasesTotal));
      Row.push_back(Table::fmt(Ratio, 3));
      if (!IsSu) {
        PoolRow.push_back(std::to_string(M.CowBreaks));
        PoolRow.push_back(std::to_string(M.PoolHits));
        SoDeep += M.DeepCopies;
        SoCow += M.CowBreaks;
        SoHits += M.PoolHits;
      }
      if (I == 0)
        Su3 = Ratio;
      if (I == 1)
        So3 = Ratio;
    }
    Out.addRow(Row);
    Pool.addRow(PoolRow);
    ++Count;
    if (So3 <= Su3 + 1e-9)
      ++SoBelowSu;
  }

  finish(Out, O);
  std::printf("\nSO-(3%%) deep-copy ratio <= SU-(3%%) processed ratio on "
              "%zu/%zu traces\n",
              SoBelowSu, Count);
  std::printf("paper shape: deep copies are generally much rarer than SU's "
              "processed releases.\n");

  std::printf("\n== SO copy economics (lazy CoW + SnapshotPool) ==\n\n");
  Pool.print();
  std::printf("\nSO totals: %llu deep copies, all %llu CoW breaks, %llu "
              "served from the pool free list (%.1f%% allocation-free)\n",
              static_cast<unsigned long long>(SoDeep),
              static_cast<unsigned long long>(SoCow),
              static_cast<unsigned long long>(SoHits),
              SoCow ? 100.0 * static_cast<double>(SoHits) /
                          static_cast<double>(SoCow)
                    : 0.0);
  // Self-profile attachment + chrome trace: one profiled SU/SO session
  // over the suite's first trace (separate run; timed rows unperturbed).
  {
    Trace T = generateSuiteTrace(suiteEntries().front().Name, O.Scale,
                                 O.Seed);
    markTrace(T, 0.03, O.Seed * 13 + 7);
    const EngineKind Kinds[] = {EngineKind::SamplingU, EngineKind::SamplingO};
    std::unique_ptr<prof::Profiler> P;
    api::SessionResult PR = runMarkedAllProfiled(T, Kinds, O.Workers, &P);
    Json.attachProfile(PR.Profile);
    if (P)
      writeTraceIfRequested(O, prof::toChromeTrace(*P, "fig8-session"));
  }
  Json.writeIfRequested(O);
  return 0;
}
