//===- bench/bench_fig7_acquires_skipped.cpp - Fig. 7 reproduction ----------=/
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 7 (appendix A.1): ratio of acquire events skipped over total
/// acquires, for the four offline engines SU-(3%), SO-(3%), SU-(100%) and
/// SO-(100%), across the 26 suite traces (ordered by total acquires).
///
/// Expected shape: at 3% sampling, >50% skipped on the vast majority of
/// traces and >80% on most; SU skips at least as much as SO (it keeps full
/// freshness clocks) but the difference is small; even the 100% engines
/// skip substantially thanks to self-reacquisition and reverse-order lock
/// communication.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace sampletrack;
using namespace stbench;

int main(int argc, char **argv) {
  Options O = Options::parse(argc, argv);
  std::printf("== Fig 7: acquires skipped / total acquires ==\n\n");

  Table Out({"benchmark", "acquires", "SU-(3%)", "SO-(3%)", "SU-(100%)",
             "SO-(100%)"});

  size_t Count = 0, Above50 = 0, Above80 = 0;
  double SuMinusSoMax = -1.0;

  for (const SuiteEntry &E : suiteEntries()) {
    Trace Base = generateSuiteTrace(E.Name, O.Scale, O.Seed);
    std::vector<std::string> Row = {E.Name};
    double Ratios[4] = {0, 0, 0, 0};
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
      Ratios[I] = M.AcquiresTotal ? static_cast<double>(M.AcquiresSkipped) /
                                        static_cast<double>(M.AcquiresTotal)
                                  : 0;
      if (Row.size() == 1)
        Row.push_back(std::to_string(M.AcquiresTotal));
      Row.push_back(Table::fmt(Ratios[I], 3));
    }
    Out.addRow(Row);
    ++Count;
    if (Ratios[0] > 0.5)
      ++Above50;
    if (Ratios[0] > 0.8)
      ++Above80;
    SuMinusSoMax = std::max(SuMinusSoMax, Ratios[0] - Ratios[1]);
  }

  finish(Out, O);
  std::printf("\nSU-(3%%): >50%% skipped on %zu/%zu traces, >80%% on %zu/%zu; "
              "max(SU - SO) skip gap = %.3f\n",
              Above50, Count, Above80, Count, SuMinusSoMax);
  std::printf("paper shape: >50%% for 23/26, >80%% for 16/26; SU >= SO with "
              "a small gap.\n");
  return 0;
}
