//===- bench/bench_fig9_saving_ratio.cpp - Fig. 9 reproduction --------------=/
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 9 (appendix A.1): the saving ratio of the ordered-list data
/// structure — over the acquires that were NOT skipped, the fraction of
/// vector-clock entries that the prefix traversal avoided visiting:
///
///   saving = (sum_e T - visited_e) / (sum_e T)   over non-skipped acquires
///
/// Expected shape: high for both SO-(3%) and SO-(100%), and always higher
/// at 3% than at 100% — the data structure is particularly suited to the
/// sampling partial order.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace sampletrack;
using namespace stbench;

int main(int argc, char **argv) {
  Options O = Options::parse(argc, argv);
  std::printf("== Fig 9: ordered-list saving ratio of SO ==\n\n");

  Table Out({"benchmark", "SO-(3%)", "SO-(100%)"});
  size_t Count = 0, ThreePctHigher = 0;
  double Sum3 = 0, Sum100 = 0;

  for (const SuiteEntry &E : suiteEntries()) {
    Trace Base = generateSuiteTrace(E.Name, O.Scale, O.Seed);
    double Ratios[2] = {0, 0};
    const double Rates[2] = {0.03, 1.0};
    for (size_t I = 0; I < 2; ++I) {
      Trace T = Base;
      markTrace(T, Rates[I], O.Seed * 13 + 7);
      api::EngineRun R = runMarked(T, EngineKind::SamplingO, O.Workers);
      const Metrics &M = R.Stats;
      uint64_t All = M.TraversalOpportunities;
      uint64_t Saved = All > M.EntriesTraversed ? All - M.EntriesTraversed
                                                : 0;
      Ratios[I] = All ? static_cast<double>(Saved) /
                            static_cast<double>(All)
                      : 0;
    }
    Out.addRow({E.Name, Table::fmt(Ratios[0], 3), Table::fmt(Ratios[1], 3)});
    ++Count;
    Sum3 += Ratios[0];
    Sum100 += Ratios[1];
    if (Ratios[0] >= Ratios[1] - 1e-9)
      ++ThreePctHigher;
  }
  Out.addRow({"mean", Table::fmt(Sum3 / Count, 3),
              Table::fmt(Sum100 / Count, 3)});

  finish(Out, O);
  std::printf("\nSO-(3%%) saving ratio >= SO-(100%%) on %zu/%zu traces\n",
              ThreePctHigher, Count);
  std::printf("paper shape: both ratios high, 3%% consistently above "
              "100%%.\n");
  return 0;
}
