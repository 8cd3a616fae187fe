//===- bench/bench_ablation_orderedlist.cpp - Data structure ablation -------=/
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation A1 (DESIGN.md): what does the ordered list itself buy over a
/// plain vector clock guided only by the freshness scalar? SU (Algorithm 3)
/// is exactly SO's skip logic with flat clocks: every non-skipped acquire
/// costs a full T-entry join, and every non-skipped release a full copy.
/// This bench compares the entries examined per processed acquire and the
/// total timestamping work of SU vs SO on the same sample sets.
///
/// Expected shape: SO examines a small constant number of entries per
/// processed acquire (Fig. 6(c)) against SU's T, and its release-side work
/// no longer scales with the number of locks (Lemma 8 vs Lemma 7).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace sampletrack;
using namespace stbench;

int main(int argc, char **argv) {
  Options O = Options::parse(argc, argv);
  std::printf("== Ablation: ordered list (SO) vs flat clocks (SU) ==\n\n");

  Table Out({"benchmark", "T", "entries/proc-acq SU", "entries/proc-acq SO",
             "work SU", "work SO", "work ratio"});

  double WorkRatioSum = 0;
  size_t Count = 0;

  for (const SuiteEntry &E : suiteEntries()) {
    Trace Base = generateSuiteTrace(E.Name, O.Scale, O.Seed);
    Trace T = Base;
    markTrace(T, 0.03, O.Seed * 53 + 1);

    // One session, one pass: both engines replay the same Marked bits.
    const EngineKind Kinds[] = {EngineKind::SamplingU, EngineKind::SamplingO};
    api::SessionResult R = runMarkedAll(T, Kinds, O.Workers);
    const api::EngineRun &Su = R.Engines[0];
    const api::EngineRun &So = R.Engines[1];

    // SU's joins always touch all T entries (twice: U and C clocks).
    double SuPer = static_cast<double>(T.numThreads());
    double SoPer =
        So.Stats.AcquiresProcessed
            ? static_cast<double>(So.Stats.EntriesTraversed) /
                  static_cast<double>(So.Stats.AcquiresProcessed)
            : 0;
    // Entry-granular work: every O(T) clock operation costs T entries,
    // plus any explicitly counted per-entry traversals.
    uint64_t SuWork = Su.Stats.EntriesTraversed +
                      Su.Stats.FullClockOps * T.numThreads();
    uint64_t SoWork = So.Stats.EntriesTraversed +
                      So.Stats.FullClockOps * T.numThreads();
    double Ratio = SoWork ? static_cast<double>(SuWork) /
                                static_cast<double>(SoWork)
                          : 0;
    WorkRatioSum += Ratio;
    ++Count;
    Out.addRow({E.Name, std::to_string(T.numThreads()),
                Table::fmt(SuPer, 1), Table::fmt(SoPer, 2),
                std::to_string(SuWork), std::to_string(SoWork),
                Table::fmt(Ratio, 1)});
  }

  finish(Out, O);
  std::printf("\nmean SU/SO entry-level work ratio at 3%%: %.1fx\n",
              WorkRatioSum / Count);
  return 0;
}
