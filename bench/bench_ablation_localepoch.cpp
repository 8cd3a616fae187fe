//===- bench/bench_ablation_localepoch.cpp - Section 6.1 ablation -----------=/
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation A2 (DESIGN.md): the local-epoch ("dirty epoch") optimization of
/// Section 6.1 carries the thread's own clock component out-of-line so
/// publishing a new epoch never forces a deep copy. This bench compares SO
/// with and without the optimization: deep copies and total timestamping
/// work, per sampling rate.
///
/// Expected shape: without the optimization, every flush of a shared list
/// costs a deep copy, so deep copies rise sharply (roughly one per
/// RelAfter_S release); with it they are driven by genuine cross-thread
/// communication only.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace sampletrack;
using namespace stbench;

int main(int argc, char **argv) {
  Options O = Options::parse(argc, argv);
  std::printf("== Ablation: SO local-epoch optimization on/off ==\n\n");

  const double Rates[] = {0.003, 0.03, 0.10, 1.0};
  const char *RateNames[] = {"0.3%", "3%", "10%", "100%"};

  Table Out({"benchmark", "rate", "deep copies (opt)", "deep copies (off)",
             "work (opt)", "work (off)", "copy reduction"});

  for (const char *Name : {"linkedlist", "bufwriter", "derby", "hsqldb",
                           "cassandra", "bubblesort"}) {
    Trace Base = generateSuiteTrace(Name, O.Scale, O.Seed);
    for (size_t RI = 0; RI < 4; ++RI) {
      Trace T = Base;
      markTrace(T, Rates[RI], O.Seed * 43 + RI);
      api::EngineRun On = runMarked(T, EngineKind::SamplingO, O.Workers);
      api::EngineRun Off =
          runMarked(T, EngineKind::SamplingONoEpochOpt, O.Workers);
      double Reduction =
          Off.Stats.DeepCopies
              ? 1.0 - static_cast<double>(On.Stats.DeepCopies) /
                          static_cast<double>(Off.Stats.DeepCopies)
              : 0.0;
      Out.addRow({Name, RateNames[RI],
                  std::to_string(On.Stats.DeepCopies),
                  std::to_string(Off.Stats.DeepCopies),
                  std::to_string(On.Stats.totalTimestampingWork()),
                  std::to_string(Off.Stats.totalTimestampingWork()),
                  Table::fmt(Reduction, 3)});
    }
  }

  finish(Out, O);
  return 0;
}
