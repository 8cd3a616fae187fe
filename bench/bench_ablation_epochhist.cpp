//===- bench/bench_ablation_epochhist.cpp - Access-history ablation ---------=/
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation A4: FastTrack's epoch optimization applied to the sampling
/// engines' access histories (the paper notes it is orthogonal to its
/// contributions, Section 2.1). Compares SO with Djit-style vector-clock
/// histories (Algorithm 2 as printed) against SO with epoch histories:
/// full-clock operations spent on accesses, at several sampling rates.
///
/// Expected shape: the gap grows with the sampling rate (access-side work
/// is O(|S| T) with clock histories, amortized O(|S|) with epochs), while
/// race *locations* are identical.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace sampletrack;
using namespace stbench;

int main(int argc, char **argv) {
  Options O = Options::parse(argc, argv);
  std::printf(
      "== Ablation: vector-clock vs epoch access histories (SO) ==\n\n");

  const double Rates[] = {0.003, 0.03, 0.10, 1.0};
  const char *RateNames[] = {"0.3%", "3%", "10%", "100%"};

  Table Out({"benchmark", "rate", "|S|", "clk ops (VC hist)",
             "clk ops (epoch hist)", "racy locs equal"});

  for (const char *Name : {"luindex", "zxing", "sunflow", "xalan",
                           "cassandra"}) {
    Trace Base = generateSuiteTrace(Name, O.Scale, O.Seed);
    for (size_t RI = 0; RI < 4; ++RI) {
      Trace T = Base;
      markTrace(T, Rates[RI], O.Seed * 71 + RI);

      SamplingOrderedListDetector Vc(T.numThreads(), true,
                                     HistoryKind::VectorClocks);
      SamplingOrderedListDetector Eh(T.numThreads(), true,
                                     HistoryKind::Epochs);
      MarkedSampler S1, S2;
      api::AnalysisSession().addDetector(Vc).withSampler(S1).run(T);
      api::AnalysisSession().addDetector(Eh).withSampler(S2).run(T);

      Out.addRow({Name, RateNames[RI], std::to_string(T.countMarked()),
                  std::to_string(Vc.metrics().FullClockOps),
                  std::to_string(Eh.metrics().FullClockOps),
                  Vc.racyLocations() == Eh.racyLocations() ? "yes" : "NO"});
    }
  }

  finish(Out, O);
  std::printf("\nepoch histories cut the access-side O(|S| T) term to "
              "amortized O(|S|) without changing racy locations.\n");
  return 0;
}
