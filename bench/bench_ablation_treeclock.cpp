//===- bench/bench_ablation_treeclock.cpp - Tree clock ablation -------------=/
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation A3 (DESIGN.md / Section 7 related work): tree clocks are the
/// optimal data structure for the *full* happens-before relation, but they
/// cannot soundly prune under the *sampling* timestamp (equal component
/// values no longer identify equal knowledge). The honest comparison is
/// therefore: TC computing full-HB timestamps with pruned joins versus SO
/// computing sampling timestamps with ordered lists — both doing race
/// checks on the same sampled events.
///
/// Expected shape: at low sampling rates, SO does orders of magnitude
/// fewer node/entry visits and deep copies, because the sampling timestamp
/// makes almost all communication redundant; TC must still distinguish
/// every epoch of the full relation.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace sampletrack;
using namespace stbench;

int main(int argc, char **argv) {
  Options O = Options::parse(argc, argv);
  std::printf("== Ablation: tree clock (full HB) vs SO (sampling) ==\n\n");

  const double Rates[] = {0.003, 0.03, 1.0};
  const char *RateNames[] = {"0.3%", "3%", "100%"};

  Table Out({"benchmark", "rate", "TC nodes visited", "SO entries visited",
             "TC deep copies", "SO deep copies", "TC acq skip%",
             "SO acq skip%"});

  // Mutex-structured traces only (the TC ablation engine's release-join
  // fallback is conservative; see engine::TCCore in EngineCore.h).
  for (const char *Name : {"lusearch", "linkedlist", "derby", "bubblesort",
                           "cassandra"}) {
    Trace Base = generateSuiteTrace(Name, O.Scale, O.Seed);
    for (size_t RI = 0; RI < 3; ++RI) {
      Trace T = Base;
      markTrace(T, Rates[RI], O.Seed * 61 + RI);
      api::EngineRun Tc = runMarked(T, EngineKind::TreeClockFull, O.Workers);
      api::EngineRun So = runMarked(T, EngineKind::SamplingO, O.Workers);
      auto Pct = [](uint64_t N, uint64_t D) {
        return D ? Table::fmt(100.0 * N / D, 1) : std::string("-");
      };
      Out.addRow(
          {Name, RateNames[RI], std::to_string(Tc.Stats.EntriesTraversed),
           std::to_string(So.Stats.EntriesTraversed),
           std::to_string(Tc.Stats.DeepCopies),
           std::to_string(So.Stats.DeepCopies),
           Pct(Tc.Stats.AcquiresSkipped, Tc.Stats.AcquiresTotal),
           Pct(So.Stats.AcquiresSkipped, So.Stats.AcquiresTotal)});
    }
  }

  finish(Out, O);
  std::printf("\npaper claim (Section 7): tree clocks cease to be optimal "
              "for the sampling partial order; the ordered list exploits "
              "the redundancy they cannot.\n");
  return 0;
}
