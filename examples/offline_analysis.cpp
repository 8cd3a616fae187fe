//===- examples/offline_analysis.cpp - RAPID-style offline CLI --------------=/
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Offline trace analysis, mirroring the paper's RAPID experiments: load a
/// trace (from a file in the RAPID-like text/binary formats, or generated
/// from the 26-benchmark suite), and fan any subset of engines out over a
/// single traversal — every engine sees the identical sample set
/// (appendix A.1) because one api::AnalysisSession draws one decision
/// stream for all of them.
///
/// Usage:
///   offline_analysis --bench bufwriter [--scale 0.5] [--rate 0.03]
///   offline_analysis --file trace.txt [--rate 0.03] [--json out.json]
///   offline_analysis --list
///
//===----------------------------------------------------------------------===//

#include "sampletrack/SampleTrack.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace sampletrack;

namespace {

void usage() {
  std::printf(
      "usage: offline_analysis [--bench NAME | --file PATH] [--rate R]\n"
      "                        [--scale S] [--seed N] [--engines CSV]\n"
      "                        [--json PATH] [--csv PATH]\n"
      "       offline_analysis --list\n\n"
      "  --bench NAME   generate suite benchmark NAME (see --list)\n"
      "  --file PATH    read a RAPID-like text or binary trace\n"
      "  --rate R       sampling rate in [0,1], default 0.03\n"
      "  --scale S      suite trace scale factor, default 0.25\n"
      "  --seed N       sampling/generation seed, default 1\n"
      "  --engines CSV  engines to run, default ST,SU,SO\n"
      "  --json PATH    write the structured session result as JSON\n"
      "  --csv PATH     write one CSV row per engine\n"
      "  --stats        print structural trace statistics\n"
      "  --list         list the 26 suite benchmarks\n");
}

/// Splits a comma-separated engine list; exits with a diagnostic on an
/// unknown name (matching is case-insensitive).
std::vector<EngineKind> parseEngines(const std::string &Csv) {
  std::vector<EngineKind> Out;
  std::string Item;
  for (size_t Pos = 0; Pos <= Csv.size(); ++Pos) {
    if (Pos < Csv.size() && Csv[Pos] != ',') {
      Item += Csv[Pos];
      continue;
    }
    if (Item.empty())
      continue;
    std::optional<EngineKind> K = parseEngineKind(Item);
    if (!K) {
      std::fprintf(stderr, "error: unknown engine '%s'\n", Item.c_str());
      exit(1);
    }
    Out.push_back(*K);
    Item.clear();
  }
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  std::string Bench, File, EnginesCsv = "ST,SU,SO", JsonPath, CsvPath;
  double Rate = 0.03, Scale = 0.25;
  uint64_t Seed = 1;
  bool ShowStats = false;

  for (int A = 1; A < argc; ++A) {
    std::string Arg = argv[A];
    auto Next = [&]() -> const char * {
      if (A + 1 >= argc) {
        usage();
        exit(2);
      }
      return argv[++A];
    };
    if (Arg == "--list") {
      for (const SuiteEntry &E : suiteEntries())
        std::printf("%-18s %8zu events  %s\n", E.Name.c_str(), E.BaseEvents,
                    E.Profile.c_str());
      return 0;
    }
    if (Arg == "--bench")
      Bench = Next();
    else if (Arg == "--file")
      File = Next();
    else if (Arg == "--rate")
      Rate = std::atof(Next());
    else if (Arg == "--scale")
      Scale = std::atof(Next());
    else if (Arg == "--seed")
      Seed = std::strtoull(Next(), nullptr, 10);
    else if (Arg == "--engines")
      EnginesCsv = Next();
    else if (Arg == "--json")
      JsonPath = Next();
    else if (Arg == "--csv")
      CsvPath = Next();
    else if (Arg == "--stats")
      ShowStats = true;
    else {
      usage();
      return 2;
    }
  }

  Trace T;
  if (!File.empty()) {
    std::string Err;
    if (!readTraceFile(File, T, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
  } else {
    if (Bench.empty())
      Bench = "bufwriter";
    if (!isSuiteBenchmark(Bench)) {
      std::fprintf(stderr, "error: unknown benchmark '%s' (try --list)\n",
                   Bench.c_str());
      return 1;
    }
    T = generateSuiteTrace(Bench, Scale, Seed);
  }

  std::string Err;
  if (!T.validate(&Err)) {
    std::fprintf(stderr, "error: invalid trace: %s\n", Err.c_str());
    return 1;
  }

  // One pipeline: every engine lane shares the Bernoulli decision stream,
  // so the sample set is identical across engines by construction, and the
  // trace is traversed once no matter how many engines run.
  api::SessionConfig Cfg;
  Cfg.Engines = parseEngines(EnginesCsv);
  Cfg.Sampling = api::SamplerKind::Bernoulli;
  Cfg.SamplingRate = Rate;
  Cfg.Seed = Seed * 31 + 5;
  api::SessionResult R;
  if (!api::AnalysisSession(Cfg).run(T, R, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }

  uint64_t SampleSize = R.Engines.empty() ? 0 : R.Engines[0].SampleSize;
  std::printf("trace: %zu events, %zu threads, %zu syncs, %zu vars, |S| = "
              "%llu (%.3g%%)\n\n",
              T.size(), T.numThreads(), T.numSyncs(), T.numVars(),
              static_cast<unsigned long long>(SampleSize), Rate * 100.0);
  if (ShowStats)
    std::printf("%s\n", TraceStats::of(T).str().c_str());

  Table Out({"engine", "races", "racy locs", "acq skip%", "rel skip%",
             "deep copies", "entries/acq", "full clk ops", "ms"});
  for (const api::EngineRun &E : R.Engines) {
    const Metrics &M = E.Stats;
    auto Pct = [](uint64_t Num, uint64_t Den) {
      return Den ? Table::fmt(100.0 * Num / Den, 1) : std::string("-");
    };
    std::string RaceCell = std::to_string(E.NumRaces);
    if (E.RacesTruncated)
      RaceCell += " (list capped)";
    Out.addRow({E.Engine, RaceCell, std::to_string(E.NumRacyLocations),
                Pct(M.AcquiresSkipped, M.AcquiresTotal),
                Pct(M.ReleasesSkipped, M.ReleasesTotal),
                std::to_string(M.DeepCopies),
                M.AcquiresTotal
                    ? Table::fmt(static_cast<double>(M.EntriesTraversed) /
                                     M.AcquiresTotal,
                                 2)
                    : "-",
                std::to_string(M.FullClockOps),
                Table::fmt(E.WallNanos / 1e6, 1)});
  }
  Out.print();

  if (!JsonPath.empty() &&
      !api::writeFile(JsonPath, api::toJson(R, /*MaxRaces=*/32)))
    std::fprintf(stderr, "warning: cannot write %s\n", JsonPath.c_str());
  if (!CsvPath.empty() && !api::writeFile(CsvPath, api::toCsv(R)))
    std::fprintf(stderr, "warning: cannot write %s\n", CsvPath.c_str());
  return 0;
}
