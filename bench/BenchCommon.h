//===- bench/BenchCommon.h - Shared bench harness helpers ------*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the figure-reproduction benches: scale-flag parsing
/// and common offline-run plumbing. Every bench prints the same rows/series
/// the corresponding paper figure reports, plus a CSV next to the binary
/// when --csv is passed.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_BENCH_BENCHCOMMON_H
#define SAMPLETRACK_BENCH_BENCHCOMMON_H

#include "sampletrack/SampleTrack.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace stbench {

/// Common bench options. Scale multiplies trace sizes / request counts so
/// the default "for b in build/bench/*; do $b; done" loop stays fast while
/// --scale 1 approaches paper-sized runs.
struct Options {
  double Scale = 0.25;
  uint64_t Seed = 1;
  /// Detector-lane worker threads for the offline session runs (the
  /// --workers axis; 0 = sequential). Results are bit-identical across
  /// values — only wall-clock changes — so every figure is safe to run at
  /// any worker count.
  size_t Workers = 0;
  std::string CsvPath;
  /// Machine-readable results (--json PATH): the perf-trajectory format CI
  /// snapshots as BENCH_<fig>.json at the repo root.
  std::string JsonPath;
  /// Chrome-trace output (--trace OUT.json): the bench re-runs one
  /// representative configuration with profiling on and writes the span
  /// timeline as Trace Event Format JSON, loadable in Perfetto /
  /// chrome://tracing. Profiled runs are separate from the timed rows, so
  /// --trace never perturbs the recorded numbers.
  std::string TracePath;

  static Options parse(int Argc, char **Argv) {
    Options O;
    for (int A = 1; A < Argc; ++A) {
      std::string Arg = Argv[A];
      auto Next = [&]() -> const char * {
        if (A + 1 >= Argc) {
          std::fprintf(stderr, "missing value for %s\n", Arg.c_str());
          exit(2);
        }
        return Argv[++A];
      };
      if (Arg == "--scale")
        O.Scale = std::atof(Next());
      else if (Arg == "--seed")
        O.Seed = std::strtoull(Next(), nullptr, 10);
      else if (Arg == "--workers")
        O.Workers = std::strtoull(Next(), nullptr, 10);
      else if (Arg == "--csv")
        O.CsvPath = Next();
      else if (Arg == "--json")
        O.JsonPath = Next();
      else if (Arg == "--trace")
        O.TracePath = Next();
      else
        usage(Argv[0]);
    }
    return O;
  }

  /// Prints the usage line and exits with status 2 (a bad argument).
  [[noreturn]] static void usage(const char *Argv0) {
    std::fprintf(stderr,
                 "usage: %s [--scale S] [--seed N] [--workers W] "
                 "[--csv PATH] [--json PATH] [--trace OUT.json]\n",
                 Argv0);
    exit(2);
  }
};

/// Machine-readable bench output: one row per measurement, one JSON
/// document per bench run. The schema is the repo's perf trajectory —
/// CI runs fig5b/fig8 with --json and keeps BENCH_<fig>.json at the repo
/// root so every PR is held to the previous numbers:
///
///   {"bench": "fig8", "scale": 0.25, "seed": 1, "rows": [
///     {"series": "...", "engine": "SO", "rate": 0.03, "events": N,
///      "wallNanos": W, "nsPerEvent": W/N, "deepCopies": ..,
///      "cowBreaks": .., "poolHits": .., "shallowCopies": ..,
///      "releasesTotal": .., "racesDeclared": ..}, ...]}
class JsonReport {
public:
  JsonReport(std::string Bench, const Options &O)
      : Bench(std::move(Bench)), Scale(O.Scale), Seed(O.Seed) {}

  /// Records one measurement. \p Series names the workload/config axis
  /// (trace name, "workers=4", ...); \p Rate is the sampling rate (1.0 for
  /// full analysis, 0 when not applicable).
  /// \p Extra is an optional raw JSON fragment appended to the row (e.g.
  /// "\"racyLocations\": 5, \"distinctRaces\": 3" — fig6a's dedup axis).
  void addRow(const std::string &Series, const std::string &Engine,
              double Rate, uint64_t Events, uint64_t WallNanos,
              const sampletrack::Metrics &M, const std::string &Extra = "") {
    double NsPerEvent =
        Events ? static_cast<double>(WallNanos) / static_cast<double>(Events)
               : 0.0;
    char RateS[64], NsS[64];
    std::snprintf(RateS, sizeof(RateS), "%g", Rate);
    std::snprintf(NsS, sizeof(NsS), "%.2f", NsPerEvent);
    std::string Row = "    {\"series\": \"" + Series + "\", \"engine\": \"" +
                      Engine + "\", \"rate\": " + RateS +
                      ", \"events\": " + std::to_string(Events) +
                      ", \"wallNanos\": " + std::to_string(WallNanos);
    Row += std::string(", \"nsPerEvent\": ") + NsS +
           ", \"deepCopies\": " + std::to_string(M.DeepCopies) +
           ", \"cowBreaks\": " + std::to_string(M.CowBreaks) +
           ", \"poolHits\": " + std::to_string(M.PoolHits) +
           ", \"shallowCopies\": " + std::to_string(M.ShallowCopies) +
           ", \"releasesTotal\": " + std::to_string(M.ReleasesTotal) +
           ", \"racesDeclared\": " + std::to_string(M.RacesDeclared);
    if (!Extra.empty())
      Row += ", " + Extra;
    Row += "}";
    Rows.push_back(std::move(Row));
  }

  /// Attaches a self-profile summary: the document gains a top-level
  /// "profile" key (flat span array, see prof::toJsonArray). The perf gate
  /// skips it — span nanos are not gated metrics — so baselines may carry
  /// it freely.
  void attachProfile(const sampletrack::prof::Report &R) {
    Profile = sampletrack::prof::toJsonArray(R);
  }

  /// Writes the document if --json was passed; returns false only on I/O
  /// failure (missing --json is not an error).
  bool writeIfRequested(const Options &O) const {
    if (O.JsonPath.empty())
      return true;
    std::FILE *F = std::fopen(O.JsonPath.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "warning: cannot write %s\n", O.JsonPath.c_str());
      return false;
    }
    std::fprintf(F, "{\"bench\": \"%s\", \"scale\": %g, \"seed\": %llu, "
                    "\"rows\": [\n",
                 Bench.c_str(), Scale, static_cast<unsigned long long>(Seed));
    for (size_t I = 0; I < Rows.size(); ++I)
      std::fprintf(F, "%s%s\n", Rows[I].c_str(),
                   I + 1 < Rows.size() ? "," : "");
    std::fprintf(F, "]");
    if (!Profile.empty())
      std::fprintf(F, ",\n\"profile\": %s", Profile.c_str());
    std::fprintf(F, "}\n");
    std::fclose(F);
    std::printf("\n(json written to %s)\n", O.JsonPath.c_str());
    return true;
  }

private:
  std::string Bench;
  double Scale;
  uint64_t Seed;
  std::vector<std::string> Rows;
  std::string Profile;
};

/// Runs engine \p K over a pre-marked trace \p T, replaying the Marked bits
/// as the sample set, and returns the single-lane result. \p NumWorkers
/// threads drive the lane(s) when nonzero (bit-identical to sequential).
inline sampletrack::api::EngineRun
runMarked(const sampletrack::Trace &T, sampletrack::EngineKind K,
          size_t NumWorkers = 0) {
  sampletrack::api::SessionConfig Cfg;
  Cfg.Engines = {K};
  Cfg.Sampling = sampletrack::api::SamplerKind::Marked;
  Cfg.NumWorkers = NumWorkers;
  sampletrack::api::SessionResult R =
      sampletrack::api::AnalysisSession(Cfg).run(T);
  return std::move(R.Engines.front());
}

/// Fans every engine in \p Kinds out over a single traversal of the
/// pre-marked trace \p T (identical sample sets by construction), with
/// \p NumWorkers lane worker threads (0 = sequential).
inline sampletrack::api::SessionResult
runMarkedAll(const sampletrack::Trace &T,
             std::span<const sampletrack::EngineKind> Kinds,
             size_t NumWorkers = 0) {
  sampletrack::api::SessionConfig Cfg;
  Cfg.Engines.assign(Kinds.begin(), Kinds.end());
  Cfg.Sampling = sampletrack::api::SamplerKind::Marked;
  Cfg.NumWorkers = NumWorkers;
  return sampletrack::api::AnalysisSession(Cfg).run(T);
}

/// Writes \p Trace (chrome Trace Event Format JSON) to O.TracePath if
/// --trace was passed. Benches call this with
/// prof::toChromeTrace(...) of a profiled re-run.
inline void writeTraceIfRequested(const Options &O, const std::string &Trace) {
  if (O.TracePath.empty())
    return;
  if (sampletrack::api::writeFile(O.TracePath, Trace))
    std::printf("(chrome trace written to %s)\n", O.TracePath.c_str());
  else
    std::fprintf(stderr, "warning: cannot write %s\n", O.TracePath.c_str());
}

/// Runs one profiled session over the pre-marked trace \p T (the same
/// configuration as runMarkedAll) and returns the full result including
/// SessionResult::Profile. Used for the --trace export and the "profile"
/// attachment — a separate run, so profiling never perturbs timed rows.
inline sampletrack::api::SessionResult
runMarkedAllProfiled(const sampletrack::Trace &T,
                     std::span<const sampletrack::EngineKind> Kinds,
                     size_t NumWorkers,
                     std::unique_ptr<sampletrack::prof::Profiler> *ProfOut =
                         nullptr) {
  sampletrack::api::SessionConfig Cfg;
  Cfg.Engines.assign(Kinds.begin(), Kinds.end());
  Cfg.Sampling = sampletrack::api::SamplerKind::Marked;
  Cfg.NumWorkers = NumWorkers;
  Cfg.ProfilingEnabled = true;
  sampletrack::api::AnalysisSession S(Cfg);
  sampletrack::api::SessionResult R = S.run(T);
  if (ProfOut)
    *ProfOut = S.takeProfiler();
  return R;
}

/// \p Num / \p Den with the trajectory's zero convention: rows whose
/// denominator never accumulated (empty traces, skipped configs) report 0
/// rather than poisoning the JSON/CSV with inf or nan — the same guard
/// JsonReport::addRow applies to nsPerEvent.
inline double safeRatio(double Num, double Den) {
  return Den > 0 ? Num / Den : 0.0;
}

/// Emits the table and optional CSV.
inline void finish(sampletrack::Table &T, const Options &O) {
  T.print();
  if (!O.CsvPath.empty()) {
    if (T.writeCsv(O.CsvPath))
      std::printf("\n(csv written to %s)\n", O.CsvPath.c_str());
    else
      std::fprintf(stderr, "warning: cannot write %s\n", O.CsvPath.c_str());
  }
}

} // namespace stbench

#endif // SAMPLETRACK_BENCH_BENCHCOMMON_H
