//===- bench/bench_fig5b_overhead.cpp - Fig. 5(b) reproduction --------------=/
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 5(b): improvement in *algorithmic overhead* of SU and SO over the
/// naive sampling engine ST, per sampling rate:
///
///   AO(S)        = latency(S) - latency(ET)
///   improvement  = 1 - AO(S) / AO(ST)
///
/// Expected shape (Section 6.2.4): largest gains at 0.3% (~37% average for
/// both SU and SO, up to >60% on some benchmarks), shrinking at 3%
/// (~17-19%) and nearly vanishing at 10% (~3%); occasional small negative
/// values on benchmarks with few synchronizations per access.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <algorithm>
#include <thread>

using namespace sampletrack;
using namespace sampletrack::workload;
using namespace stbench;

int main(int argc, char **argv) {
  Options O = Options::parse(argc, argv);
  std::printf(
      "== Fig 5(b): improvement in algorithmic overhead of SU/SO vs ST ==\n\n");

  RunConfig Base;
  Base.NumClients =
      std::max<size_t>(2, std::min<size_t>(4, std::thread::hardware_concurrency()));
  Base.RequestsPerClient = static_cast<size_t>(2500 * O.Scale) + 200;
  Base.Seed = O.Seed;

  // One SessionConfig shapes every runtime in the ladder. TSan v3 uses
  // fixed-size clocks (256 slots; the paper disables slot preemption); we
  // use 64-slot clocks, the paper's concurrently-runnable thread count, so
  // O(T) analysis costs are realistic.
  api::SessionConfig Analysis;
  Analysis.MaxThreads = 64;
  Analysis.Seed = O.Seed;

  const double Rates[] = {0.003, 0.03, 0.10};

  Table Out({"benchmark", "SU0.3%", "SO0.3%", "SU3%", "SO3%", "SU10%",
             "SO10%"});
  std::vector<double> Sums(6, 0);
  size_t Count = 0;

  for (const BenchmarkSpec &Spec : benchbaseSuite()) {
    RunConfig C = Base;
    // Median of repeated runs tames scheduler noise on small hosts; the
    // paper's 1-hour stress runs average it out instead.
    auto Measure = [&](rt::Mode M, double Rate) {
      Analysis.SamplingRate = Rate;
      C.Rt = Analysis.runtimeConfig(M);
      double Best = -1.0;
      for (int Rep = 0; Rep < 3; ++Rep) {
        double P50 = runBenchmark(Spec, C).LatencyNs.P50;
        if (Best < 0 || P50 < Best)
          Best = P50;
      }
      return Best;
    };
    runBenchmark(Spec, C); // Warmup: pages, caches, allocator.
    double EtLat = Measure(rt::Mode::ET, 0);

    std::vector<std::string> Row = {Spec.Name};
    std::vector<double> Cells(6, 0);
    for (size_t RI = 0; RI < 3; ++RI) {
      double AoSt = Measure(rt::Mode::ST, Rates[RI]) - EtLat;
      double AoSu = Measure(rt::Mode::SU, Rates[RI]) - EtLat;
      double AoSo = Measure(rt::Mode::SO, Rates[RI]) - EtLat;
      // Guard tiny denominators (a benchmark where sampling analysis is
      // already in the noise).
      double Denom = std::max(AoSt, EtLat * 0.02);
      Cells[RI * 2 + 0] = 1.0 - AoSu / Denom;
      Cells[RI * 2 + 1] = 1.0 - AoSo / Denom;
    }
    // Column order: SU0.3, SO0.3, SU3, SO3, SU10, SO10.
    for (size_t I = 0; I < 6; ++I) {
      Row.push_back(Table::fmt(Cells[I], 2));
      Sums[I] += Cells[I];
    }
    ++Count;
    Out.addRow(Row);
  }

  std::vector<std::string> MeanRow = {"mean"};
  for (size_t I = 0; I < 6; ++I)
    MeanRow.push_back(
        Table::fmt(safeRatio(Sums[I], static_cast<double>(Count)), 2));
  Out.addRow(MeanRow);

  finish(Out, O);
  std::printf("\npaper shape: avg ~0.37 at 0.3%%, ~0.17-0.19 at 3%%, ~0.03 "
              "at 10%%; a few mildly negative entries are expected.\n");

  // -- Lane parallelism: the --workers axis ------------------------------
  // Record one interleaving of the suite's first workload (ET mode: full
  // instrumentation, no analysis perturbing the schedule), then replay it
  // through the 4-lane comparison session (FT, ST, SO, SU). Sequential
  // mode pays the sum of the lanes; parallel mode approaches the slowest
  // lane. Results are bit-identical at every worker count — the table's
  // last column re-checks that on this very run.
  const BenchmarkSpec &RecSpec = benchbaseSuite().front();
  RunConfig RecC = Base;
  Analysis.SamplingRate = 0;
  RecC.Rt = Analysis.runtimeConfig(rt::Mode::ET);
  RecC.Rt.RecordTrace = true;
  Trace Rec = runBenchmark(RecSpec, RecC).Recorded;
  std::printf("\n== 4-lane offline session over the recorded '%s' workload "
              "(%zu events) ==\n\n",
              RecSpec.Name.c_str(), Rec.size());

  std::vector<size_t> WorkerAxis = {0, 1, 2, 4};
  if (O.Workers &&
      std::find(WorkerAxis.begin(), WorkerAxis.end(), O.Workers) ==
          WorkerAxis.end())
    WorkerAxis.push_back(O.Workers);

  const double LaneRates[2] = {0.03, 1.0};
  Table Par({"workers", "wall ms (3%)", "speedup", "wall ms (100%)",
             "speedup", "identical"});
  JsonReport Json("fig5b", O);
  double BaseMs[2] = {0, 0};
  api::SessionResult Ref[2];
  bool AllIdentical = true;
  for (size_t W : WorkerAxis) {
    double Ms[2] = {0, 0};
    bool Same = true;
    for (int RI = 0; RI < 2; ++RI) {
      api::SessionConfig Cfg;
      Cfg.Engines = {EngineKind::FastTrack, EngineKind::SamplingNaive,
                     EngineKind::SamplingO, EngineKind::SamplingU};
      Cfg.SamplingRate = LaneRates[RI]; // 1.0 degrades to always-sample.
      Cfg.Seed = O.Seed;
      Cfg.NumWorkers = W;
      uint64_t Best = ~uint64_t(0);
      api::SessionResult R;
      for (int Rep = 0; Rep < 3; ++Rep) {
        R = api::AnalysisSession(Cfg).run(Rec);
        Best = std::min(Best, R.WallNanos);
      }
      Ms[RI] = static_cast<double>(Best) / 1e6;
      std::string Series =
          "workers=" + std::to_string(W) + ",session"; // Whole-session row.
      Metrics SessionAgg; // Engine rows carry the real metrics below.
      Json.addRow(Series, "all-lanes", LaneRates[RI], R.EventsProcessed,
                  Best, SessionAgg);
      for (const api::EngineRun &E : R.Engines)
        Json.addRow("workers=" + std::to_string(W), E.Engine, LaneRates[RI],
                    R.EventsProcessed, E.WallNanos, E.Stats);
      if (W == 0) {
        BaseMs[RI] = Ms[RI];
        Ref[RI] = api::stripTiming(std::move(R));
      } else {
        Same = Same && api::stripTiming(std::move(R)) == Ref[RI];
      }
    }
    AllIdentical = AllIdentical && Same;
    Par.addRow({std::to_string(W), Table::fmt(Ms[0], 2),
                Table::fmt(safeRatio(BaseMs[0], Ms[0]), 2),
                Table::fmt(Ms[1], 2),
                Table::fmt(safeRatio(BaseMs[1], Ms[1]), 2),
                W == 0 ? "baseline" : (Same ? "yes" : "NO")});
  }
  Par.print();
  std::printf("\nexpected: >= 2x at --workers 4 with >= 4 usable cores "
              "(this host has %u); bit-identical results at every worker "
              "count.\n",
              std::thread::hardware_concurrency());

  // -- Self-profile attachment + chrome trace -----------------------------
  // One profiled re-run of the 4-lane session: its merged span tree rides
  // along in the bench JSON ("profile", not gated) and, with --trace, the
  // span timeline exports as chrome Trace Event Format.
  {
    api::SessionConfig Cfg;
    Cfg.Engines = {EngineKind::FastTrack, EngineKind::SamplingNaive,
                   EngineKind::SamplingO, EngineKind::SamplingU};
    Cfg.SamplingRate = 0.03;
    Cfg.Seed = O.Seed;
    Cfg.NumWorkers = O.Workers;
    Cfg.ProfilingEnabled = true;
    api::AnalysisSession Sess(Cfg);
    api::SessionResult PR = Sess.run(Rec);
    Json.attachProfile(PR.Profile);
    if (!O.TracePath.empty()) {
      std::unique_ptr<prof::Profiler> P = Sess.takeProfiler();
      writeTraceIfRequested(O, prof::toChromeTrace(*P, "fig5b-session"));
    }
  }

  // -- Disabled-profiler overhead contract --------------------------------
  // With profiling off, the session's only profiler cost is a null Tree*
  // check per lane per batch (plus two for the ingest/finish probes).
  // Measure that branch directly and bound the implied per-event cost at
  // <= 1% of this run's own 100%-sampling ns/event. Skipped under TSan —
  // instrumented clock reads are orders of magnitude off.
  bool OverheadOk = true;
  {
#if defined(__SANITIZE_THREAD__)
#define SAMPLETRACK_BENCH_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SAMPLETRACK_BENCH_TSAN 1
#endif
#endif
#if defined(SAMPLETRACK_BENCH_TSAN)
    constexpr bool TsanBuild = true;
#else
    constexpr bool TsanBuild = false;
#endif
    prof::Tree *volatile NullTree = nullptr;
    constexpr uint64_t Iters = 1 << 22;
    uint64_t T0 = prof::nowNanos();
    for (uint64_t I = 0; I < Iters; ++I)
      prof::Scope Sc(NullTree, "off");
    uint64_t ScopeNanos = prof::nowNanos() - T0;
    double PerScope = static_cast<double>(ScopeNanos) / Iters;
    // 4 lanes + the ingest and finish probes, amortized over one batch.
    double ChecksPerEvent = 6.0 / 4096.0;
    double OverheadNs = PerScope * ChecksPerEvent;
    double SessionNsPerEvent =
        safeRatio(BaseMs[1] * 1e6, static_cast<double>(Rec.size()));
    double Pct = 100.0 * safeRatio(OverheadNs, SessionNsPerEvent);
    std::printf("\ndisabled-profiler hot path: %.2f ns/scope-check, %.5f "
                "ns/event implied (%.3f%% of the sequential 100%%-sampling "
                "session)%s\n",
                PerScope, OverheadNs, Pct,
                TsanBuild ? " [TSan build: threshold not enforced]" : "");
    char Extra[160];
    std::snprintf(Extra, sizeof(Extra),
                  "\"overheadNsPerEvent\": %.5f, \"overheadPct\": %.4f",
                  OverheadNs, Pct);
    Metrics None;
    Json.addRow("prof-overhead", "disabled-scope", 0, Iters, ScopeNanos,
                None, Extra);
    if (!TsanBuild && Pct > 1.0) {
      std::fprintf(stderr, "FAIL: disabled-profiler overhead %.3f%% exceeds "
                           "the 1%% budget\n",
                   Pct);
      OverheadOk = false;
    }
  }

  Json.writeIfRequested(O);
  if (!OverheadOk)
    return 1;
  if (!AllIdentical) {
    std::fprintf(stderr, "FAIL: parallel lanes diverged from sequential "
                         "results (see 'identical' column)\n");
    return 1; // Fails CI's bench-smoke step on a determinism regression.
  }
  return 0;
}
