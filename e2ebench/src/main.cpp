//===- e2ebench/src/main.cpp - End-to-end benchmark entry point -----------===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///           [--size full|tiny] [--out-dir <dir>] [--commit <id>]
///           [--source-digest <hex>]
///
/// Set-up runs five times (setup_s is the median). Then, after a short
/// warm-up upload burst and one warm-up pass of every configuration, the
/// --seconds window runs eight blocks. Each block spends 70% of its time on
/// rounds of analysis passes (one pass per configuration, rotated start)
/// and 30% on the closed upload loop.
///
/// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
/// and traced rounds and fleet blocks (benchmark-side spans; hook calls
/// timed by class),
/// measures each layer directly, and reports the per-layer metrics, with a
/// chrome trace and the program's prof reports written to --out-dir.
///
/// Human-readable lines (host record, every metric with its unit and sample
/// count) come first; the last stdout line is the JSON result.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Fleet.h"
#include "Passes.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

using namespace e2e;

namespace {

constexpr unsigned SetupReps = 5;
/// The measurement window is cut into this many blocks, each giving
/// FleetShare of its time to the fleet loop after its pass rounds.
constexpr unsigned Blocks = 8;
constexpr double FleetShare = 0.3;
constexpr uint64_t FleetWarmUpNanos = 200'000'000;

const char *const Engines[] = {"FT", "ST", "SU", "SO"};
const char *const OnlineModes[] = {"ET", "ST", "SU", "SO"};

int usage(const char *Why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--size full|tiny] "
               "[--out-dir <dir>] [--commit <id>] [--source-digest <hex>]\n",
               Why);
  return 2;
}

bool parseUnsigned(const char *S, uint64_t &Out) {
  const char *End = S + std::strlen(S);
  auto [P, Ec] = std::from_chars(S, End, Out);
  return Ec == std::errc() && P == End && P != S;
}

/// Returns 0 on success, else the exit code.
int parseArgs(int Argc, char **Argv, Options &O) {
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    const char *V = Argv[++I];
    uint64_t N = 0;
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      if (!parseUnsigned(V, O.Seed))
        return usage("--seed takes a non-negative integer");
      HaveSeed = true;
    } else if (A == "--seconds") {
      if (!parseUnsigned(V, N) || N < 1 || N > 600)
        return usage("--seconds takes an integer in [1, 600]");
      O.Seconds = static_cast<unsigned>(N);
      HaveSeconds = true;
    } else if (A == "--trace") {
      if (!parseUnsigned(V, N) || N > 1)
        return usage("--trace takes 0 or 1");
      O.Trace = N == 1;
      HaveTrace = true;
    } else if (A == "--size") {
      if (std::strcmp(V, "full") && std::strcmp(V, "tiny"))
        return usage("--size takes full or tiny");
      O.Tiny = std::strcmp(V, "tiny") == 0;
    } else if (A == "--out-dir") {
      O.OutDir = V;
    } else if (A == "--commit") {
      O.Commit = V;
    } else if (A == "--source-digest") {
      O.SourceDigest = V;
    } else {
      return usage(("unknown option " + A).c_str());
    }
  }
  if (O.Workload.empty() || !HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--workload, --seed, --seconds and --trace are required");
  return 0;
}

/// Shortest decimal that round-trips \p V (JSON has no NaN/Inf: 0).
std::string number(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  auto [P, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return Ec == std::errc() ? std::string(Buf, P) : "0";
}

std::string quoted(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += static_cast<unsigned char>(C) < 0x20 ? ' ' : C;
  }
  return Out + "\"";
}

/// The end-to-end metrics, from the untraced passes and uploads.
void endToEnd(const PassRunner &P, const FleetLoop &F,
              const std::vector<double> &SetupS, int64_t PassHeapBytes,
              MetricSet &M) {
  M.add("setup_s", median(SetupS), "s", SetupS.size());
  for (const char *E : Engines) {
    const PassLog &L = P.log(std::string("offline.") + E);
    M.add(std::string("offline_ns_per_event.") + E, median(L.NsPerEvent),
          "ns", L.NsPerEvent.size());
  }
  for (const char *Mo : OnlineModes) {
    const PassLog &L = P.log(std::string("online.") + Mo);
    M.add(std::string("online_ns_per_event.") + Mo, median(L.NsPerEvent),
          "ns", L.NsPerEvent.size());
  }
  M.add("peak_heap_mb", static_cast<double>(PassHeapBytes) / (1 << 20), "MB");
  // Fleet metrics are medians over the blocks, like pass timings are
  // medians over passes: one stretch of host noise moves one block.
  std::vector<double> P50;
  uint64_t Uploads = 0;
  for (const FleetBlock &B : F.blocks()) {
    P50.push_back(B.P50Ms);
    Uploads += B.Uploads;
  }
  M.add("upload_p50_ms", median(P50), "ms", Uploads);
}

/// The per-layer metrics the passes and the server yield (the direct layer
/// measurements were added before the run).
void perLayer(const PassRunner &P, const FleetLoop &F, const Inputs &In,
              const std::vector<double> &GenS, const Checks &C,
              MetricSet &M) {
  M.add("trace.gen_s", median(GenS), "s", GenS.size());

  // api: the session's own split of sequential passes, and the fan-out.
  std::vector<double> Ingest;
  double SequentialSum = 0;
  for (const char *E : Engines) {
    const PassLog &L = P.log(std::string("offline.") + E);
    Ingest.insert(Ingest.end(), L.IngestNs.begin(), L.IngestNs.end());
    M.add(std::string("api.lane_ns_per_event.") + E, median(L.LaneNs), "ns",
          L.LaneNs.size());
    SequentialSum += median(L.NsPerEvent);
  }
  double IngestNs = median(Ingest);
  const PassLog &Fan = P.log("fanout");
  M.add("api.ingest_ns_per_event", IngestNs, "ns", Ingest.size());
  M.add("api.fanout_stall_ns_per_event", median(Fan.IngestNs) - IngestNs,
        "ns", Fan.IngestNs.size());
  // Multi-threaded timings follow the host's contention on every vCPU,
  // too closely to be gated end to end (README.md, "Noise").
  double FanNs = median(Fan.NsPerEvent);
  M.add("api.fanout_ns_per_event", FanNs, "ns", Fan.NsPerEvent.size());
  M.add("api.fanout_speedup", FanNs > 0 ? SequentialSum / FanNs : 0, "ratio",
        Fan.NsPerEvent.size());

  // detectors: exact work counters of each offline lane.
  for (const char *E : Engines) {
    const Metrics &S = P.log(std::string("offline.") + E).FirstStats;
    std::string D = std::string("det.") + E + ".";
    M.exact(D + "full_clock_ops", S.FullClockOps);
    M.exact(D + "entries_traversed", S.EntriesTraversed);
    M.exact(D + "acquires_skipped", S.AcquiresSkipped);
    M.exact(D + "releases_skipped", S.ReleasesSkipped);
    M.exact(D + "deep_copies", S.DeepCopies);
    M.exact(D + "race_checks", S.RaceChecks);
    M.exact(D + "races_declared", S.RacesDeclared);
  }
  const Metrics &SO = P.log("offline.SO").FirstStats;
  M.exact("support.pool_hits.SO", SO.PoolHits);
  M.exact("support.cow_breaks.SO", SO.CowBreaks);

  // runtime: hook cost by class (traced passes), online wall, AO.
  for (const char *Mo : {"ET", "FT", "ST", "SU", "SO"}) {
    const PassLog &L = P.log(std::string("online.") + Mo);
    std::string R = std::string("rt.") + Mo + ".";
    M.add(R + "access_ns_per_op", median(L.AccessNsPerOp), "ns",
          L.AccessNsPerOp.size());
    M.add(R + "sync_ns_per_op", median(L.SyncNsPerOp), "ns",
          L.SyncNsPerOp.size());
  }
  const PassLog &FT = P.log("online.FT");
  M.add("rt.FT.ns_per_event", median(FT.NsPerEvent), "ns",
        FT.NsPerEvent.size());
  double Et = median(P.log("online.ET").NsPerEvent);
  double AoST = median(P.log("online.ST").NsPerEvent) - Et;
  for (const char *Mo : {"ST", "SU", "SO"}) {
    const PassLog &L = P.log(std::string("online.") + Mo);
    double Ao = median(L.NsPerEvent) - Et;
    M.add(std::string("rt.ao_ns_per_event.") + Mo, Ao, "ns",
          L.NsPerEvent.size());
    if (std::strcmp(Mo, "ST") != 0)
      M.add(std::string("rt.ao_improvement.") + Mo,
            AoST != 0 ? 1.0 - Ao / AoST : 0, "ratio", L.NsPerEvent.size());
  }
  for (const char *Mo : {"ST", "SU", "SO"})
    M.exact(std::string("rt.") + Mo + ".races",
            P.log(std::string("online.") + Mo).FirstRaces);
  M.exact("rt.SO.deep_copies", P.log("online.SO").FirstStats.DeepCopies);

  // The upload rate and tail, like the fan-out, are not gated.
  std::vector<double> Rate, P99;
  uint64_t Uploads = 0;
  for (const FleetBlock &B : F.blocks()) {
    Rate.push_back(static_cast<double>(B.Uploads - B.Failed) / B.Seconds);
    P99.push_back(B.P99Ms);
    Uploads += B.Uploads;
  }
  M.add("triaged.uploads_per_s", median(Rate), "1/s", Uploads);
  M.add("triaged.upload_p99_ms", median(P99), "ms", Uploads);
  triaged::ServerStats St = In.Server->stats();
  M.add("triaged.connections_shed", static_cast<double>(St.ConnectionsShed),
        "count");
  M.add("triaged.uploads_rejected", static_cast<double>(St.UploadsRejected),
        "count");

  // Tracing overhead: traced vs untraced medians over every configuration.
  double Traced = 0, Untraced = 0;
  for (const PassLog &L : P.logs()) {
    Traced += median(L.TracedNsPerEvent);
    Untraced += median(L.NsPerEvent);
  }
  M.add("tracing_overhead_pct",
        Untraced > 0 ? 100.0 * (Traced / Untraced - 1.0) : 0, "%");
  M.add("checks.pass_rate",
        C.attempted()
            ? static_cast<double>(C.attempted() - C.failed()) /
                  static_cast<double>(C.attempted())
            : 0,
        "ratio", C.attempted());
}

void printMetric(const Metric &M) {
  std::printf("metric %-36s %14s %-5s n=%zu%s\n", M.Name.c_str(),
              number(M.Value).c_str(), M.Unit.c_str(), M.Samples,
              M.Exact ? " exact" : "");
}

std::string metricsObject(const MetricSet &M) {
  std::string S = "{";
  for (const Metric &X : M.all()) {
    if (S.size() > 1)
      S += ", ";
    S += quoted(X.Name) + ": {\"value\": " + number(X.Value) +
         ", \"unit\": " + quoted(X.Unit) + "}";
  }
  return S + "}";
}

std::string detailJson(const Options &O, uint64_t Digest, const Checks &C,
                       const MetricSet &E2e, const MetricSet &Layer) {
  std::string S = "{\"host\": " + hostRecordJson(O) +
                  ", \"trace_digest\": \"" + std::to_string(Digest) +
                  "\", \"checks\": {\"attempted\": " +
                  std::to_string(C.attempted()) +
                  ", \"failed\": " + std::to_string(C.failed()) +
                  ", \"failures\": [";
  for (size_t I = 0; I < C.failures().size(); ++I)
    S += (I ? ", " : "") + quoted(C.failures()[I]);
  S += "]}, \"metrics\": [";
  bool First = true;
  for (const MetricSet *Set : {&E2e, &Layer})
    for (const Metric &M : Set->all()) {
      S += (First ? "" : ", ") + std::string("{\"name\": ") + quoted(M.Name) +
           ", \"value\": " + number(M.Value) + ", \"unit\": " +
           quoted(M.Unit) + ", \"samples\": " + std::to_string(M.Samples) +
           ", \"exact\": " + (M.Exact ? "true" : "false") +
           ", \"end_to_end\": " + (Set == &E2e ? "true" : "false") + "}";
      First = false;
    }
  return S + "]}\n";
}

void writeFile(const std::filesystem::path &P, const std::string &Bytes) {
  std::ofstream Os(P, std::ios::binary | std::ios::trunc);
  Os << Bytes;
  if (!Os)
    std::fprintf(stderr, "e2ebench: cannot write %s\n", P.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (int Rc = parseArgs(Argc, Argv, O))
    return Rc;
  std::optional<WorkloadSpec> W = findWorkload(O.Workload, O.Tiny);
  if (!W)
    return usage(("unknown workload '" + O.Workload + "'").c_str());

  std::unique_ptr<prof::Profiler> Prof;
  prof::Tree *PT = nullptr;
  if (O.Trace) {
    Prof = std::make_unique<prof::Profiler>();
    PT = Prof->makeTree("bench");
  }
  Checks C;
  MetricSet E2e, Layer;

  std::vector<double> SetupS, GenS;
  std::unique_ptr<Inputs> In;
  for (unsigned R = 0; R < SetupReps; ++R) {
    In.reset();
    prof::Scope Span(PT, "setup");
    uint64_t T0 = prof::nowNanos();
    std::string Err;
    In = setUp(*W, O.Seed, &Err);
    if (!In) {
      std::fprintf(stderr, "e2ebench: set-up failed: %s\n", Err.c_str());
      return 1;
    }
    SetupS.push_back(static_cast<double>(prof::nowNanos() - T0) / 1e9);
    GenS.push_back(static_cast<double>(In->GenNanos) / 1e9);
  }
  uint64_t Digest = traceDigest(In->T);
  std::printf("host %s\n", hostRecordJson(O).c_str());
  std::printf("trace %zu events, %zu threads, %zu syncs, %zu vars, digest "
              "%llu; corpus %zu runs\n",
              In->T.size(), In->T.numThreads(), In->T.numSyncs(),
              In->T.numVars(), static_cast<unsigned long long>(Digest),
              In->Corpus.size());
  std::fflush(stdout);

  if (O.Trace) {
    LayerContext X{*W, O.Seed, *In, Layer, C, PT};
    measureTraceLayer(X);
    measureSamplingLayer(X);
    measureSupportLayer(X);
    measureTriageLayer(X);
    measureTriagedLayer(X);
  }

  api::SessionConfig Base = sessionConfig(*W, O.Seed, In->T.numThreads());
  PassRunner P(In->T, Base, O.Trace, C);
  FleetLoop F(*In, *W, Prof.get());

  // Warm-up, not measured: uploads first, so the warm-up passes also
  // absorb the disturbance the upload threads leave behind.
  F.runFor(FleetWarmUpNanos, false);
  F.resetStats();
  for (size_t I = 0; I < P.size(); ++I)
    P.run(I, false, PT);
  P.crossCheck();
  P.resetTimings();

  // The window alternates blocks of pass rounds with blocks of the fleet
  // loop, so each samples the host's slow and fast stretches alike. Blocks
  // are long: the uploads' thousands of short-lived connections and four
  // busy threads disturb the passes that follow them.
  const double BlockNs = O.Seconds * 1e9 / Blocks;
  int64_t PassHeap = 0;
  for (unsigned B = 0; B < Blocks; ++B) {
    // Heap the passes add above what is live when their block starts: the
    // server's store grows with the upload count, so an absolute peak would
    // follow the fleet's throughput.
    int64_t Base = heap::liveBytes();
    heap::resetPeak();
    uint64_t PassEnd =
        prof::nowNanos() + static_cast<uint64_t>(BlockNs * (1 - FleetShare));
    for (size_t Round = 0; prof::nowNanos() < PassEnd; ++Round) {
      bool Traced = O.Trace && Round % 2 == 1;
      for (size_t K = 0; K < P.size(); ++K)
        P.run((K + Round) % P.size(), Traced, PT);
    }
    PassHeap = std::max(PassHeap, heap::peakBytes() - Base);
    F.runFor(static_cast<uint64_t>(BlockNs * FleetShare), O.Trace && B % 2);
  }
  F.check(C);

  endToEnd(P, F, SetupS, PassHeap, E2e);
  if (O.Trace)
    perLayer(P, F, *In, GenS, C, Layer);

  for (const Metric &M : E2e.all())
    printMetric(M);
  for (const Metric &M : Layer.all())
    printMetric(M);
  for (const std::string &Why : C.failures())
    std::printf("check FAILED: %s\n", Why.c_str());
  std::printf("checks %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(C.attempted()),
              static_cast<unsigned long long>(C.failed()));

  std::error_code Ec;
  std::filesystem::path Out(O.OutDir);
  std::filesystem::create_directories(Out, Ec);
  std::string Stem = W->Name + (O.Tiny ? ".tiny" : "");
  writeFile(Out / (Stem + ".trace" + (O.Trace ? "1" : "0") + ".json"),
            detailJson(O, Digest, C, E2e, Layer));
  if (O.Trace) {
    // The program's own prof reports, attached as they are: one profiled
    // fan-out session and the server's request spans.
    api::SessionConfig Profiled = Base;
    Profiled.Engines = {EngineKind::FastTrack, EngineKind::SamplingNaive,
                        EngineKind::SamplingU, EngineKind::SamplingO};
    Profiled.NumWorkers = 2;
    Profiled.ProfilingEnabled = true;
    api::AnalysisSession S(Profiled);
    api::SessionResult R = S.run(In->T);
    std::unique_ptr<prof::Profiler> SessionProf = S.takeProfiler();
    writeFile(Out / (Stem + ".prof.txt"),
              "== e2ebench (benchmark-side spans) ==\n" +
                  prof::toText(Prof->report()) +
                  "\n== session (fanout, profiled) ==\n" +
                  prof::toText(R.Profile) + "\n== triaged ==\n" +
                  prof::toText(In->Server->profiler()->report()));
    std::vector<prof::TraceSource> Sources = {
        {Prof.get(), "e2ebench"},
        {In->Server->profiler(), "triaged"},
        {SessionProf.get(), "session"}};
    writeFile(Out / (Stem + ".chrome.json"), prof::toChromeTrace(Sources));
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              C.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(C.attempted()),
              static_cast<unsigned long long>(C.failed()),
              metricsObject(O.Trace ? Layer : E2e).c_str());
  return 0;
}
