//===- e2ebench/src/Bench.h - End-to-end benchmark shared types -*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types shared by the benchmark's translation units: command-line options,
/// the metric and check ledgers, workload specifications, the inputs set-up
/// builds, and the entry points of each measured phase. The benchmark drives
/// SampleTrack only through its public headers.
///
//===----------------------------------------------------------------------===//

#ifndef E2EBENCH_BENCH_H
#define E2EBENCH_BENCH_H

#include "sampletrack/SampleTrack.h"
#include "sampletrack/support/FaultInjectionFs.h"
#include "sampletrack/triaged/Server.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace e2e {

using namespace sampletrack;

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  unsigned Seconds = 0;
  bool Trace = false;
  /// Smoke-test sizes: every phase runs, on inputs ~50x smaller.
  bool Tiny = false;
  /// Where the detail record, chrome trace and prof report are written.
  std::string OutDir = ".bench_out";
  /// Provenance strings supplied by the launcher.
  std::string Commit = "unknown";
  std::string SourceDigest = "unknown";
};

/// One reported metric. Samples is the number of measurements the value
/// summarizes (passes, uploads, ...); Exact marks deterministic counters
/// that must repeat bit-for-bit for a given seed.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
  size_t Samples = 1;
  bool Exact = false;
};

class MetricSet {
public:
  void add(std::string Name, double Value, std::string Unit,
           size_t Samples = 1) {
    Items.push_back({std::move(Name), Value, std::move(Unit), Samples, false});
  }
  void exact(std::string Name, uint64_t Value, std::string Unit = "count") {
    Items.push_back({std::move(Name), static_cast<double>(Value),
                     std::move(Unit), 1, true});
  }
  const std::vector<Metric> &all() const { return Items; }

private:
  std::vector<Metric> Items;
};

/// Correctness ledger behind `correct`, `attempted`, `failed` and
/// checks.pass_rate. Every pass repeat, upload and cross-check is one
/// attempt.
class Checks {
public:
  /// Records one check; a failure keeps \p What for the report.
  void expect(bool Ok, const std::string &What) { tally(1, Ok ? 0 : 1, What); }
  /// Records \p Attempted checks of one kind, \p Failed of which failed.
  void tally(uint64_t Attempted, uint64_t Failed, const std::string &What);
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }
  const std::vector<std::string> &failures() const { return Failures; }

private:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures;
};

/// A workload: the analyzed trace's shape and sampling rate, plus the shape
/// and mix of the fleet uploads driven against triaged.
struct WorkloadSpec {
  std::string Name;
  GenConfig Shape;
  /// Bernoulli rate; 1.0 selects SamplerKind::Always (no coin is drawn).
  double SamplingRate = 0.003;
  /// Shape of each fleet-corpus trace (seeds vary per corpus run).
  GenConfig UploadShape;
  size_t CorpusRuns = 24;
  /// Of every SummaryEvery passes over the corpus, one uploads each run's
  /// pre-deduplicated summary and the rest its binary trace.
  unsigned SummaryEvery = 4;
};

/// The named workload (sizes shrunk when \p Tiny), or nullopt.
std::optional<WorkloadSpec> findWorkload(const std::string &Name, bool Tiny);

/// The sampling session configuration every pass of \p W shares.
api::SessionConfig sessionConfig(const WorkloadSpec &W, uint64_t Seed,
                                 size_t NumThreads);

/// One fleet-corpus run, ready to upload either way.
struct CorpusItem {
  Trace T;
  /// Upload frames (what Client::post sends as the body).
  std::string TraceFrame, SummaryFrame;
  /// fleetAnalysisConfig() analysis of T, done in-process at set-up.
  triage::TriageSummary Summary;
};

/// Everything set-up builds: the analyzed trace, the fleet corpus and a
/// running triaged server whose durable store lives in memory.
struct Inputs {
  Trace T;
  uint64_t GenNanos = 0;
  std::vector<CorpusItem> Corpus;
  /// Declared before Server: the server's store writes through it.
  support::FaultInjectionFs StoreFs;
  std::unique_ptr<triaged::Server> Server;
};

/// Builds the inputs for \p W from \p Seed and starts the server. Returns
/// null with \p Error set on failure.
std::unique_ptr<Inputs> setUp(const WorkloadSpec &W, uint64_t Seed,
                              std::string *Error);

/// FNV-1a digest of a trace's universes and events (the smoke test checks
/// that another seed changes it).
uint64_t traceDigest(const Trace &T);

/// Median of \p V (0 when empty); \p V is reordered.
double median(std::vector<double> V);
/// The \p Q quantile (0..1, nearest-rank) of \p V; \p V is reordered.
double quantile(std::vector<double> V, double Q);

/// Heap accounting (Heap.cpp replaces the global allocation functions).
namespace heap {
int64_t liveBytes();
int64_t peakBytes();
/// Restarts peak tracking from the current live size.
void resetPeak();
} // namespace heap

/// Host and build provenance as one JSON object.
std::string hostRecordJson(const Options &O);

/// Per-layer measurements of the traced run. Each times one layer's own
/// functions on the set-up inputs and checks their outputs.
struct LayerContext {
  const WorkloadSpec &W;
  uint64_t Seed;
  Inputs &In;
  MetricSet &M;
  Checks &C;
  prof::Tree *PT;
};
void measureTraceLayer(const LayerContext &X);
void measureSamplingLayer(const LayerContext &X);
void measureSupportLayer(const LayerContext &X);
void measureTriageLayer(const LayerContext &X);
void measureTriagedLayer(const LayerContext &X);

} // namespace e2e

#endif // E2EBENCH_BENCH_H
