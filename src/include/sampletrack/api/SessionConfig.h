//===- sampletrack/api/SessionConfig.h - Pipeline configuration -*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One configuration record for the analysis pipeline: engine set,
/// sampling, ingestion and triage knobs, plus the ones an online Runtime
/// shares with it (rate, seed, clock size, triage capacity, profiling), so
/// an AnalysisSession, an online Runtime and a bench harness can all be
/// driven from the same record. Knobs only the online runtime has (shadow
/// table geometry, recording) stay on rt::Config.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_API_SESSIONCONFIG_H
#define SAMPLETRACK_API_SESSIONCONFIG_H

#include "sampletrack/detectors/DetectorFactory.h"
#include "sampletrack/runtime/Runtime.h"
#include "sampletrack/sampling/Sampler.h"

#include <memory>
#include <vector>

namespace sampletrack {
namespace api {

/// Which sampling strategy the session instantiates (Section 3's Sampling
/// Problem). All engines of one session share one decision stream, so they
/// see the identical sample set S (appendix A.1's apples-to-apples rule).
enum class SamplerKind : uint8_t {
  Always,    ///< Every access is in S (full detection).
  Never,     ///< Empty S; isolates streaming overhead.
  Bernoulli, ///< Independent coin per access at SamplingRate (the paper's
             ///< strategy). A rate >= 1.0 degrades to Always so runs stay
             ///< deterministic.
  Periodic,  ///< Every SamplePeriod-th access (deterministic; tests).
  Marked,    ///< Replay the Marked bits carried by the trace.
};

/// Printable name ("always", "bernoulli", ...).
const char *samplerKindName(SamplerKind K);

/// Configuration of an analysis pipeline: which engines run, how the sample
/// set is chosen, and how the (optional) online runtime is shaped.
struct SessionConfig {
  /// Engines fanned out over the event stream, in presentation order.
  std::vector<EngineKind> Engines;

  // -- Sampling ---------------------------------------------------------
  SamplerKind Sampling = SamplerKind::Bernoulli;
  /// Bernoulli rate (fraction of accesses in S).
  double SamplingRate = 0.03;
  /// Seed for the Bernoulli decision stream.
  uint64_t Seed = 1;
  /// Period for SamplerKind::Periodic.
  uint64_t SamplePeriod = 32;

  // -- Ingestion --------------------------------------------------------
  /// Events decoded per batch when streaming from a file/istream source.
  size_t BatchSize = 4096;
  /// Detector-lane worker threads. 0 runs every lane inline on the ingest
  /// thread (the classic sequential mode); N > 0 fans batches out to
  /// min(N, #lanes) workers over a bounded hand-off ring, each worker
  /// owning a fixed subset of lanes. The sampler always runs on the ingest
  /// thread and its decision stream is shipped alongside each batch, so
  /// every lane sees the identical event + decision sequence regardless of
  /// the worker count: results are bit-identical to sequential mode by
  /// construction (only wall-clock timing fields differ). Lanes are the
  /// unit of parallelism: one engine lane is one detector on one thread.
  size_t NumWorkers = 0;
  /// Thread-universe size for detector construction. 0 means "derive from
  /// the source" (trace header or Trace::numThreads); live-hook sessions
  /// fall back to MaxThreads.
  size_t NumThreads = 0;

  // -- Race triage (the warehouse workflow) -----------------------------
  /// Distinct-signature capacity of every lane's race sink (0 = the
  /// detector default, ~1M). Duplicate declarations dedup and never
  /// truncate; only exceeding this many *distinct* signatures sets
  /// racesTruncated. Also forwarded to the online runtime's per-thread
  /// sinks via \ref runtimeConfig.
  size_t TriageCapacity = 0;
  /// Cross-run warehouse file for api::runTriage: loaded (if present)
  /// before the run's summary is merged, saved after. Empty disables
  /// persistence (the merge still classifies against an empty store).
  std::string TriageStorePath;
  /// Optional suppression list for api::runTriage: one hex race signature
  /// per line, '#' comments. Suppressed signatures never surface as new.
  std::string SuppressionFile;

  // -- Online runtime shape ---------------------------------------------
  /// Fixed vector-clock size for the online runtime, and the live-hook
  /// thread capacity when NumThreads is 0.
  size_t MaxThreads = 64;

  // -- Self-profiling ---------------------------------------------------
  /// Build the hierarchical span profile (sampletrack/prof) while the
  /// session runs: per-phase and per-engine counts/nanos land in
  /// SessionResult::Profile (deterministic modulo nanos across worker
  /// counts), and the session's profiler is exposed for chrome-trace
  /// export. Off (the default) costs one pointer test per batch; analysis
  /// results are bit-identical either way. Also forwarded to the online
  /// runtime via \ref runtimeConfig.
  bool ProfilingEnabled = false;

  /// Instantiates the configured sampling strategy. Each call returns a
  /// fresh sampler whose decision stream starts over (so two sessions with
  /// equal configs see identical sample sets).
  std::unique_ptr<Sampler> makeSampler() const;

  /// Derives the rt::Runtime configuration for online mode \p M from the
  /// shared knobs (rate, seed, clock size, triage capacity, profiling); the
  /// runtime-only fields keep rt::Config's defaults.
  rt::Config runtimeConfig(rt::Mode M) const;
};

} // namespace api
} // namespace sampletrack

#endif // SAMPLETRACK_API_SESSIONCONFIG_H
