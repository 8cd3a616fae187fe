//===- sampletrack/api/AnalysisSession.h - Composable pipeline -*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unified analysis pipeline: one event source (an in-memory Trace, a
/// streamed trace file, or live instrumentation hooks), one shared sampling
/// decision stream, and any number of detector lanes fanned out over a
/// single traversal of the source.
///
/// \code
///   api::SessionConfig Cfg;
///   Cfg.Engines = {EngineKind::SamplingNaive, EngineKind::SamplingO};
///   Cfg.SamplingRate = 0.03;
///   api::SessionResult R = api::AnalysisSession(Cfg).run(T);
///   std::puts(api::toJson(R).c_str());
/// \endcode
///
/// Because every lane consumes the same per-event decision, K engines in
/// one session see the identical sample set S that K one-engine sessions
/// with the same seed would see (appendix A.1), while the trace is read
/// exactly once instead of K times. Ingestion is batched
/// (\ref AnalysisSession::process over a span); the single-event overload
/// remains as a compatibility shim for per-event producers.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_API_ANALYSISSESSION_H
#define SAMPLETRACK_API_ANALYSISSESSION_H

#include "sampletrack/api/SessionConfig.h"
#include "sampletrack/prof/Profiler.h"
#include "sampletrack/trace/Trace.h"
#include "sampletrack/triage/RaceSink.h"

#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace sampletrack {
namespace api {

/// Largest thread-clock footprint, in bytes, one engine lane may size for
/// its thread universe: T clocks of T components each, at
/// clockBytesPerComponent bytes per component. A trace's header or largest
/// thread id is outside input, so \ref AnalysisSession::begin refuses a
/// larger universe, with a reason, before anything is allocated. 1 GiB
/// admits T up to 11,585 for Djit+, FT and ST, 8,192 for SU, 6,688 for SO
/// and 5,181 for TC.
inline constexpr uint64_t MaxClockBytesPerEngine = uint64_t(1) << 30;

/// Structured result of one detector lane over one session run.
struct EngineRun {
  /// Engine name as used in the paper ("FT", "ST", ...).
  std::string Engine;
  /// The shared sampler's configuration string.
  std::string SamplerName;
  Metrics Stats;
  uint64_t NumRaces = 0;
  uint64_t NumRacyLocations = 0;
  /// Distinct race signatures this lane's sink deduplicated NumRaces
  /// declarations into.
  uint64_t DistinctRaces = 0;
  /// Number of access events placed in S (identical across lanes).
  uint64_t SampleSize = 0;
  /// Wall-clock nanoseconds spent inside this lane's detector.
  uint64_t WallNanos = 0;
  /// The deduplicated race exemplars (first report per signature, in
  /// first-seen order; signatures beyond the sink capacity are missing if
  /// RacesTruncated is set). Only populated for session-owned engine
  /// lanes; a lane added via addDetector leaves this empty because the
  /// caller still holds the detector and its races().
  std::vector<RaceReport> Races;
  bool RacesTruncated = false;

  /// Memberwise equality, including the nondeterministic WallNanos; strip
  /// timing first (\ref stripTiming) to compare runs for determinism.
  bool operator==(const EngineRun &O) const = default;
};

/// Result of one session run: one EngineRun per lane, in lane order, plus
/// stream-level totals.
struct SessionResult {
  std::vector<EngineRun> Engines;
  /// The run's race-warehouse view: every lane's sink merged in lane order
  /// (hits accumulate per signature, first lane's exemplar wins). Feed it
  /// to triage::TriageStore::mergeRun — or api::runTriage, which also
  /// handles persistence and suppressions — for the cross-run workflow.
  triage::TriageSummary Triage;
  /// Events ingested from the source (each lane saw all of them).
  uint64_t EventsProcessed = 0;
  /// Thread-universe size the detectors were built with.
  size_t NumThreads = 0;
  /// Lane worker threads the run actually used (0 = sequential mode).
  size_t NumWorkers = 0;
  /// End-to-end wall-clock nanoseconds, begin() to finish().
  uint64_t WallNanos = 0;
  /// Nanoseconds the ingest thread spent drawing sampling decisions and (in
  /// parallel mode) handing batches off to the workers. In sequential mode
  /// this is pure sampling cost; in parallel mode it also absorbs
  /// back-pressure stalls when the slowest lane falls behind.
  uint64_t IngestNanos = 0;
  /// Merged span profile (empty unless SessionConfig::ProfilingEnabled).
  /// The tree's shape, counts and counters are deterministic — identical
  /// across worker counts — and the same single measurements
  /// feed the legacy fields: session/ingest's nanos are IngestNanos,
  /// session/analyze/<engine>'s nanos are that lane's WallNanos. Strip
  /// timing (\ref stripTiming) before comparing runs.
  prof::Report Profile;

  /// Lane lookup by engine name; nullptr if absent.
  const EngineRun *find(const std::string &Engine) const;

  /// Memberwise equality, including the nondeterministic timing fields;
  /// strip timing first (\ref stripTiming) to compare runs for determinism.
  bool operator==(const SessionResult &O) const = default;
};

/// Returns \p R with every execution-shape field zeroed: the wall-clock
/// fields (WallNanos, IngestNanos, per-lane WallNanos, every nanosecond in
/// the Profile tree) and the NumWorkers echo. Two runs of an identically
/// configured session are guaranteed byte-identical after stripping, for
/// any worker count — the determinism contract the tests enforce.
SessionResult stripTiming(SessionResult R);

/// Builder-style analysis pipeline. Configure (engines, sampling), then
/// either hand it a whole source (\ref run, \ref runFile) — one traversal,
/// however many lanes — or drive it incrementally with
/// \ref begin / \ref process / \ref finish.
///
/// The ingest side is single-threaded: callers feeding events from several
/// threads serialize through \ref SessionHooks. With
/// SessionConfig::NumWorkers > 0 the lanes themselves run on worker
/// threads behind a bounded hand-off ring; each lane (detector) is still
/// driven by exactly one thread in trace order, so no detector state is
/// ever shared.
class AnalysisSession {
public:
  AnalysisSession(); // Out of line: ParallelExecutor is incomplete here.
  explicit AnalysisSession(SessionConfig C);
  /// Joins any still-running lane workers (a session abandoned without
  /// finish() must not leak threads).
  ~AnalysisSession();

  // -- Builder ----------------------------------------------------------
  AnalysisSession &configure(SessionConfig C);
  AnalysisSession &addEngine(EngineKind K);
  AnalysisSession &addEngines(std::span<const EngineKind> Kinds);
  /// Adds a caller-owned detector lane (for harnesses that inspect or
  /// pre-configure a detector). The detector must outlive the run and is
  /// single-use.
  AnalysisSession &addDetector(Detector &D);
  /// Replaces the config-made sampler with a caller-owned one (borrowed) or
  /// a session-owned one. Decisions are drawn once per access event and
  /// shared by every lane.
  AnalysisSession &withSampler(Sampler &S);
  AnalysisSession &withSampler(std::unique_ptr<Sampler> S);

  const SessionConfig &config() const { return Cfg; }

  // -- Incremental ingestion -------------------------------------------
  /// Materializes the lanes and the sampler. The thread-universe size is
  /// Config.NumThreads when nonzero (an explicit override always wins),
  /// else \p NumThreads (the source-derived size), else Config.MaxThreads
  /// (the live-hook fallback). Fails if already active, if no lane is
  /// configured, or if the universe's clocks would exceed
  /// \ref MaxClockBytesPerEngine.
  bool begin(size_t NumThreads = 0, std::string *Error = nullptr);
  bool active() const { return Active; }
  /// Thread-universe size of the active run (0 when inactive).
  size_t numThreads() const { return Active ? RunThreads : 0; }

  /// Batched hot path: draws the sampling decision for every access in
  /// \p Batch once, then feeds the batch to every lane.
  void process(std::span<const Event> Batch);
  /// Compatibility shim for per-event producers. With NumWorkers > 0 each
  /// call pays a full ring hand-off for a one-event batch — correct, but
  /// far slower than sequential mode; per-event sources (SessionHooks
  /// included) should keep NumWorkers = 0 or batch upstream.
  void process(const Event &E) { process(std::span<const Event>(&E, 1)); }

  /// Tears down the run and returns the per-lane results.
  SessionResult finish();

  // -- One-shot sources (each is a single traversal) -------------------
  /// In-memory source. Returns false, with the reason in \p Error when
  /// nonnull, if begin() fails.
  bool run(const Trace &T, SessionResult &Out, std::string *Error = nullptr);
  /// In-memory source. Returns an empty result if begin() would fail.
  SessionResult run(const Trace &T);
  /// Streamed source: binary traces are decoded incrementally in
  /// Config.BatchSize chunks (the whole trace is never materialized); text
  /// traces, whose header carries no universe sizes, are loaded in-memory
  /// first. Returns false on malformed input or a begin() failure.
  bool run(std::istream &Is, SessionResult &Out, std::string *Error = nullptr);
  /// Streamed source from a file, with format auto-detection.
  bool runFile(const std::string &Path, SessionResult &Out,
               std::string *Error = nullptr);

  // -- Self-profiling ---------------------------------------------------
  /// The last run's profiler (timelines for prof::toChromeTrace), alive
  /// until the next begin(). Null unless Config.ProfilingEnabled.
  prof::Profiler *profiler() { return Prof.get(); }
  /// Transfers ownership of the profiler (e.g. to outlive the session for
  /// trace export). The next profiled begin() makes a fresh one.
  std::unique_ptr<prof::Profiler> takeProfiler() { return std::move(Prof); }

private:
  /// One detector lane (one EngineRun), driven through D->processBatch.
  struct Lane {
    Detector *D = nullptr;
    /// Set for session-owned lanes; null for a borrowed (addDetector) one.
    std::unique_ptr<Detector> Owned;
    uint64_t Nanos = 0;
    /// Profiling (null when disabled): the driving thread's tree and this
    /// lane's session/analyze/<engine> node in it, assigned by whichever
    /// thread owns the lane (ingest thread in sequential mode, the owning
    /// worker in parallel mode).
    prof::Tree *PT = nullptr;
    prof::NodeId PNode = 0;
  };

  /// The parallel lane engine (defined in AnalysisSession.cpp): a bounded
  /// single-producer broadcast ring plus one thread per worker, each worker
  /// owning a fixed subset of lanes.
  class ParallelExecutor;

  SessionConfig Cfg;
  std::vector<Detector *> BorrowedDetectors;
  Sampler *BorrowedSampler = nullptr;
  std::unique_ptr<Sampler> OwnedSampler;

  // Active-run state.
  bool Active = false;
  /// Set while feeding from a source that outlives the run (an in-memory
  /// Trace): parallel hand-off then ships spans of the caller's memory
  /// instead of copying each batch into the ring.
  bool StableSource = false;
  std::vector<Lane> Lanes;
  std::unique_ptr<ParallelExecutor> Par;
  Sampler *S = nullptr;
  std::vector<uint8_t> Decisions;
  uint64_t SampleSize = 0;
  uint64_t EventsProcessed = 0;
  uint64_t IngestNanos = 0;
  size_t RunThreads = 0;
  size_t RunWorkers = 0;
  uint64_t StartNanos = 0;

  // Self-profiling state (all null/0 unless Cfg.ProfilingEnabled). The
  // profiler outlives finish() so callers can export the timeline; a new
  // begin() replaces it.
  std::unique_ptr<prof::Profiler> Prof;
  prof::Tree *IngestTree = nullptr;
  prof::NodeId SessionNode = 0;
  prof::NodeId IngestNode = 0;
  prof::NodeId DecodeNode = 0;
  prof::NodeId FinishNode = 0;
};

/// Live event source: translates instrumentation hooks (the rt::Runtime
/// hook vocabulary) into session events, serializing concurrent callers
/// through one mutex. This is deliberately the cheap-and-correct adapter —
/// the contended-performance path remains rt::Runtime; SessionHooks is for
/// feeding the offline engines from a live program or simulator. Emits one
/// event per hook, so pair it with a sequential session (NumWorkers = 0);
/// see the per-event process() shim's note.
class SessionHooks {
public:
  /// The session must already be begun (with capacity for every thread id
  /// that will register). Hooks naming a thread outside the session's
  /// universe — NoThread included, and a fork/join child too — are
  /// dropped.
  explicit SessionHooks(AnalysisSession &Session) : Session(Session) {}

  /// Dense thread ids; 0 is pre-registered as the main thread. Returns
  /// NoThread once the session's thread universe is exhausted.
  ThreadId registerThread();
  SyncId registerSync();

  void onRead(ThreadId T, VarId X);
  void onWrite(ThreadId T, VarId X);
  void onAcquire(ThreadId T, SyncId L);
  void onRelease(ThreadId T, SyncId L);
  void onFork(ThreadId Parent, ThreadId Child);
  void onJoin(ThreadId Parent, ThreadId Child);
  void onReleaseStore(ThreadId T, SyncId Sy);
  void onReleaseJoin(ThreadId T, SyncId Sy);
  void onAcquireLoad(ThreadId T, SyncId Sy);

private:
  void emit(const Event &E);

  AnalysisSession &Session;
  std::mutex M;
  ThreadId NextThread = 1;
  SyncId NextSync = 0;
};

} // namespace api
} // namespace sampletrack

#endif // SAMPLETRACK_API_ANALYSISSESSION_H
