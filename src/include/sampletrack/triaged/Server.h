//===- sampletrack/triaged/Server.h - Fleet ingestion service --*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `triaged`: the race warehouse's multi-user front door. A dependency-free
/// HTTP/1.1 service that accepts run uploads from every CI shard and
/// production instance of a fleet, merges them into one crash-only
/// TriageLog behind a single mutex-guarded writer, and serves the
/// warehouse views straight off the existing exporters.
///
/// Endpoints:
///
///   POST /v1/runs                 upload one run (framed body, see Wire.h:
///                                 a binary trace — analyzed server-side —
///                                 or a pre-deduplicated signature summary)
///   GET  /v1/ranked[?n=N]         ranked text report (triage::toText)
///   GET  /v1/runs/{id}/classified per-run new/known/regressed breakdown
///   GET  /v1/suppressions         active suppressions, loadable as a
///                                 suppression file
///   GET  /v1/sarif                SARIF 2.1.0 log (triage::toSarif)
///   GET  /v1/dashboard            dashboard JSON (triage::toJson)
///   GET  /v1/stats                service counters
///   GET  /healthz                 liveness probe
///
/// Concurrency model: N connection workers parse requests and (for trace
/// uploads) run the full analysis session in parallel; the *merge* is a
/// single-writer critical section, so the store is never torn. An upload
/// may carry an `X-Sampletrack-Sequence: k` header (k = 1, 2, ...): the
/// writer then admits merges strictly in sequence order, holding early
/// arrivals until their predecessors land — N concurrent sequenced clients
/// produce a store byte-identical to sequential ingestion, the determinism
/// contract the tests pin. A sequence gap past the configured timeout
/// answers 409 without merging.
///
/// Durability: with a configured StorePath the warehouse is a TriageLog
/// *directory* — each accepted merge appends one fsynced record to the run
/// journal (O(run), not O(store)) before the 200 goes out, so a kill -9 at
/// any instant loses nothing acknowledged; a background thread folds the
/// journal into a new base segment when it outgrows the configured ratio,
/// off the request path. A legacy single-file store at StorePath migrates
/// in place on start. Restart replays the journal, so
/// /v1/runs/{id}/classified keeps answering for every journaled run.
///
/// Idempotency: an upload may carry `X-Sampletrack-Run-Id: <token>`. A
/// run id the warehouse has already merged is NOT merged again — the
/// original run's breakdown is returned with `"deduplicated": true` — so a
/// client that lost the response to a crash or broken pipe can retry
/// blindly without double-counting its run.
///
/// Overload behavior: connections past the pending-queue bound are
/// answered `503 Retry-After: 1` and closed (shed, not queued without
/// bound); a request not fully received within the per-request deadline is
/// answered 408 and disconnected (slowloris defense).
///
/// Lifecycle: `start` binds and serves (port 0 picks an ephemeral port,
/// reported by `port()`); `drain` stops accepting and lets in-flight
/// requests finish (every acknowledged merge is already durable); `stop`
/// drains then joins every thread.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_TRIAGED_SERVER_H
#define SAMPLETRACK_TRIAGED_SERVER_H

#include "sampletrack/api/SessionConfig.h"
#include "sampletrack/prof/Profiler.h"
#include "sampletrack/support/FileSystem.h"
#include "sampletrack/support/LatencyHistogram.h"
#include "sampletrack/triage/TriageLog.h"
#include "sampletrack/triage/TriageStore.h"
#include "sampletrack/triaged/Http.h"
#include "sampletrack/triaged/Wire.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace sampletrack {
namespace triaged {

/// The canonical fleet analysis configuration: the engine pair and full
/// sampling the race_triage gate has always used. Server-side trace
/// analysis, `tracegen_tool --summary`, and the client-side summary path
/// must all agree on it, or the same trace would upload to different
/// signatures depending on the content type.
api::SessionConfig fleetAnalysisConfig();

struct ServerConfig {
  /// Loopback by default: triaged fronts a warehouse, not the internet.
  std::string BindAddress = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (see Server::port()).
  uint16_t Port = 0;
  /// Warehouse store *directory* (see triage::TriageLog). A legacy
  /// single-file store here migrates on start. Empty = in-memory only.
  std::string StorePath;
  /// Optional suppression list applied at start (one hex signature per
  /// line, '#' comments).
  std::string SuppressionFile;
  /// File-operations seam for the store; nullptr = the real filesystem
  /// (crash tests run the whole server against a FaultInjectionFs).
  support::FileSystem *Fs = nullptr;
  /// Journal-to-base ratio past which the background thread compacts.
  double CompactionRatio = 0.5;
  /// Journal floor below which compaction never triggers.
  uint64_t MinCompactionBytes = 64 << 10;
  /// SARIF driver version for /v1/sarif.
  std::string ToolVersion = "1.0.0";
  /// How binary-trace uploads are analyzed (engines, sampling). The triage
  /// knobs (store path, suppressions) are the *server's*, not this
  /// config's — its TriageStorePath/SuppressionFile are ignored.
  api::SessionConfig Analysis = fleetAnalysisConfig();
  /// Connection worker threads (>= 1).
  size_t NumWorkers = 4;
  HttpLimits Limits;
  /// Idle keep-alive connections (no request in progress) are closed after
  /// this long.
  uint64_t IdleTimeoutMillis = 5000;
  /// How long a sequenced upload waits for its predecessors before 409.
  uint64_t SequenceTimeoutMillis = 10000;
  /// Accepted connections waiting for a worker beyond this are shed with
  /// 503 + Retry-After instead of queued without bound. 0 = unbounded.
  size_t MaxQueueDepth = 256;
  /// Self-profiling: per-worker span trees (request/<route> spans with the
  /// upload stage breakdown underneath) and per-route request-latency
  /// histograms, both served by /v1/stats. On by default — the cost is one
  /// clock read per request stage, negligible at HTTP granularity.
  bool ProfilingEnabled = true;
};

/// Monotonic service counters, served by /v1/stats. Plain values — the
/// server keeps them in atomics and snapshots under the writer lock.
struct ServerStats {
  uint64_t ConnectionsAccepted = 0;
  uint64_t ConnectionsShed = 0;
  uint64_t RequestsServed = 0;
  uint64_t RequestTimeouts = 0;
  uint64_t UploadsAccepted = 0;
  uint64_t UploadsRejected = 0;
  uint64_t UploadsDeduplicated = 0;
  uint64_t TraceUploads = 0;
  uint64_t SummaryUploads = 0;
  uint64_t BytesIngested = 0;
  uint64_t EventsAnalyzed = 0;
  uint64_t RacesDeclared = 0;
  uint64_t BadRequests = 0;
  uint64_t NotFound = 0;
  uint64_t SequenceTimeouts = 0;
  /// From the TriageLog: journal bytes fsynced for accepted runs, bytes
  /// written by compactions, and compaction count.
  uint64_t BytesAppended = 0;
  uint64_t BytesCompacted = 0;
  uint64_t Compactions = 0;
};

/// What one accepted upload did to the warehouse — kept per run so
/// /v1/runs/{id}/classified can answer after the fact (rebuilt from the
/// journal on restart), and returned to the uploader as the POST response
/// body.
struct RunRecord {
  /// Store run index (1-based, matches TriageStore::runCount()).
  uint32_t Run = 0;
  /// The upload's X-Sampletrack-Run-Id, if it carried one.
  std::string RunId;
  WireContent Content = WireContent::BinaryTrace;
  /// True only in the response to a *retried* upload whose run id had
  /// already merged; stored records keep it false.
  bool Deduplicated = false;
  uint64_t Declared = 0;
  uint64_t Distinct = 0;
  uint64_t NewCount = 0;
  uint64_t KnownCount = 0;
  uint64_t RegressedCount = 0;
  uint64_t SuppressedCount = 0;
  /// Hex signatures classified New / Regressed by this run's merge.
  std::vector<std::string> NewSigs;
  std::vector<std::string> RegressedSigs;
};

class Server {
public:
  explicit Server(ServerConfig C);
  /// Stops the service if still running.
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Opens the store directory (creating, migrating, or recovering it),
  /// binds, listens, and spawns the accept loop, the connection workers,
  /// and the compaction thread. Returns false (filling \p Error) on a
  /// corrupt store, an unparsable suppression file, or a socket failure.
  bool start(std::string *Error = nullptr);
  bool running() const { return Running.load(std::memory_order_acquire); }
  /// The actually bound port (resolves Port = 0); 0 before start().
  uint16_t port() const { return BoundPort; }

  /// Stops accepting new connections and waits for in-flight requests to
  /// finish (open keep-alive connections are closed after their current
  /// request). Every acknowledged merge is already durable — there is no
  /// final save. Idempotent.
  void drain();
  /// drain() then join every thread and release the sockets. Idempotent;
  /// the server cannot be restarted afterwards.
  void stop();

  /// Copy of the warehouse under the writer lock (tests and tools).
  triage::TriageStore snapshotStore() const;
  ServerStats stats() const;
  /// The live self-profiler (null when ServerConfig::ProfilingEnabled is
  /// off). Trees are internally locked, so chrome-trace export is safe
  /// while the server runs.
  const prof::Profiler *profiler() const { return Prof.get(); }

private:
  /// Bounded route set for the latency histograms and the request spans
  /// (unknown paths fold into the last, "other", slot).
  static constexpr size_t NumRoutes = 9;

  void acceptLoop();
  /// Serves queued connections, recording spans into \p PT (made by
  /// start(); null when profiling is off).
  void workerLoop(prof::Tree *PT);
  void compactionLoop();
  void serveConnection(int Fd, prof::Tree *PT);
  /// Routes one parsed request to a rendered response. Sets \p Close when
  /// the connection must not be reused. \p PT is the serving worker's span
  /// tree (null when profiling is off).
  std::string handle(const HttpRequest &Req, bool &Close, prof::Tree *PT);

  std::string handleUpload(const HttpRequest &Req, bool KeepAlive,
                           prof::Tree *PT);
  std::string handleClassified(const std::string &Path, bool KeepAlive);
  std::string statsJson() const;

  /// Merges one decoded upload behind the single writer, honoring run-id
  /// idempotency and the sequence ordering, journaling the run durably,
  /// and recording it. Returns false with \p Status/\p Detail set on a
  /// sequence timeout or an append failure.
  bool mergeUpload(const triage::TriageSummary &S, WireContent Content,
                   uint64_t Sequence, const std::string &RunId,
                   RunRecord &Out, int &Status, std::string &Detail);

  ServerConfig Cfg;
  /// Atomic: drain() closes and invalidates it while the acceptor reads it.
  std::atomic<int> ListenFd{-1};
  uint16_t BoundPort = 0;

  std::atomic<bool> Running{false};
  std::atomic<bool> Draining{false};

  std::thread Acceptor;
  std::thread Compactor;
  std::vector<std::thread> Workers;

  /// Accepted connections waiting for a worker.
  std::mutex QueueMutex;
  std::condition_variable QueueCv;
  std::deque<int> Queue;
  size_t InFlight = 0; // Connections currently inside serveConnection.
  std::condition_variable IdleCv;

  /// The single-writer side: log, per-run records, sequence admission,
  /// run-id idempotency, compaction handoff.
  mutable std::mutex WriterMutex;
  std::condition_variable SequenceCv;
  std::condition_variable CompactionCv;
  bool StopCompactor = false;
  triage::TriageLog Log;
  std::vector<RunRecord> RunRecords;
  /// Run id -> index into RunRecords (the idempotency index; rebuilt from
  /// the journal on restart).
  std::unordered_map<std::string, size_t> RunIdIndex;
  /// Runs already folded into the base segment when this process opened
  /// the store (classified queries for those answer 404 — their per-run
  /// breakdown is gone by design).
  uint32_t LoadedRuns = 0;
  uint64_t NextSequence = 1;

  /// Self-profiler (null when disabled). Created in start() with locked
  /// trees: each worker records into its own tree, but /v1/stats and
  /// chrome-trace export read them mid-request.
  std::unique_ptr<prof::Profiler> Prof;
  /// Per-route request latency (request parse through response send),
  /// recorded lock-free; /v1/stats snapshots p50/p95/max.
  support::LatencyHistogram RouteLatency[NumRoutes];

  // Counters (relaxed atomics; snapshot() collates).
  std::atomic<uint64_t> CConnections{0}, CShed{0}, CRequests{0},
      CReqTimeouts{0}, CUploadsOk{0}, CUploadsBad{0}, CDeduplicated{0},
      CTraceUploads{0}, CSummaryUploads{0}, CBytes{0}, CEvents{0}, CRaces{0},
      CBadRequests{0}, CNotFound{0}, CSeqTimeouts{0};
};

} // namespace triaged
} // namespace sampletrack

#endif // SAMPLETRACK_TRIAGED_SERVER_H
