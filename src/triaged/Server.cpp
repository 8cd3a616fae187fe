//===- triaged/Server.cpp - Fleet ingestion service -------------------------=//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/triaged/Server.h"

#include "sampletrack/api/AnalysisSession.h"
#include "sampletrack/trace/TraceIO.h"
#include "sampletrack/triage/Exporters.h"
#include "sampletrack/triaged/Wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <sstream>

using namespace sampletrack;
using namespace sampletrack::triaged;

api::SessionConfig sampletrack::triaged::fleetAnalysisConfig() {
  api::SessionConfig Cfg;
  Cfg.Engines = {EngineKind::FastTrack, EngineKind::SamplingO};
  Cfg.Sampling = api::SamplerKind::Always;
  return Cfg;
}

namespace {

/// send() the whole buffer, suppressing SIGPIPE. Returns false once the
/// peer is gone — the caller just closes.
bool sendAll(int Fd, std::string_view Bytes) {
  size_t Off = 0;
  while (Off < Bytes.size()) {
    ssize_t N = ::send(Fd, Bytes.data() + Off, Bytes.size() - Off,
                       MSG_NOSIGNAL);
    if (N <= 0) {
      if (N < 0 && errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

std::string jsonStringArray(const std::vector<std::string> &Items) {
  std::string Out = "[";
  for (size_t I = 0; I < Items.size(); ++I) {
    Out += "\"" + Items[I] + "\"";
    if (I + 1 < Items.size())
      Out += ", ";
  }
  Out += "]";
  return Out;
}

/// The POST /v1/runs response body and the /v1/runs/{id}/classified body
/// share one rendering: what this run's merge did to the warehouse. RunId
/// needs no JSON escaping — the upload handler constrains it to
/// [A-Za-z0-9._-].
std::string renderRunRecord(const RunRecord &R) {
  std::ostringstream OS;
  OS << "{\n"
     << "  \"run\": " << R.Run << ",\n"
     << "  \"runId\": \"" << R.RunId << "\",\n"
     << "  \"deduplicated\": " << (R.Deduplicated ? "true" : "false")
     << ",\n"
     << "  \"content\": \"" << wireContentName(R.Content) << "\",\n"
     << "  \"declared\": " << R.Declared << ",\n"
     << "  \"distinct\": " << R.Distinct << ",\n"
     << "  \"new\": " << R.NewCount << ",\n"
     << "  \"known\": " << R.KnownCount << ",\n"
     << "  \"regressed\": " << R.RegressedCount << ",\n"
     << "  \"suppressed\": " << R.SuppressedCount << ",\n"
     << "  \"newRaces\": " << jsonStringArray(R.NewSigs) << ",\n"
     << "  \"regressedRaces\": " << jsonStringArray(R.RegressedSigs) << "\n"
     << "}\n";
  return OS.str();
}

/// Rebuilds a RunRecord from a journal-replayed run, so restart answers
/// /v1/runs/{id}/classified exactly as the original ingest did.
RunRecord recordFromInfo(const triage::TriageLog::RunInfo &I) {
  RunRecord R;
  R.Run = I.Run;
  R.RunId = I.RunId;
  R.Content = static_cast<WireContent>(I.Content);
  R.Declared = I.Declared;
  R.Distinct = I.Distinct;
  R.NewCount = I.Merge.NewSignatures;
  R.KnownCount = I.Merge.KnownSignatures;
  R.RegressedCount = I.Merge.RegressedSignatures;
  R.SuppressedCount = I.Merge.SuppressedSignatures;
  for (const triage::TriageEntry &E : I.Merge.NewRaces)
    R.NewSigs.push_back(triage::RaceSignature{E.Signature}.hex());
  for (const triage::TriageEntry &E : I.Merge.RegressedRaces)
    R.RegressedSigs.push_back(triage::RaceSignature{E.Signature}.hex());
  return R;
}

constexpr std::string_view RunIdAlphabet =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789._-";

/// Bounded route set: histogram slots and request-span names. Classified
/// lookups fold their run id away; unknown paths fold into "other" — the
/// profile's cardinality cannot be driven by attacker-chosen paths.
const char *const RouteNames[] = {
    "/healthz",      "/v1/runs",  "/v1/ranked",
    "/v1/sarif",     "/v1/dashboard", "/v1/suppressions",
    "/v1/stats",     "/v1/runs/{id}/classified", "other",
};
static_assert(sizeof(RouteNames) / sizeof(RouteNames[0]) == 9,
              "RouteNames must match Server::NumRoutes");

size_t routeOf(const std::string &Path) {
  for (size_t R = 0; R + 2 < sizeof(RouteNames) / sizeof(RouteNames[0]); ++R)
    if (Path == RouteNames[R])
      return R;
  if (Path.rfind("/v1/runs/", 0) == 0)
    return 7;
  return 8;
}

} // namespace

Server::Server(ServerConfig C) : Cfg(std::move(C)) {
  if (Cfg.NumWorkers == 0)
    Cfg.NumWorkers = 1;
}

Server::~Server() { stop(); }

bool Server::start(std::string *Error) {
  int Fd = -1;
  auto Fail = [&](const std::string &Msg) {
    if (Error)
      *Error = Msg;
    if (Fd >= 0)
      ::close(Fd);
    return false;
  };
  if (Running.load(std::memory_order_acquire))
    return Fail("server already running");

  // The warehouse first: refusing to serve beats silently forking history.
  std::string Err;
  if (!Cfg.StorePath.empty()) {
    triage::TriageLog::Options LO;
    LO.Fs = Cfg.Fs;
    LO.SuppressionFile = Cfg.SuppressionFile;
    LO.CompactionRatio = Cfg.CompactionRatio;
    LO.MinCompactionBytes = Cfg.MinCompactionBytes;
    if (!Log.open(Cfg.StorePath, LO, &Err))
      return Fail(Err);
  } else if (!Cfg.SuppressionFile.empty() &&
             !Log.store().loadSuppressionFile(Cfg.SuppressionFile, &Err)) {
    return Fail(Err);
  }
  LoadedRuns = Log.baseRunsAtOpen();
  RunRecords.clear();
  RunIdIndex.clear();
  for (const triage::TriageLog::RunInfo &I : Log.journalRuns()) {
    RunRecords.push_back(recordFromInfo(I));
    if (!I.RunId.empty())
      RunIdIndex[I.RunId] = RunRecords.size() - 1;
  }

  Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return Fail(std::string("socket: ") + std::strerror(errno));
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));

  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Cfg.Port);
  if (::inet_pton(AF_INET, Cfg.BindAddress.c_str(), &Addr.sin_addr) != 1)
    return Fail("bad bind address '" + Cfg.BindAddress + "'");
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0)
    return Fail("bind " + Cfg.BindAddress + ":" +
                std::to_string(Cfg.Port) + ": " + std::strerror(errno));
  if (::listen(Fd, 128) < 0)
    return Fail(std::string("listen: ") + std::strerror(errno));

  socklen_t Len = sizeof(Addr);
  if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len) < 0)
    return Fail(std::string("getsockname: ") + std::strerror(errno));
  BoundPort = ntohs(Addr.sin_port);

  ListenFd.store(Fd, std::memory_order_release);
  Running.store(true, std::memory_order_release);
  Draining.store(false, std::memory_order_release);
  StopCompactor = false;
  // Locked trees: each worker writes its own, but /v1/stats and
  // chrome-trace export read them while requests are in flight.
  if (Cfg.ProfilingEnabled)
    Prof = std::make_unique<prof::Profiler>(/*LockTrees=*/true);
  for (size_t I = 0; I < Cfg.NumWorkers; ++I) {
    // Made here, not by the worker: the live profile names every worker
    // from the moment start() returns, whether or not it has run yet.
    prof::Tree *PT =
        Prof ? Prof->makeTree("http-worker-" + std::to_string(I)) : nullptr;
    Workers.emplace_back([this, PT] { workerLoop(PT); });
  }
  Compactor = std::thread([this] { compactionLoop(); });
  Acceptor = std::thread([this] { acceptLoop(); });
  return true;
}

void Server::acceptLoop() {
  // The fd never changes while the acceptor runs; drain() invalidates the
  // member and closes the socket, which pops accept4 out with an error.
  int Listener = ListenFd.load(std::memory_order_acquire);
  for (;;) {
    int Fd = ::accept4(Listener, nullptr, nullptr, SOCK_CLOEXEC);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      // drain()/stop() closed the listen socket under us: done serving.
      break;
    }
    if (Draining.load(std::memory_order_acquire)) {
      ::close(Fd);
      continue;
    }
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    CConnections.fetch_add(1, std::memory_order_relaxed);
    bool Shed = false;
    {
      std::lock_guard<std::mutex> L(QueueMutex);
      if (Cfg.MaxQueueDepth != 0 && Queue.size() >= Cfg.MaxQueueDepth)
        Shed = true;
      else
        Queue.push_back(Fd);
    }
    if (Shed) {
      // Every worker is busy and the backlog is full: shed now with a
      // backoff hint instead of queueing without bound (an overloaded
      // warehouse answering slowly to everyone helps no one).
      CShed.fetch_add(1, std::memory_order_relaxed);
      sendAll(Fd, renderError(503, "server overloaded, try again",
                              /*KeepAlive=*/false, /*RetryAfterSeconds=*/1));
      ::close(Fd);
      continue;
    }
    QueueCv.notify_one();
  }
}

void Server::workerLoop(prof::Tree *PT) {
  for (;;) {
    int Fd = -1;
    {
      std::unique_lock<std::mutex> L(QueueMutex);
      QueueCv.wait(L, [&] {
        return !Queue.empty() || !Running.load(std::memory_order_acquire);
      });
      if (Queue.empty())
        return; // Shutting down.
      Fd = Queue.front();
      Queue.pop_front();
      ++InFlight;
    }
    serveConnection(Fd, PT);
    {
      std::lock_guard<std::mutex> L(QueueMutex);
      --InFlight;
    }
    IdleCv.notify_all();
  }
}

void Server::compactionLoop() {
  // The journal-into-base fold runs here so the O(store) write never sits
  // on an upload's critical path: appendRun wakes this thread past the
  // ratio trigger, beginCompaction snapshots under the writer lock, the
  // expensive prepare runs unlocked (appends keep landing in the old
  // journal meanwhile), and the commit — a rename and a pointer swap —
  // takes the lock again only briefly.
  std::unique_lock<std::mutex> L(WriterMutex);
  for (;;) {
    CompactionCv.wait(L, [&] { return StopCompactor || Log.needsCompaction(); });
    if (StopCompactor)
      return;
    triage::TriageLog::CompactionPlan P;
    if (!Log.beginCompaction(P)) {
      // Poisoned (or closed): nothing more to do until a restart heals it.
      CompactionCv.wait(L, [&] { return StopCompactor; });
      return;
    }
    L.unlock();
    std::string Err;
    bool Ok = Log.prepareCompaction(P, &Err);
    L.lock();
    if (Ok)
      Ok = Log.commitCompaction(P, &Err);
    if (!Ok) {
      // The old generation is still live and appends continue against it;
      // back off so a persistently failing disk does not spin this loop.
      CompactionCv.wait_for(L, std::chrono::seconds(1),
                            [&] { return StopCompactor; });
    }
  }
}

void Server::serveConnection(int Fd, prof::Tree *PT) {
  std::string Buf;
  uint64_t IdleMillis = 0;
  // The per-request deadline counts wall-clock from the first byte of a
  // request — poll ticks alone cannot see a slowloris client trickling one
  // byte per tick, which never lets the connection look idle.
  bool InRequest = false;
  std::chrono::steady_clock::time_point ReqStart{};
  char Chunk[64 << 10];
  auto DeadlineExpired = [&] {
    if (!InRequest || Cfg.Limits.RequestDeadlineMillis == 0)
      return false;
    auto Elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - ReqStart)
                       .count();
    return static_cast<uint64_t>(Elapsed) >= Cfg.Limits.RequestDeadlineMillis;
  };
  for (;;) {
    // Serve every complete (possibly pipelined) request already buffered.
    HttpRequest Req;
    size_t Consumed = 0;
    int Status = 0;
    std::string PErr;
    HttpParse P =
        parseRequest(Buf, Cfg.Limits, Req, Consumed, Status, &PErr);
    if (P == HttpParse::Bad) {
      CBadRequests.fetch_add(1, std::memory_order_relaxed);
      sendAll(Fd, renderError(Status, PErr, /*KeepAlive=*/false));
      break;
    }
    if (P == HttpParse::Ok) {
      Buf.erase(0, Consumed);
      IdleMillis = 0;
      // A pipelined successor's bytes are already here: its clock started.
      InRequest = !Buf.empty();
      if (InRequest)
        ReqStart = std::chrono::steady_clock::now();
      CRequests.fetch_add(1, std::memory_order_relaxed);
      bool Close = false;
      // Request latency covers routing through the last response byte; the
      // span lands under request/<route> in the worker's tree.
      size_t Route = routeOf(Req.Path);
      uint64_t T0 = Cfg.ProfilingEnabled ? prof::nowNanos() : 0;
      std::string Response = handle(Req, Close, PT);
      bool Sent = sendAll(Fd, Response);
      if (Cfg.ProfilingEnabled) {
        uint64_t T1 = prof::nowNanos();
        RouteLatency[Route].record((T1 - T0) / 1000);
        if (PT)
          PT->addSpan(PT->internPath({"request", RouteNames[Route]}), T0, T1);
      }
      if (!Sent || Close)
        break;
      continue;
    }

    // NeedMore: a partial request is in progress once any byte of it is.
    if (!Buf.empty() && !InRequest) {
      InRequest = true;
      ReqStart = std::chrono::steady_clock::now();
    }
    if (DeadlineExpired()) {
      CReqTimeouts.fetch_add(1, std::memory_order_relaxed);
      sendAll(Fd, renderError(408,
                              "request not completed within " +
                                  std::to_string(
                                      Cfg.Limits.RequestDeadlineMillis) +
                                  " ms",
                              /*KeepAlive=*/false));
      break;
    }

    // Poll in short ticks so drain() is honored promptly even on idle
    // keep-alive connections.
    pollfd Pfd{Fd, POLLIN, 0};
    int Ready = ::poll(&Pfd, 1, 100);
    if (Ready < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (Ready == 0) {
      if (Buf.empty()) {
        // Between requests: idle bookkeeping. (A request in progress is
        // governed by the deadline above, not the idle timeout.)
        IdleMillis += 100;
        if (Draining.load(std::memory_order_acquire))
          break;
        if (IdleMillis >= Cfg.IdleTimeoutMillis)
          break;
      }
      continue;
    }
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N <= 0)
      break; // Peer closed (or errored); a partial request just drops.
    Buf.append(Chunk, static_cast<size_t>(N));
  }
  ::close(Fd);
}

std::string Server::handle(const HttpRequest &Req, bool &Close,
                           prof::Tree *PT) {
  bool KeepAlive =
      !Req.wantsClose() && !Draining.load(std::memory_order_acquire);
  Close = !KeepAlive;

  const std::string &Path = Req.Path;
  auto MethodIs = [&](const char *M) { return Req.Method == M; };
  auto WrongMethod = [&](const char *Allowed) {
    CBadRequests.fetch_add(1, std::memory_order_relaxed);
    return renderError(405, std::string("use ") + Allowed, KeepAlive);
  };

  if (Path == "/healthz") {
    if (!MethodIs("GET"))
      return WrongMethod("GET");
    return renderResponse(200, "text/plain", "ok\n", KeepAlive);
  }
  if (Path == "/v1/runs") {
    if (!MethodIs("POST"))
      return WrongMethod("POST");
    return handleUpload(Req, KeepAlive, PT);
  }
  if (Path == "/v1/ranked") {
    if (!MethodIs("GET"))
      return WrongMethod("GET");
    size_t TopN = 10;
    std::string N = Req.queryParam("n");
    if (!N.empty())
      TopN = std::strtoull(N.c_str(), nullptr, 10);
    std::lock_guard<std::mutex> L(WriterMutex);
    return renderResponse(200, "text/plain",
                          triage::toText(Log.store(), TopN), KeepAlive);
  }
  if (Path == "/v1/sarif") {
    if (!MethodIs("GET"))
      return WrongMethod("GET");
    std::lock_guard<std::mutex> L(WriterMutex);
    return renderResponse(200, "application/sarif+json",
                          triage::toSarif(Log.store(), Cfg.ToolVersion),
                          KeepAlive);
  }
  if (Path == "/v1/dashboard") {
    if (!MethodIs("GET"))
      return WrongMethod("GET");
    std::lock_guard<std::mutex> L(WriterMutex);
    return renderResponse(200, "application/json",
                          triage::toJson(Log.store()), KeepAlive);
  }
  if (Path == "/v1/suppressions") {
    if (!MethodIs("GET"))
      return WrongMethod("GET");
    std::lock_guard<std::mutex> L(WriterMutex);
    std::string Body = "# sampletrack suppressions, one hex race signature "
                       "per line\n";
    for (const triage::TriageStore::Record &R : Log.store().records())
      if (R.Suppressed)
        Body += triage::RaceSignature{R.Signature}.hex() + "\n";
    return renderResponse(200, "text/plain", Body, KeepAlive);
  }
  if (Path == "/v1/stats") {
    if (!MethodIs("GET"))
      return WrongMethod("GET");
    return renderResponse(200, "application/json", statsJson(), KeepAlive);
  }
  if (Path.rfind("/v1/runs/", 0) == 0) {
    if (!MethodIs("GET"))
      return WrongMethod("GET");
    return handleClassified(Path, KeepAlive);
  }
  CNotFound.fetch_add(1, std::memory_order_relaxed);
  return renderError(404, "no route for " + Path, KeepAlive);
}

std::string Server::handleUpload(const HttpRequest &Req, bool KeepAlive,
                                 prof::Tree *PT) {
  auto Reject = [&](int Status, const std::string &Detail) {
    CUploadsBad.fetch_add(1, std::memory_order_relaxed);
    return renderError(Status, Detail, KeepAlive);
  };

  // Upload stage spans, nested under the route's request span: header
  // validation + frame parse / payload decode (incl. server-side analysis
  // of trace uploads) / single-writer merge.
  prof::NodeId ParseNode = 0, DecodeNode = 0, AnalyzeNode = 0, MergeNode = 0;
  if (PT) {
    ParseNode = PT->internPath({"request", "/v1/runs", "parse"});
    DecodeNode = PT->internPath({"request", "/v1/runs", "decode"});
    AnalyzeNode = PT->internPath({"request", "/v1/runs", "analyze"});
    MergeNode = PT->internPath({"request", "/v1/runs", "merge"});
  }
  uint64_t StageT0 = PT ? prof::nowNanos() : 0;

  uint64_t Sequence = 0; // 0 = unsequenced (arrival order).
  if (const std::string *Seq = Req.header("X-Sampletrack-Sequence")) {
    char *End = nullptr;
    Sequence = std::strtoull(Seq->c_str(), &End, 10);
    if (Seq->empty() || *End != '\0' || Sequence == 0)
      return Reject(400, "malformed X-Sampletrack-Sequence");
  }

  std::string RunId; // "" = no idempotency key.
  if (const std::string *Rid = Req.header("X-Sampletrack-Run-Id")) {
    RunId = *Rid;
    if (RunId.empty() || RunId.size() > 128 ||
        RunId.find_first_not_of(RunIdAlphabet) != std::string::npos)
      return Reject(400, "malformed X-Sampletrack-Run-Id (want 1-128 chars "
                         "of [A-Za-z0-9._-])");
  }

  WireFrame Frame;
  std::string Err;
  if (!parseFrame(Req.Body, Frame, &Err))
    return Reject(400, Err);
  if (PT) {
    uint64_t Now = prof::nowNanos();
    PT->addSpan(ParseNode, StageT0, Now);
    StageT0 = Now;
  }

  triage::TriageSummary Summary;
  uint64_t Events = 0;
  if (Frame.Content == WireContent::BinaryTrace) {
    std::istringstream Is{std::string(Frame.Payload)};
    if (!sniffBinaryTrace(Is))
      return Reject(422, "frame payload is not a binary trace");
    Trace T;
    if (!readTraceBinary(Is, T, &Err))
      return Reject(422, Err);
    if (PT) {
      uint64_t Now = prof::nowNanos();
      PT->addSpan(DecodeNode, StageT0, Now);
      StageT0 = Now;
    }
    // Analyze with the server's engines; the triage knobs are the
    // server's own (the store behind this very endpoint).
    api::SessionConfig A = Cfg.Analysis;
    A.TriageStorePath.clear();
    A.SuppressionFile.clear();
    api::SessionResult R = api::AnalysisSession(A).run(T);
    Summary = std::move(R.Triage);
    Events = R.EventsProcessed;
    CTraceUploads.fetch_add(1, std::memory_order_relaxed);
    if (PT) {
      uint64_t Now = prof::nowNanos();
      PT->addSpan(AnalyzeNode, StageT0, Now);
      StageT0 = Now;
    }
  } else {
    if (!decodeSummary(Frame.Payload, Summary, &Err))
      return Reject(422, Err);
    CSummaryUploads.fetch_add(1, std::memory_order_relaxed);
    if (PT) {
      uint64_t Now = prof::nowNanos();
      PT->addSpan(DecodeNode, StageT0, Now);
      StageT0 = Now;
    }
  }

  RunRecord Rec;
  int Status = 0;
  std::string Detail;
  bool Merged = mergeUpload(Summary, Frame.Content, Sequence, RunId, Rec,
                            Status, Detail);
  if (PT)
    PT->addSpan(MergeNode, StageT0, prof::nowNanos());
  if (!Merged)
    return Reject(Status, Detail);

  if (Rec.Deduplicated)
    CDeduplicated.fetch_add(1, std::memory_order_relaxed);
  else
    CUploadsOk.fetch_add(1, std::memory_order_relaxed);
  CBytes.fetch_add(Req.Body.size(), std::memory_order_relaxed);
  CEvents.fetch_add(Events, std::memory_order_relaxed);
  CRaces.fetch_add(Summary.RacesDeclared, std::memory_order_relaxed);
  return renderResponse(200, "application/json", renderRunRecord(Rec),
                        KeepAlive);
}

bool Server::mergeUpload(const triage::TriageSummary &S, WireContent Content,
                         uint64_t Sequence, const std::string &RunId,
                         RunRecord &Out, int &Status, std::string &Detail) {
  std::unique_lock<std::mutex> L(WriterMutex);
  // Idempotency first, before any sequence wait: a retry of a run that
  // already merged must answer its original breakdown immediately — the
  // original already advanced the sequence, so waiting for "its" slot
  // again would deadlock into a 409.
  auto Replay = [&]() -> bool {
    if (RunId.empty())
      return false;
    auto It = RunIdIndex.find(RunId);
    if (It == RunIdIndex.end())
      return false;
    Out = RunRecords[It->second];
    Out.Deduplicated = true;
    return true;
  };
  if (Replay())
    return true;

  if (Sequence != 0) {
    bool Admitted = SequenceCv.wait_for(
        L, std::chrono::milliseconds(Cfg.SequenceTimeoutMillis), [&] {
          return NextSequence == Sequence ||
                 (!RunId.empty() && RunIdIndex.count(RunId) != 0);
        });
    if (!Admitted) {
      CSeqTimeouts.fetch_add(1, std::memory_order_relaxed);
      Status = 409;
      Detail = "sequence " + std::to_string(Sequence) +
               " timed out waiting for " + std::to_string(NextSequence);
      return false;
    }
    // A concurrent retry of the same run id may have merged while this
    // request waited; it still answers the one original breakdown.
    if (Replay())
      return true;
  }

  // The append is durable (journal record fsynced) before it returns, so
  // a 200 never precedes persistence; on failure nothing merged and the
  // client may retry — against this process only after a restart heals
  // the poisoned journal.
  triage::TriageStore::MergeResult M;
  std::string Err;
  if (!Log.appendRun(S, RunId, static_cast<uint8_t>(Content), M, &Err)) {
    Status = 500;
    Detail = "run not merged: " + Err;
    return false;
  }

  Out = RunRecord{};
  Out.Run = Log.store().runCount();
  Out.RunId = RunId;
  Out.Content = Content;
  Out.Declared = S.RacesDeclared;
  Out.Distinct = S.distinct();
  Out.NewCount = M.NewSignatures;
  Out.KnownCount = M.KnownSignatures;
  Out.RegressedCount = M.RegressedSignatures;
  Out.SuppressedCount = M.SuppressedSignatures;
  for (const triage::TriageEntry &E : M.NewRaces)
    Out.NewSigs.push_back(triage::RaceSignature{E.Signature}.hex());
  for (const triage::TriageEntry &E : M.RegressedRaces)
    Out.RegressedSigs.push_back(triage::RaceSignature{E.Signature}.hex());
  RunRecords.push_back(Out);
  if (!RunId.empty())
    RunIdIndex[RunId] = RunRecords.size() - 1;

  if (Sequence != 0) {
    NextSequence = Sequence + 1;
    SequenceCv.notify_all();
  }
  if (Log.needsCompaction())
    CompactionCv.notify_one();
  return true;
}

std::string Server::handleClassified(const std::string &Path,
                                     bool KeepAlive) {
  auto NotFound = [&](const std::string &Detail) {
    CNotFound.fetch_add(1, std::memory_order_relaxed);
    return renderError(404, Detail, KeepAlive);
  };
  // "/v1/runs/{id}/classified"
  std::string Rest = Path.substr(std::strlen("/v1/runs/"));
  size_t Slash = Rest.find('/');
  if (Slash == std::string::npos || Rest.substr(Slash) != "/classified")
    return NotFound("no route for " + Path);
  std::string Id = Rest.substr(0, Slash);
  if (Id.empty() || Id.find_first_not_of("0123456789") != std::string::npos)
    return NotFound("run id must be a positive integer");
  uint64_t Run = std::strtoull(Id.c_str(), nullptr, 10);

  std::lock_guard<std::mutex> L(WriterMutex);
  if (Run == 0 || Run > Log.store().runCount())
    return NotFound("run " + Id + " does not exist (store has " +
                    std::to_string(Log.store().runCount()) + " run(s))");
  if (Run <= LoadedRuns)
    return NotFound("run " + Id + " was compacted into the base segment "
                                  "(per-run breakdown no longer available)");
  const RunRecord &Rec = RunRecords[Run - LoadedRuns - 1];
  return renderResponse(200, "application/json", renderRunRecord(Rec),
                        KeepAlive);
}

std::string Server::statsJson() const {
  size_t StoreSize, StoreRuns;
  uint64_t NextSeq, Gen, BaseBytes, JournalBytes, Appended, Compacted,
      Compactions;
  bool Poisoned;
  {
    std::lock_guard<std::mutex> L(WriterMutex);
    StoreSize = Log.store().size();
    StoreRuns = Log.store().runCount();
    NextSeq = NextSequence;
    Gen = Log.generation();
    BaseBytes = Log.baseBytes();
    JournalBytes = Log.journalBytes();
    Appended = Log.bytesAppended();
    Compacted = Log.bytesCompacted();
    Compactions = Log.compactions();
    Poisoned = Log.poisoned();
  }
  std::ostringstream OS;
  OS << "{\n"
     << "  \"store\": {\"runs\": " << StoreRuns
     << ", \"distinctSignatures\": " << StoreSize
     << ", \"generation\": " << Gen << ", \"baseBytes\": " << BaseBytes
     << ", \"journalBytes\": " << JournalBytes << "},\n"
     << "  \"durability\": {\"bytesAppended\": " << Appended
     << ", \"bytesCompacted\": " << Compacted
     << ", \"compactions\": " << Compactions << ", \"poisoned\": "
     << (Poisoned ? "true" : "false") << "},\n"
     << "  \"nextSequence\": " << NextSeq << ",\n"
     << "  \"draining\": "
     << (Draining.load(std::memory_order_acquire) ? "true" : "false")
     << ",\n"
     << "  \"connectionsAccepted\": " << CConnections.load() << ",\n"
     << "  \"connectionsShed\": " << CShed.load() << ",\n"
     << "  \"requestsServed\": " << CRequests.load() << ",\n"
     << "  \"requestTimeouts\": " << CReqTimeouts.load() << ",\n"
     << "  \"uploadsAccepted\": " << CUploadsOk.load() << ",\n"
     << "  \"uploadsRejected\": " << CUploadsBad.load() << ",\n"
     << "  \"uploadsDeduplicated\": " << CDeduplicated.load() << ",\n"
     << "  \"traceUploads\": " << CTraceUploads.load() << ",\n"
     << "  \"summaryUploads\": " << CSummaryUploads.load() << ",\n"
     << "  \"bytesIngested\": " << CBytes.load() << ",\n"
     << "  \"eventsAnalyzed\": " << CEvents.load() << ",\n"
     << "  \"racesDeclared\": " << CRaces.load() << ",\n"
     << "  \"badRequests\": " << CBadRequests.load() << ",\n"
     << "  \"notFound\": " << CNotFound.load() << ",\n"
     << "  \"sequenceTimeouts\": " << CSeqTimeouts.load() << ",\n";
  // Per-route request latency (routes that served at least one request) and
  // the merged span profile. Both empty when profiling is off.
  OS << "  \"latency\": {";
  bool FirstRoute = true;
  for (size_t R = 0; R < NumRoutes; ++R) {
    support::LatencyHistogram::Snapshot S = RouteLatency[R].snapshot();
    if (!S.Count)
      continue;
    if (!FirstRoute)
      OS << ", ";
    FirstRoute = false;
    OS << "\"" << RouteNames[R] << "\": {\"count\": " << S.Count
       << ", \"p50Micros\": " << S.P50Micros
       << ", \"p95Micros\": " << S.P95Micros
       << ", \"maxMicros\": " << S.MaxMicros << "}";
  }
  OS << "},\n";
  OS << "  \"profile\": "
     << (Prof ? prof::toJsonArray(Prof->report()) : std::string("[]"))
     << "\n}\n";
  return OS.str();
}

void Server::drain() {
  if (!Running.load(std::memory_order_acquire))
    return;
  bool Expected = false;
  if (!Draining.compare_exchange_strong(Expected, true))
    return; // Another drain already ran (or is running).

  // Closing the listen socket pops the acceptor out of accept().
  int Fd = ListenFd.exchange(-1, std::memory_order_acq_rel);
  if (Fd >= 0) {
    ::shutdown(Fd, SHUT_RDWR);
    ::close(Fd);
  }
  if (Acceptor.joinable())
    Acceptor.join();
  SequenceCv.notify_all();

  // Wait for queued and in-flight connections to finish; the poll loop in
  // serveConnection notices Draining within one tick. No final save: every
  // acknowledged merge was journaled and fsynced before its 200.
  {
    std::unique_lock<std::mutex> L(QueueMutex);
    IdleCv.wait(L, [&] { return Queue.empty() && InFlight == 0; });
  }
}

void Server::stop() {
  if (!Running.load(std::memory_order_acquire))
    return;
  drain();
  {
    std::lock_guard<std::mutex> L(WriterMutex);
    StopCompactor = true;
  }
  CompactionCv.notify_all();
  if (Compactor.joinable())
    Compactor.join();
  Running.store(false, std::memory_order_release);
  QueueCv.notify_all();
  for (std::thread &W : Workers)
    if (W.joinable())
      W.join();
  Workers.clear();
}

triage::TriageStore Server::snapshotStore() const {
  std::lock_guard<std::mutex> L(WriterMutex);
  return Log.store();
}

ServerStats Server::stats() const {
  ServerStats S;
  S.ConnectionsAccepted = CConnections.load(std::memory_order_relaxed);
  S.ConnectionsShed = CShed.load(std::memory_order_relaxed);
  S.RequestsServed = CRequests.load(std::memory_order_relaxed);
  S.RequestTimeouts = CReqTimeouts.load(std::memory_order_relaxed);
  S.UploadsAccepted = CUploadsOk.load(std::memory_order_relaxed);
  S.UploadsRejected = CUploadsBad.load(std::memory_order_relaxed);
  S.UploadsDeduplicated = CDeduplicated.load(std::memory_order_relaxed);
  S.TraceUploads = CTraceUploads.load(std::memory_order_relaxed);
  S.SummaryUploads = CSummaryUploads.load(std::memory_order_relaxed);
  S.BytesIngested = CBytes.load(std::memory_order_relaxed);
  S.EventsAnalyzed = CEvents.load(std::memory_order_relaxed);
  S.RacesDeclared = CRaces.load(std::memory_order_relaxed);
  S.BadRequests = CBadRequests.load(std::memory_order_relaxed);
  S.NotFound = CNotFound.load(std::memory_order_relaxed);
  S.SequenceTimeouts = CSeqTimeouts.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> L(WriterMutex);
    S.BytesAppended = Log.bytesAppended();
    S.BytesCompacted = Log.bytesCompacted();
    S.Compactions = Log.compactions();
  }
  return S;
}
