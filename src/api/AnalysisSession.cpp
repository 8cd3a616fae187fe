//===- api/AnalysisSession.cpp - Composable pipeline ------------------------=//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/api/AnalysisSession.h"

#include "sampletrack/trace/TraceIO.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <thread>

using namespace sampletrack;
using namespace sampletrack::api;

namespace {

uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace

//===----------------------------------------------------------------------===//
// ParallelExecutor
//===----------------------------------------------------------------------===//

/// Fans batches out to lane worker threads over a bounded broadcast ring.
///
/// The ingest thread fills a slot (events + the pre-drawn sampling
/// decisions — copies, because the caller's span may die on return) and
/// publishes it; every worker consumes every slot in publication order and
/// feeds it to the lanes it owns (lane I belongs to worker I % NumWorkers).
/// A slot is recycled once the slowest worker has moved past it, which
/// bounds memory to RingSize batches and applies back-pressure to the
/// ingest thread. Each lane is driven by exactly one thread for the whole
/// run, in trace order, with the exact decision stream sequential mode
/// would use — so results are bit-identical by construction, not by
/// replayed luck.
class AnalysisSession::ParallelExecutor {
public:
  struct Slot {
    /// What the workers read. Either views caller memory directly (stable
    /// sources like an in-memory Trace, which outlives the run) or views
    /// \ref Storage (streamed sources, whose batch buffer is recycled).
    std::span<const Event> Events;
    std::vector<Event> Storage;
    std::vector<uint8_t> Decisions;
  };

  ParallelExecutor(std::vector<Lane> &Lanes, size_t NumWorkers,
                   prof::Profiler *Prof)
      : Lanes(Lanes), NumWorkers(NumWorkers), Prof(Prof),
        Consumed(NumWorkers, 0) {
    assert(NumWorkers > 0 && NumWorkers <= Lanes.size());
    Workers.reserve(NumWorkers);
    for (size_t W = 0; W < NumWorkers; ++W)
      Workers.emplace_back([this, W] { workerMain(W); });
  }

  ~ParallelExecutor() { shutdown(); }

  /// Blocks until a ring slot is free for the ingest thread to fill. The
  /// returned slot is untouched by workers until \ref publish.
  Slot &acquireSlot() {
    std::unique_lock<std::mutex> L(M);
    SpaceCv.wait(L, [this] { return Published - minConsumed() < RingSize; });
    return Ring[Published % RingSize];
  }

  /// Makes the slot filled after \ref acquireSlot visible to every worker.
  void publish() {
    {
      std::lock_guard<std::mutex> L(M);
      ++Published;
    }
    DataCv.notify_all();
  }

  /// Publishes end-of-stream and joins the workers (idempotent). After this
  /// returns, every lane has consumed every published batch.
  void shutdown() {
    {
      std::lock_guard<std::mutex> L(M);
      Eof = true;
    }
    DataCv.notify_all();
    for (std::thread &T : Workers)
      if (T.joinable())
        T.join();
    Workers.clear();
  }

private:
  uint64_t minConsumed() const {
    uint64_t Min = Consumed[0];
    for (uint64_t C : Consumed)
      Min = std::min(Min, C);
    return Min;
  }

  void workerMain(size_t W) {
    // Each worker records into its own tree; lanes intern their span under
    // the same session/analyze path the sequential mode uses, so the merged
    // report is identical in shape whichever thread drove the lane.
    if (Prof) {
      prof::Tree *T = Prof->makeTree("worker-" + std::to_string(W));
      for (size_t I = W; I < Lanes.size(); I += NumWorkers) {
        Lane &L = Lanes[I];
        L.PT = T;
        L.PNode = T->internPath({"session", "analyze", L.D->name()});
      }
    }
    uint64_t Mine = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> L(M);
        DataCv.wait(L, [&] { return Published > Mine || Eof; });
        if (Published == Mine)
          break; // Eof and fully drained.
      }
      // Safe without the lock: the producer never rewrites slot
      // Mine % RingSize until this worker's Consumed count passes it.
      Slot &S = Ring[Mine % RingSize];
      std::span<const Event> Events = S.Events;
      std::span<const uint8_t> Ds(S.Decisions);
      for (size_t I = W; I < Lanes.size(); I += NumWorkers) {
        Lane &L = Lanes[I];
        uint64_t T0 = nowNanos();
        L.D->processBatch(Events, Ds);
        uint64_t Dt = nowNanos() - T0;
        L.Nanos += Dt;
        // One measurement, two consumers: EngineRun::WallNanos and the
        // profile span.
        if (L.PT)
          L.PT->addSample(L.PNode, Dt);
      }
      {
        std::lock_guard<std::mutex> L(M);
        Consumed[W] = ++Mine;
      }
      SpaceCv.notify_one();
    }
  }

  static constexpr size_t RingSize = 8;

  std::vector<Lane> &Lanes;
  size_t NumWorkers;
  prof::Profiler *Prof;
  std::array<Slot, RingSize> Ring;

  std::mutex M;
  std::condition_variable SpaceCv; ///< Ingest thread waits for ring space.
  std::condition_variable DataCv;  ///< Workers wait for published batches.
  uint64_t Published = 0;
  bool Eof = false;
  std::vector<uint64_t> Consumed; ///< Batches fully processed, per worker.
  std::vector<std::thread> Workers;
};

AnalysisSession::AnalysisSession() = default;
AnalysisSession::AnalysisSession(SessionConfig C) : Cfg(std::move(C)) {}
AnalysisSession::~AnalysisSession() = default;

SessionResult sampletrack::api::stripTiming(SessionResult R) {
  R.WallNanos = 0;
  R.IngestNanos = 0;
  R.NumWorkers = 0;
  for (EngineRun &E : R.Engines)
    E.WallNanos = 0;
  R.Profile = prof::stripTiming(std::move(R.Profile));
  return R;
}

const EngineRun *SessionResult::find(const std::string &Engine) const {
  for (const EngineRun &R : Engines)
    if (R.Engine == Engine)
      return &R;
  return nullptr;
}

AnalysisSession &AnalysisSession::configure(SessionConfig C) {
  assert(!Active && "cannot reconfigure a running session");
  Cfg = std::move(C);
  return *this;
}

AnalysisSession &AnalysisSession::addEngine(EngineKind K) {
  assert(!Active && "cannot add lanes to a running session");
  Cfg.Engines.push_back(K);
  return *this;
}

AnalysisSession &AnalysisSession::addEngines(std::span<const EngineKind> Ks) {
  for (EngineKind K : Ks)
    addEngine(K);
  return *this;
}

AnalysisSession &AnalysisSession::addDetector(Detector &D) {
  assert(!Active && "cannot add lanes to a running session");
  BorrowedDetectors.push_back(&D);
  return *this;
}

AnalysisSession &AnalysisSession::withSampler(Sampler &Sm) {
  assert(!Active && "cannot swap samplers on a running session");
  BorrowedSampler = &Sm;
  OwnedSampler.reset();
  return *this;
}

AnalysisSession &AnalysisSession::withSampler(std::unique_ptr<Sampler> Sm) {
  assert(!Active && "cannot swap samplers on a running session");
  OwnedSampler = std::move(Sm);
  BorrowedSampler = nullptr;
  return *this;
}

bool api::admitUniverse(const SessionConfig &Cfg, size_t Threads,
                        size_t Syncs, size_t Vars, std::string *Error) {
  auto Fail = [&](const std::string &Msg) {
    if (Error)
      *Error = Msg;
    return false;
  };
  const std::string Limit = " more than " +
                            std::to_string(MaxClockBytesPerEngine >> 20) +
                            " MiB in one engine";
  // The widest configured engine sets the bound; borrowed detectors were
  // sized by their owner, and are held to the narrowest clocks.
  uint64_t ComponentBytes = sizeof(ClockValue);
  for (EngineKind K : Cfg.Engines)
    ComponentBytes = std::max<uint64_t>(ComponentBytes,
                                        clockBytesPerComponent(K));
  uint64_t Components = 0;
  if (__builtin_mul_overflow(uint64_t(Threads), uint64_t(Threads),
                             &Components) ||
      Components > MaxClockBytesPerEngine / ComponentBytes)
    return Fail("thread universe of " + std::to_string(Threads) +
                " threads refused: its thread clocks need" + Limit);
  if (Syncs > MaxSyncsPerEngine)
    return Fail("sync universe of " + std::to_string(Syncs) +
                " sync objects refused: its sync table needs" + Limit);
  if (Vars > MaxVarsPerEngine)
    return Fail("variable universe of " + std::to_string(Vars) +
                " variables refused: its access histories need" + Limit);
  return true;
}

bool AnalysisSession::begin(size_t NumThreads, size_t NumSyncs,
                            size_t NumVars, std::string *Error) {
  auto Fail = [&](const std::string &Msg) {
    if (Error)
      *Error = Msg;
    return false;
  };
  if (Active)
    return Fail("session already active");
  if (Cfg.Engines.empty() && BorrowedDetectors.empty())
    return Fail("no engines or detectors configured");

  RunThreads = Cfg.NumThreads ? Cfg.NumThreads
                              : (NumThreads ? NumThreads : Cfg.MaxThreads);
  if (!RunThreads)
    return Fail("thread universe size is zero");
  if (!admitUniverse(Cfg, RunThreads, NumSyncs, NumVars, Error))
    return false;

  Lanes.clear();
  // Fresh profiler per run: the previous run's timeline (if any) is owned
  // by whoever took it; pointers into the old trees die with the old lanes.
  Prof.reset();
  IngestTree = nullptr;
  if (Cfg.ProfilingEnabled) {
    Prof = std::make_unique<prof::Profiler>();
    IngestTree = Prof->makeTree("ingest");
    SessionNode = IngestTree->internPath({"session"});
    IngestNode = IngestTree->internPath({"session", "ingest"});
    DecodeNode = IngestTree->internPath({"session", "decode"});
    FinishNode = IngestTree->internPath({"session", "finish"});
  }

  for (EngineKind K : Cfg.Engines) {
    Lane L;
    L.Owned = createDetector(K, RunThreads);
    if (Cfg.TriageCapacity)
      L.Owned->setRaceCapacity(Cfg.TriageCapacity);
    L.D = L.Owned.get();
    Lanes.push_back(std::move(L));
  }
  for (Detector *D : BorrowedDetectors) {
    Lane L;
    L.D = D;
    Lanes.push_back(std::move(L));
  }

  if (BorrowedSampler)
    S = BorrowedSampler;
  else {
    if (!OwnedSampler)
      OwnedSampler = Cfg.makeSampler();
    S = OwnedSampler.get();
  }

  SampleSize = 0;
  EventsProcessed = 0;
  IngestNanos = 0;
  RunWorkers = std::min(Cfg.NumWorkers, Lanes.size());
  if (IngestTree && !RunWorkers)
    // Sequential mode drives every lane on the ingest thread; the workers
    // intern the identical session/analyze/<engine> path into their own
    // trees, so the merged report's shape is mode-independent.
    for (Lane &L : Lanes) {
      L.PT = IngestTree;
      L.PNode = IngestTree->internPath({"session", "analyze", L.D->name()});
    }
  if (RunWorkers)
    Par = std::make_unique<ParallelExecutor>(Lanes, RunWorkers, Prof.get());
  StartNanos = nowNanos();
  Active = true;
  return true;
}

void AnalysisSession::process(std::span<const Event> Batch) {
  assert(Active && "begin() the session before feeding events");
  if (Batch.empty())
    return;

  // Draw the shared decision stream once, on this (the ingest) thread, in
  // trace order; every lane then replays the same decisions, which is what
  // makes K session lanes byte-equivalent to K standalone runs over the
  // same seed — sequential or parallel alike. One Sampler::decide pass
  // serves both modes (only the destination buffer differs) so they cannot
  // drift apart.
  uint64_t T0 = nowNanos();
  ParallelExecutor::Slot *Slot = Par ? &Par->acquireSlot() : nullptr;
  if (Slot) {
    if (StableSource) {
      // The source outlives the run (an in-memory Trace): workers can read
      // the caller's memory directly, no O(batch) copy on the ingest path.
      Slot->Events = Batch;
    } else {
      // The caller's span may be reused or freed the moment we return (the
      // streamed reader recycles its batch vector), so the hand-off copies.
      Slot->Storage.assign(Batch.begin(), Batch.end());
      Slot->Events = std::span<const Event>(Slot->Storage);
    }
  }
  std::vector<uint8_t> &Ds = Slot ? Slot->Decisions : Decisions;
  Ds.resize(Batch.size());
  SampleSize += S->decide(Batch, Ds);
  if (Slot)
    Par->publish();
  uint64_t T1 = nowNanos();
  IngestNanos += T1 - T0;
  // The profile's session/ingest span is the same measurement IngestNanos
  // accumulates — folded, not re-measured.
  if (IngestTree)
    IngestTree->addSpan(IngestNode, T0, T1);
  if (!Slot) {
    std::span<const uint8_t> DsView(Decisions.data(), Batch.size());
    for (Lane &L : Lanes) {
      uint64_t T0Lane = nowNanos();
      L.D->processBatch(Batch, DsView);
      uint64_t Dt = nowNanos() - T0Lane;
      L.Nanos += Dt;
      if (L.PT)
        L.PT->addSample(L.PNode, Dt);
    }
  }
  EventsProcessed += Batch.size();
}

SessionResult AnalysisSession::finish() {
  assert(Active && "finish() without begin()");
  if (Par) {
    Par->shutdown(); // Drains the ring; all lanes caught up after this.
    Par.reset();
  }
  SessionResult R;
  R.EventsProcessed = EventsProcessed;
  R.NumThreads = RunThreads;
  R.NumWorkers = RunWorkers;
  R.IngestNanos = IngestNanos;
  R.WallNanos = nowNanos() - StartNanos;
  uint64_t FinishT0 = IngestTree ? nowNanos() : 0;
  R.Engines.reserve(Lanes.size());
  std::vector<triage::TriageSummary> LaneSummaries;
  LaneSummaries.reserve(Lanes.size());
  for (Lane &L : Lanes) {
    EngineRun E;
    E.Engine = L.D->name();
    E.SamplerName = S->name();
    E.Stats = L.D->metrics();
    E.NumRaces = E.Stats.RacesDeclared;
    E.NumRacyLocations = L.D->racyLocations().size();
    E.DistinctRaces = L.D->distinctRaces();
    E.SampleSize = SampleSize;
    E.WallNanos = L.Nanos;
    // The warehouse summary and the truncation flag must both be read
    // before the move below empties the sink's exemplar list.
    LaneSummaries.push_back(L.D->raceSink().summary());
    E.RacesTruncated = L.D->racesTruncated();
    // Session-owned detectors die right after this loop, so steal their
    // (potentially million-entry) race lists. Borrowed detectors keep
    // theirs — the caller owns the detector and reads races() directly,
    // so no copy is made here.
    if (L.Owned)
      E.Races = L.Owned->takeRaces();
    R.Engines.push_back(std::move(E));
  }
  R.Triage = triage::mergeSummaries(LaneSummaries);

  if (IngestTree) {
    // session/finish covers the sink/metric merge above; the session root
    // covers the whole run (count 1) and carries the deterministic stream
    // counters.
    IngestTree->addSpan(FinishNode, FinishT0, nowNanos());
    IngestTree->addSpan(SessionNode, StartNanos, StartNanos + R.WallNanos);
    IngestTree->counterEvent(SessionNode, "events", EventsProcessed);
    IngestTree->counterEvent(SessionNode, "sampledAccesses", SampleSize);
    R.Profile = Prof->report();
    IngestTree = nullptr; // The profiler stays readable; recording is done.
  }

  // Lanes (and any session-owned detectors) are single-use; a later begin()
  // builds fresh ones. Borrowed detectors and samplers stay with their
  // owners and are dropped from the session's lists.
  Lanes.clear();
  BorrowedDetectors.clear();
  BorrowedSampler = nullptr;
  OwnedSampler.reset();
  S = nullptr;
  StableSource = false;
  Active = false;
  return R;
}

bool AnalysisSession::run(const Trace &T, SessionResult &Out,
                          std::string *Error) {
  if (!begin(T.numThreads(), T.numSyncs(), T.numVars(), Error))
    return false;
  StableSource = true; // T outlives the run; spans can cross the hand-off.
  const std::vector<Event> &Events = T.events();
  size_t Step = Cfg.BatchSize ? Cfg.BatchSize : Events.size();
  for (size_t I = 0; I < Events.size(); I += Step)
    process(std::span<const Event>(Events.data() + I,
                                   std::min(Step, Events.size() - I)));
  Out = finish();
  return true;
}

SessionResult AnalysisSession::run(const Trace &T) {
  SessionResult R;
  run(T, R, nullptr); // Failure leaves R empty.
  return R;
}

bool AnalysisSession::run(std::istream &Is, SessionResult &Out,
                          std::string *Error) {
  if (sniffBinaryTrace(Is)) {
    BinaryTraceReader Reader;
    if (!Reader.open(Is, Error))
      return false;
    if (!begin(Reader.numThreads(), Reader.numSyncs(), Reader.numVars(),
               Error))
      return false;
    std::vector<Event> Batch;
    while (!Reader.done()) {
      uint64_t DecodeT0 = IngestTree ? nowNanos() : 0;
      if (!Reader.read(Batch, Cfg.BatchSize ? Cfg.BatchSize : 4096, Error)) {
        finish(); // Abandon the partial run; lanes are single-use anyway.
        return false;
      }
      if (IngestTree)
        IngestTree->addSpan(DecodeNode, DecodeT0, nowNanos());
      process(std::span<const Event>(Batch.data(), Batch.size()));
    }
    Out = finish();
    return true;
  }

  // The text format carries no machine-readable universe sizes, so stream
  // ingestion cannot size the detectors up front; load it in-memory.
  Trace T;
  if (!readTrace(Is, T, Error))
    return false;
  return run(T, Out, Error);
}

bool AnalysisSession::runFile(const std::string &Path, SessionResult &Out,
                              std::string *Error) {
  std::ifstream Is(Path, std::ios::binary);
  if (!Is) {
    if (Error)
      *Error = "cannot open '" + Path + "'";
    return false;
  }
  return run(Is, Out, Error);
}

//===----------------------------------------------------------------------===//
// SessionHooks
//===----------------------------------------------------------------------===//

ThreadId SessionHooks::registerThread() {
  std::lock_guard<std::mutex> G(M);
  if (NextThread >= Session.numThreads())
    return NoThread;
  return NextThread++;
}

SyncId SessionHooks::registerSync() {
  std::lock_guard<std::mutex> G(M);
  return NextSync++;
}

void SessionHooks::emit(const Event &E) {
  std::lock_guard<std::mutex> G(M);
  // Every detector sizes its per-thread tables to the session's universe,
  // so an event naming a thread outside it is dropped, not analyzed.
  size_t N = Session.numThreads();
  bool ForkJoin = E.Kind == OpKind::Fork || E.Kind == OpKind::Join;
  if (E.Tid >= N || (ForkJoin && E.childThread() >= N))
    return;
  Session.process(E);
}

void SessionHooks::onRead(ThreadId T, VarId X) {
  emit(Event(T, OpKind::Read, X));
}
void SessionHooks::onWrite(ThreadId T, VarId X) {
  emit(Event(T, OpKind::Write, X));
}
void SessionHooks::onAcquire(ThreadId T, SyncId L) {
  emit(Event(T, OpKind::Acquire, L));
}
void SessionHooks::onRelease(ThreadId T, SyncId L) {
  emit(Event(T, OpKind::Release, L));
}
void SessionHooks::onFork(ThreadId Parent, ThreadId Child) {
  emit(Event(Parent, OpKind::Fork, Child));
}
void SessionHooks::onJoin(ThreadId Parent, ThreadId Child) {
  emit(Event(Parent, OpKind::Join, Child));
}
void SessionHooks::onReleaseStore(ThreadId T, SyncId Sy) {
  emit(Event(T, OpKind::ReleaseStore, Sy));
}
void SessionHooks::onReleaseJoin(ThreadId T, SyncId Sy) {
  emit(Event(T, OpKind::ReleaseJoin, Sy));
}
void SessionHooks::onAcquireLoad(ThreadId T, SyncId Sy) {
  emit(Event(T, OpKind::AcquireLoad, Sy));
}
