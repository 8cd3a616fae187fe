//===- runtime/Runtime.cpp - Online instrumented runtime ---------------------=/
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/runtime/Runtime.h"

#include "sampletrack/detectors/EngineCore.h"
#include "sampletrack/support/Rng.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <unordered_set>

using namespace sampletrack;
using namespace sampletrack::rt;

const char *sampletrack::rt::modeName(Mode M) {
  switch (M) {
  case Mode::NT:
    return "NT";
  case Mode::ET:
    return "ET";
  case Mode::FT:
    return "FT";
  case Mode::ST:
    return "ST";
  case Mode::SU:
    return "SU";
  case Mode::SO:
    return "SO";
  }
  return "?";
}

namespace {

/// Mixes an address into a shadow-cell index.
inline uint64_t hashAddress(uint64_t Addr) {
  Addr *= 0x9e3779b97f4a7c15ULL;
  return Addr ^ (Addr >> 29);
}

/// Per-thread race-sink capacity when Config::TriageCapacity is 0. Online
/// runs hash addresses into ShadowCells (<= 64K by default), so 64K
/// distinct signatures per thread is effectively unbounded.
constexpr size_t DefaultThreadSinkCapacity = 1 << 16;

/// \p C with its sizing fields raised to what the tables can index: one
/// thread (thread 0 is pre-registered) and one shadow cell.
Config normalized(Config C) {
  C.MaxThreads = std::max<size_t>(C.MaxThreads, 1);
  C.ShadowCells = std::max<size_t>(C.ShadowCells, 1);
  return C;
}

/// Tells the CPU the caller is spin-waiting (frees the sibling hyperthread
/// and avoids the memory-order flush on exit); a no-op where none exists.
inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// A one-word test-and-test-and-set lock guarding one shadow cell or one
/// sync object. Every critical section it guards is short and never sleeps
/// (O(1) epoch checks, O(T) history checks, clock joins and copies), so a
/// waiter spins on a plain load, with a pause hint, and only yields its
/// time slice after MaxSpins failed reads (the holder was preempted).
class SpinLock {
public:
  void lock() {
    unsigned Spins = 0;
    while (Word.exchange(1, std::memory_order_acquire)) {
      while (Word.load(std::memory_order_relaxed)) {
        if (++Spins < MaxSpins) {
          cpuRelax();
        } else {
          Spins = 0;
          std::this_thread::yield();
        }
      }
    }
  }
  void unlock() { Word.store(0, std::memory_order_release); }

private:
  static constexpr unsigned MaxSpins = 128;
  std::atomic<uint32_t> Word{0};
};

static_assert(sizeof(SpinLock) == 4, "one word per cell and sync object");

/// Claims the next dense id below \p Limit from \p Next into \p Id. Fails
/// once the ids are exhausted; the counter then stays at \p Limit, so it
/// never wraps around to hand out an id twice.
bool claimId(std::atomic<uint32_t> &Next, size_t Limit, uint32_t &Id) {
  Id = Next.load(std::memory_order_relaxed);
  do {
    if (Id >= Limit)
      return false;
  } while (!Next.compare_exchange_weak(Id, Id + 1, std::memory_order_relaxed));
  return true;
}

/// Per-thread online state. Owned by its thread: only the owner mutates
/// it, so no locking is needed. The analysis clocks live in the engine
/// core. Padded against false sharing.
struct alignas(64) ThreadState {
  bool Registered = false;

  /// Self-profiling (null unless Config::ProfilingEnabled): this thread's
  /// span tree plus pre-interned node ids, one per hook. Access hooks fold
  /// aggregate samples (no timeline event — far too hot); sync hooks emit
  /// timed spans.
  prof::Tree *PT = nullptr;
  prof::NodeId PRead = 0, PWrite = 0;
  prof::NodeId PAcquire = 0, PRelease = 0, PFork = 0, PJoin = 0;
  prof::NodeId PReleaseStore = 0, PReleaseJoin = 0;

  /// Per-thread sampling RNG and counters (merged at the end).
  SplitMix64 Rng{0};
  double SamplingRate = 0;
  Metrics Stats;
  uint64_t EtCounter = 0;

  /// This thread's shard of the race warehouse: declarations dedup here
  /// lock-free (single-writer, like every other ThreadState member) and
  /// Runtime::triageSummary merges the shards when the run is quiescent.
  triage::RaceSink Sink;
  /// The shadow cells this thread declared races on, merged by
  /// Runtime::racyLocationCount, so that a race report inside a cell's
  /// critical section never waits on a process-wide lock.
  std::unordered_set<uint64_t> RacyCells;

  bool sampleNext() { return Rng.nextBool(SamplingRate); }
};

/// One shadow cell: the engines' access-history record (EngineCore.h), its
/// lock word and its owner. Every analysis mode keeps its write history in
/// (WTid, WClk) and its read history in (RTid, RClk) until two unordered
/// reads meet, then in the record's buffer of T = Config::MaxThreads words.
/// The histories are never shared, so nothing is reference-counted or
/// pooled.
struct Shadow : engine::AccessHistory {
  /// Guards every field. It takes the four bytes of tail padding the
  /// record leaves after its three 32-bit fields, so the cell stays 48
  /// bytes and no two hooks share a lock unless they share a cell.
  SpinLock Lock;
  /// Direct-mapped ownership: the address whose history this cell holds
  /// (0 = never claimed; real addresses are never 0). Cells are a hash
  /// table over addresses, so unrelated addresses can collide; comparing
  /// an access against a *stranger's* history fabricates races real
  /// TSan's 1:1 shadow mapping cannot produce. On an owner mismatch the
  /// newcomer reclaims the cell and its history is forgotten — a
  /// false-negative-only approximation, exactly like TSan's own shadow
  /// eviction.
  uint64_t Owner = 0;

  /// Claims the cell for \p Addr, dropping a colliding address's history
  /// (the buffer stays with the cell). Cell lock held.
  void claim(uint64_t Addr) {
    if (Owner == Addr)
      return;
    Owner = Addr;
    WTid = 0;
    WClk = 0;
    clearReads();
  }
};

static_assert(sizeof(Shadow) == 48, "the shadow table is 64K cells");

/// Times one access-hook body into the thread's span tree, aggregate-only:
/// access hooks fire millions of times per run, so no per-invocation
/// timeline event is recorded. One branch when profiling is off.
struct HookSample {
  prof::Tree *PT;
  prof::NodeId Id;
  uint64_t T0;
  HookSample(prof::Tree *PT, prof::NodeId Id)
      : PT(PT), Id(Id), T0(PT ? prof::nowNanos() : 0) {}
  ~HookSample() {
    if (PT)
      PT->addSample(Id, prof::nowNanos() - T0);
  }
};

/// Times one sync-hook body as a real span (aggregate plus a timeline
/// event, capped per tree): sync hooks are rare enough to afford it.
struct HookSpan {
  prof::Tree *PT;
  prof::NodeId Id;
  uint64_t T0;
  HookSpan(prof::Tree *PT, prof::NodeId Id)
      : PT(PT), Id(Id), T0(PT ? prof::nowNanos() : 0) {}
  ~HookSpan() {
    if (PT)
      PT->addSpan(Id, T0, prof::nowNanos());
  }
};

} // namespace

/// The online state every mode shares, the hook prologues, and NT: the
/// uninstrumented baseline, whose hooks return at once.
class rt::detail::RuntimeBase {
public:
  static constexpr size_t MaxSyncs = 1 << 14;

  /// \p NumCells shadow cells (0 for NT, which touches none).
  RuntimeBase(const Config &C, size_t NumCells)
      : Cfg(C), Threads(C.MaxThreads), Cells(NumCells) {
    if (C.ProfilingEnabled)
      Prof = std::make_unique<prof::Profiler>();
  }
  virtual ~RuntimeBase() = default;

  virtual void onRead(ThreadId, uint64_t) {}
  virtual void onWrite(ThreadId, uint64_t) {}
  virtual void onAcquire(ThreadId, SyncId) {}
  virtual void onAcquireLoad(ThreadId, SyncId) {}
  virtual void onRelease(ThreadId, SyncId) {}
  virtual void onFork(ThreadId, ThreadId) {}
  virtual void onJoin(ThreadId, ThreadId) {}
  virtual void onReleaseStore(ThreadId, SyncId) {}
  virtual void onReleaseJoin(ThreadId, SyncId) {}

  const Config Cfg;
  /// Self-profiler (null unless Config::ProfilingEnabled). Trees are
  /// per-thread and single-writer; makeTree itself is mutex-protected, so
  /// concurrent registerThread calls are fine.
  std::unique_ptr<prof::Profiler> Prof;
  std::vector<ThreadState> Threads;
  std::vector<Shadow> Cells;

  std::atomic<uint32_t> NextThread{0};
  std::atomic<uint32_t> NextSync{0};
  std::atomic<uint64_t> Races{0};

  std::mutex RecMu;
  std::vector<Event> Recorded;

protected:
  /// The access-hook prologue: drops out-of-range threads, counts the
  /// event, hashes the address to its cell, draws the sampling coin when
  /// \p Sampling, records, and hands a sampled (or, without sampling,
  /// every) access to \p Step(ThreadState &, Cell).
  template <bool Sampling, typename StepFn>
  void accessHook(ThreadId T, uint64_t Addr, OpKind K, StepFn &&Step) {
    if (T >= Cfg.MaxThreads)
      return;
    ThreadState &TS = Threads[T];
    HookSample PS(TS.PT, K == OpKind::Write ? TS.PWrite : TS.PRead);
    ++TS.Stats.Events;
    ++TS.Stats.Accesses;
    uint64_t Cell = hashAddress(Addr) % Cfg.ShadowCells;
    bool Sampled = Sampling && TS.sampleNext();
    if (Cfg.RecordTrace)
      record(Event(T, K, Cell, Sampled));
    if (Sampling) {
      // Unsampled accesses are skipped entirely (Algorithm 2, Line 9).
      if (!Sampled)
        return;
      ++TS.Stats.SampledAccesses;
    }
    Step(TS, Cell);
  }

  /// The sync-hook prologue: drops out-of-range ids, times the hook into
  /// node \p Node, counts and records the event, then runs \p Step.
  template <typename StepFn>
  void syncHook(ThreadId T, SyncId S, OpKind K,
                prof::NodeId ThreadState::*Node, StepFn &&Step) {
    if (T >= Cfg.MaxThreads || S >= MaxSyncs)
      return;
    ThreadState &TS = Threads[T];
    HookSpan PS(TS.PT, TS.*Node);
    ++TS.Stats.Events;
    if (Cfg.RecordTrace)
      record(Event(T, K, S));
    Step(TS);
  }

  /// The fork/join prologue, charged to the parent. The child is not
  /// running yet (fork) or has been joined: direct access is safe.
  template <typename StepFn>
  void threadHook(ThreadId Parent, ThreadId Child, OpKind K,
                  prof::NodeId ThreadState::*Node, StepFn &&Step) {
    if (Parent >= Cfg.MaxThreads || Child >= Cfg.MaxThreads)
      return;
    ThreadState &P = Threads[Parent];
    HookSpan PS(P.PT, P.*Node);
    ++P.Stats.Events;
    if (Cfg.RecordTrace)
      record(Event(Parent, K, Child));
    Step(P);
  }

  /// Records a race: the atomic counter, plus the thread's race-sink shard
  /// and racy-cell set. Called with the cell's lock held.
  void reportRace(ThreadState &TS, ThreadId T, uint64_t Cell, OpKind K) {
    ++TS.Stats.RacesDeclared;
    // Dedup into the thread's own warehouse shard: no lock, no allocation
    // once the shard has seen this signature. The exemplar position is the
    // event's index in its thread's hook stream (online streams have no
    // global order).
    TS.Sink.insert(RaceReport{TS.Stats.Events - 1, T, Cell, K});
    Races.fetch_add(1, std::memory_order_relaxed);
    TS.RacyCells.insert(Cell);
  }

private:
  void record(const Event &E) {
    std::lock_guard<std::mutex> G(RecMu);
    Recorded.push_back(E);
  }
};

using rt::detail::RuntimeBase;

namespace {

/// ET (Empty-TSan): every hook pays the instrumentation cost, address
/// hashing and a shadow-cell touch, and runs no analysis.
class EmptyRuntime final : public RuntimeBase {
public:
  explicit EmptyRuntime(const Config &C) : RuntimeBase(C, C.ShadowCells) {}

  void onRead(ThreadId T, uint64_t Addr) override {
    touch(T, Addr, OpKind::Read);
  }
  void onWrite(ThreadId T, uint64_t Addr) override {
    touch(T, Addr, OpKind::Write);
  }
  void onAcquire(ThreadId T, SyncId L) override {
    count(T, L, OpKind::Acquire, &ThreadState::PAcquire);
  }
  void onAcquireLoad(ThreadId T, SyncId S) override {
    count(T, S, OpKind::AcquireLoad, &ThreadState::PAcquire);
  }
  void onRelease(ThreadId T, SyncId L) override {
    count(T, L, OpKind::Release, &ThreadState::PRelease);
  }
  void onReleaseStore(ThreadId T, SyncId S) override {
    count(T, S, OpKind::ReleaseStore, &ThreadState::PReleaseStore);
  }
  void onReleaseJoin(ThreadId T, SyncId S) override {
    count(T, S, OpKind::ReleaseJoin, &ThreadState::PReleaseJoin);
  }
  void onFork(ThreadId Parent, ThreadId Child) override {
    threadHook(Parent, Child, OpKind::Fork, &ThreadState::PFork,
               [](ThreadState &P) { ++P.EtCounter; });
  }
  void onJoin(ThreadId Parent, ThreadId Child) override {
    threadHook(Parent, Child, OpKind::Join, &ThreadState::PJoin,
               [](ThreadState &P) { ++P.EtCounter; });
  }

private:
  void touch(ThreadId T, uint64_t Addr, OpKind K) {
    // Empty-TSan still computes and touches shadow state (that is most of
    // TSan's instrumentation cost); it just runs no analysis. ET never
    // writes cells, so this unsynchronized read is safe.
    accessHook</*Sampling=*/false>(
        T, Addr, K, [this](ThreadState &TS, uint64_t Cell) {
          TS.EtCounter += Cell + Cells[Cell].WClk;
        });
  }
  void count(ThreadId T, SyncId S, OpKind K,
             prof::NodeId ThreadState::*Node) {
    syncHook(T, S, K, Node, [S](ThreadState &TS) { TS.EtCounter += S; });
  }
};

/// FT/ST/SU/SO: the engine core \p Core (EngineCore.h) over a fixed table
/// of MaxSyncs sync objects, each with its lock word, and the shadow cells.
template <typename Core> class RuntimeImpl final : public RuntimeBase {
  static_assert(engine::EngineCore<Core>,
                "the engine policy must provide the EngineCore transitions");
  static_assert(std::is_same_v<typename Core::Lock, SpinLock>,
                "online sync objects are guarded by their lock word");

public:
  explicit RuntimeImpl(const Config &C)
      : RuntimeBase(C, C.ShadowCells), Engine(C.MaxThreads),
        Syncs(MaxSyncs) {}

  void onRead(ThreadId T, uint64_t Addr) override {
    check<OpKind::Read>(T, Addr);
  }
  void onWrite(ThreadId T, uint64_t Addr) override {
    check<OpKind::Write>(T, Addr);
  }
  void onAcquire(ThreadId T, SyncId L) override {
    acquire(T, L, OpKind::Acquire);
  }
  void onAcquireLoad(ThreadId T, SyncId S) override {
    acquire(T, S, OpKind::AcquireLoad);
  }
  void onRelease(ThreadId T, SyncId L) override {
    syncHook(T, L, OpKind::Release, &ThreadState::PRelease,
             [&](ThreadState &TS) { Engine.release(T, Syncs[L], TS.Stats); });
  }
  void onReleaseStore(ThreadId T, SyncId S) override {
    syncHook(T, S, OpKind::ReleaseStore, &ThreadState::PReleaseStore,
             [&](ThreadState &TS) {
               Engine.releaseStore(T, Syncs[S], TS.Stats);
             });
  }
  void onReleaseJoin(ThreadId T, SyncId S) override {
    syncHook(T, S, OpKind::ReleaseJoin, &ThreadState::PReleaseJoin,
             [&](ThreadState &TS) {
               Engine.releaseJoin(T, Syncs[S], TS.Stats);
             });
  }
  void onFork(ThreadId Parent, ThreadId Child) override {
    threadHook(Parent, Child, OpKind::Fork, &ThreadState::PFork,
               [&](ThreadState &P) { Engine.fork(Parent, Child, P.Stats); });
  }
  void onJoin(ThreadId Parent, ThreadId Child) override {
    threadHook(Parent, Child, OpKind::Join, &ThreadState::PJoin,
               [&](ThreadState &P) { Engine.join(Parent, Child, P.Stats); });
  }

private:
  /// Acquires and acquire-loads share one transition and one profile node.
  void acquire(ThreadId T, SyncId S, OpKind K) {
    syncHook(T, S, K, &ThreadState::PAcquire,
             [&](ThreadState &TS) { Engine.acquire(T, Syncs[S], TS.Stats); });
  }

  template <OpKind K> void check(ThreadId T, uint64_t Addr) {
    accessHook<Core::Sampling>(T, Addr, K, [&](ThreadState &TS,
                                               uint64_t Cell) {
      Shadow &Sh = Cells[Cell];
      std::lock_guard<SpinLock> G(Sh.Lock);
      Sh.claim(Addr);
      auto Declare = [&](OpKind Kind) { reportRace(TS, T, Cell, Kind); };
      if constexpr (K == OpKind::Read)
        engine::checkRead(Engine, T, Sh, TS.Stats, Declare);
      else
        engine::checkWrite(Engine, T, Sh, TS.Stats, Declare);
    });
  }

  /// Declared before the sync table: the table's snapshot references drain
  /// back into SO's pool on destruction.
  Core Engine;
  std::vector<typename Core::Sync> Syncs;
};

std::unique_ptr<RuntimeBase> makeRuntime(const Config &C) {
  switch (C.AnalysisMode) {
  case Mode::NT:
    return std::make_unique<RuntimeBase>(C, 0);
  case Mode::ET:
    return std::make_unique<EmptyRuntime>(C);
  case Mode::FT:
    return std::make_unique<RuntimeImpl<engine::FTCore<SpinLock>>>(C);
  case Mode::ST:
    return std::make_unique<RuntimeImpl<engine::STCore<SpinLock>>>(C);
  case Mode::SU:
    return std::make_unique<RuntimeImpl<engine::SUCore<SpinLock>>>(C);
  case Mode::SO:
    return std::make_unique<RuntimeImpl<engine::SOCore<SpinLock>>>(C);
  }
  return nullptr;
}

} // namespace

Runtime::Runtime(const Config &C) : Cfg(normalized(C)), I(makeRuntime(Cfg)) {
  // Pre-register the main thread as thread 0.
  registerThread();
}

Runtime::~Runtime() = default;

ThreadId Runtime::registerThread() {
  uint32_t T = 0;
  if (!claimId(I->NextThread, Cfg.MaxThreads, T))
    return NoThread;
  ThreadState &TS = I->Threads[T];
  TS.Registered = true;
  TS.Rng = SplitMix64(Cfg.Seed ^ (0x5851f42d4c957f2dULL * (T + 1)));
  TS.SamplingRate = Cfg.SamplingRate;
  TS.Sink.setCapacity(Cfg.TriageCapacity ? Cfg.TriageCapacity
                                         : DefaultThreadSinkCapacity);
  if (I->Prof) {
    TS.PT = I->Prof->makeTree("rt-thread-" + std::to_string(T));
    TS.PRead = TS.PT->internPath({"runtime", "access", "read"});
    TS.PWrite = TS.PT->internPath({"runtime", "access", "write"});
    TS.PAcquire = TS.PT->internPath({"runtime", "sync", "acquire"});
    TS.PRelease = TS.PT->internPath({"runtime", "sync", "release"});
    TS.PFork = TS.PT->internPath({"runtime", "sync", "fork"});
    TS.PJoin = TS.PT->internPath({"runtime", "sync", "join"});
    TS.PReleaseStore = TS.PT->internPath({"runtime", "sync", "releaseStore"});
    TS.PReleaseJoin = TS.PT->internPath({"runtime", "sync", "releaseJoin"});
    // Acquire-loads are timed under the acquire node.
  }
  return T;
}

SyncId Runtime::registerSync() {
  uint32_t S = 0;
  return claimId(I->NextSync, RuntimeBase::MaxSyncs, S) ? S : NoSync;
}

void Runtime::onRead(ThreadId T, uint64_t Addr) { I->onRead(T, Addr); }
void Runtime::onWrite(ThreadId T, uint64_t Addr) { I->onWrite(T, Addr); }
void Runtime::onAcquire(ThreadId T, SyncId L) { I->onAcquire(T, L); }
void Runtime::onRelease(ThreadId T, SyncId L) { I->onRelease(T, L); }
void Runtime::onFork(ThreadId Parent, ThreadId Child) {
  I->onFork(Parent, Child);
}
void Runtime::onJoin(ThreadId Parent, ThreadId Child) {
  I->onJoin(Parent, Child);
}
void Runtime::onReleaseStore(ThreadId T, SyncId S) {
  I->onReleaseStore(T, S);
}
void Runtime::onReleaseJoin(ThreadId T, SyncId S) { I->onReleaseJoin(T, S); }
void Runtime::onAcquireLoad(ThreadId T, SyncId S) { I->onAcquireLoad(T, S); }

uint64_t Runtime::raceCount() const {
  return I->Races.load(std::memory_order_relaxed);
}

triage::TriageSummary Runtime::triageSummary() const {
  // Merge the per-thread shards in thread order (deterministic given a
  // quiescent runtime — the same contract as aggregatedMetrics).
  size_t Distinct = 0;
  for (const ThreadState &TS : I->Threads)
    if (TS.Registered)
      Distinct += TS.Sink.distinct();
  triage::RaceSink Merged(Distinct ? Distinct : 1);
  for (const ThreadState &TS : I->Threads)
    if (TS.Registered)
      Merged.absorb(TS.Sink);
  return Merged.summary();
}

uint64_t Runtime::distinctRaceCount() const {
  return triageSummary().distinct();
}

size_t Runtime::racyLocationCount() const {
  std::unordered_set<uint64_t> Cells;
  for (const ThreadState &TS : I->Threads)
    if (TS.Registered)
      Cells.insert(TS.RacyCells.begin(), TS.RacyCells.end());
  return Cells.size();
}

prof::Report Runtime::profileReport() const {
  return I->Prof ? I->Prof->report() : prof::Report();
}

const prof::Profiler *Runtime::profiler() const { return I->Prof.get(); }

Metrics Runtime::aggregatedMetrics() const {
  Metrics Out;
  for (const ThreadState &TS : I->Threads)
    if (TS.Registered)
      Out += TS.Stats;
  return Out;
}

Trace Runtime::recordedTrace() const {
  Trace T;
  std::lock_guard<std::mutex> G(I->RecMu);
  for (const Event &E : I->Recorded)
    T.append(E);
  return T;
}
