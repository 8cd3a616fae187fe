//===- runtime/Runtime.cpp - Online instrumented runtime ---------------------=/
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/runtime/Runtime.h"

#include "sampletrack/support/SnapshotPool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
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

/// SO's shared ordered lists, recycled whenever a newer release overwrites
/// the last snapshot reference.
using ListRef = SnapshotPool<OrderedList>::Ref;
/// Read-only view for published list snapshots (immutable while shared;
/// const-enforced, as the old shared_ptr<const OrderedList> was).
using ListSnapshot = SnapshotPool<OrderedList>::ConstRef;

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

} // namespace

/// Per-thread analysis state. Owned by its thread: only the owner mutates
/// it, so no locking is needed. Padded against false sharing.
struct Runtime::ThreadState {
  bool Registered = false;

  /// Self-profiling (null unless Config::ProfilingEnabled): this thread's
  /// span tree plus pre-interned node ids, one per hook. Access hooks fold
  /// aggregate samples (no timeline event — far too hot); sync hooks emit
  /// timed spans.
  prof::Tree *PT = nullptr;
  prof::NodeId PRead = 0, PWrite = 0;
  prof::NodeId PAcquire = 0, PRelease = 0, PFork = 0, PJoin = 0;
  prof::NodeId PReleaseStore = 0, PReleaseJoin = 0;

  /// FT: the full FastTrack clock (bottom[t -> 1]). ST/SU: the sampling
  /// clock C_t (bottom). Unused by SO.
  VectorClock C;
  /// Freshness clock U_t (SU and SO).
  VectorClock U;
  /// SO: the ordered list, shared copy-on-write (pooled).
  ListRef O;
  bool ListShared = false;

  /// Sampling live epoch e_t and the paper's C_t(t) (SO carries it
  /// out-of-line; see the local-epoch optimization).
  ClockValue Epoch = 1;
  ClockValue OwnTime = 0;
  bool Dirty = false;

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

  /// Scratch clock for snapshots (avoids allocation in hooks).
  VectorClock Scratch;

  alignas(64) char Pad[64] = {};

  bool sampleNext() { return Rng.nextBool(SamplingRate); }
};

/// Per-sync-object state, guarded by its own lock word. The analysis work
/// done while holding Lock nests inside the application's critical section.
/// A 4-byte SpinLock rather than a 40-byte std::mutex (glibc, x86-64): no
/// hook calls into pthreads, and the 16K-entry table is 512 KiB smaller.
struct Runtime::SyncState {
  SpinLock Lock;
  /// FT/ST: the sync clock. SU: sync clock plus freshness clock.
  VectorClock C, U;
  ThreadId LastReleaser = NoThread;
  /// SO: immutable snapshot reference plus release-time scalars.
  ListSnapshot Ref;
  ClockValue UScalar = 0;
  ClockValue OwnTimeAtRelease = 0;
  bool Initialized = false;
  /// A.2 state: release-joined content blends multiple threads; for SO the
  /// C/U clocks (otherwise unused) hold the blend. AcquiredSince[t] tracks
  /// whether t observed the current content (SU's monotonicity guard).
  bool MultiSource = false;
  std::vector<bool> AcquiredSince;
};

/// One shadow cell: a write epoch, a read epoch and one flat read-history
/// buffer of T = Config::MaxThreads words, allocated when the cell's reads
/// are first promoted. Every analysis mode keeps its write history in
/// (WTid, WClk) and its read history in (RTid, RClk) until two unordered
/// reads meet, then in the buffer: FastTrack's read-shared vector clock,
/// or Algorithm 2's Cr_x for the sampling modes (see SamplingBase.h for
/// why epochs decide Algorithm 2's checks exactly). RLen is the buffer's
/// active prefix, nonzero exactly when the reads are promoted, and every
/// word at or past it is zero, so a check scans only the prefix and a
/// reclaim zeroes only the prefix, reusing the buffer in place. FT demotes
/// on a write; the sampling modes never do. The histories are never
/// shared, so nothing is reference-counted or pooled.
struct Runtime::Shadow {
  /// Direct-mapped ownership: the address whose history this cell holds
  /// (0 = never claimed; real addresses are never 0). Cells are a hash
  /// table over addresses, so unrelated addresses can collide; comparing
  /// an access against a *stranger's* history fabricates races real
  /// TSan's 1:1 shadow mapping cannot produce. On an owner mismatch the
  /// newcomer reclaims the cell and its history is forgotten — a
  /// false-negative-only approximation, exactly like TSan's own shadow
  /// eviction.
  uint64_t Owner = 0;
  ClockValue WClk = 0;
  ClockValue RClk = 0;
  std::unique_ptr<ClockValue[]> Hist;
  ThreadId WTid = 0;
  ThreadId RTid = 0;
  /// Active prefix of the read history buffer. The reads are promoted
  /// exactly when this is nonzero: a promotion stores two nonzero epochs.
  uint32_t RLen = 0;
  /// Guards every field above. It takes the four bytes of tail padding the
  /// three 32-bit fields leave after the 8-byte-aligned words, so the cell
  /// stays 48 bytes and no two hooks share a lock unless they share a cell.
  SpinLock Lock;
};

struct Runtime::Impl {
  explicit Impl(const Config &C)
      : HistWords(C.MaxThreads), Threads(C.MaxThreads), Syncs(MaxSyncs),
        Cells(C.ShadowCells) {
    ListPool.setEnabled(C.PoolingEnabled);
    if (C.ProfilingEnabled)
      Prof = std::make_unique<prof::Profiler>();
  }

  static_assert(sizeof(Shadow) == 48, "the shadow table is 64K cells");

  /// Self-profiler (null unless Config::ProfilingEnabled). Trees are
  /// per-thread and single-writer; makeTree itself is mutex-protected, so
  /// concurrent registerThread calls are fine.
  std::unique_ptr<prof::Profiler> Prof;

  static constexpr size_t MaxSyncs = 1 << 14;

  /// Declared before the state tables: the tables' outstanding references
  /// drain back into the pool on destruction.
  SnapshotPool<OrderedList> ListPool;

  /// Words in a shadow cell's read history buffer: T.
  const size_t HistWords;

  /// \p Sh's history buffer, allocated zeroed on first use.
  ClockValue *history(Shadow &Sh) {
    if (!Sh.Hist)
      Sh.Hist = std::make_unique<ClockValue[]>(HistWords);
    return Sh.Hist.get();
  }

  std::vector<ThreadState> Threads;
  std::vector<SyncState> Syncs;
  std::vector<Shadow> Cells;

  std::atomic<uint32_t> NextThread{0};
  std::atomic<uint32_t> NextSync{0};
  std::atomic<uint64_t> Races{0};

  std::mutex RecMu;
  std::vector<Event> Recorded;
};

Runtime::Runtime(const Config &C)
    : Cfg(normalized(C)), I(std::make_unique<Impl>(Cfg)) {
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
  size_t NT = Cfg.MaxThreads;
  switch (Cfg.AnalysisMode) {
  case Mode::NT:
  case Mode::ET:
    break;
  case Mode::FT:
    TS.C = VectorClock(NT);
    TS.C.set(T, 1);
    TS.Scratch = VectorClock(NT);
    break;
  case Mode::ST:
    TS.C = VectorClock(NT);
    TS.Scratch = VectorClock(NT);
    break;
  case Mode::SU:
    TS.C = VectorClock(NT);
    TS.U = VectorClock(NT);
    TS.Scratch = VectorClock(NT);
    break;
  case Mode::SO:
    TS.O = I->ListPool.acquire();
    TS.O->reset(NT);
    TS.U = VectorClock(NT);
    TS.Scratch = VectorClock(NT);
    break;
  }
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
    // Acquire-loads delegate to onAcquire and are accounted there.
  }
  return T;
}

SyncId Runtime::registerSync() {
  uint32_t S = 0;
  return claimId(I->NextSync, Impl::MaxSyncs, S) ? S : NoSync;
}

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

namespace {

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

//===----------------------------------------------------------------------===//
// Internal helpers
//===----------------------------------------------------------------------===//

void Runtime::record(const Event &E) {
  std::lock_guard<std::mutex> G(I->RecMu);
  I->Recorded.push_back(E);
}

Trace Runtime::recordedTrace() const {
  Trace T;
  std::lock_guard<std::mutex> G(I->RecMu);
  for (const Event &E : I->Recorded)
    T.append(E);
  return T;
}

void Runtime::reportRace(ThreadId T, uint64_t Cell, bool OnWrite) {
  ThreadState &TS = I->Threads[T];
  ++TS.Stats.RacesDeclared;
  // Dedup into the thread's own warehouse shard: no lock, no allocation
  // once the shard has seen this signature. The exemplar position is the
  // thread-local event count (online streams have no global order).
  TS.Sink.insert(RaceReport{TS.Stats.Events, T, Cell,
                            OnWrite ? OpKind::Write : OpKind::Read});
  I->Races.fetch_add(1, std::memory_order_relaxed);
  TS.RacyCells.insert(Cell);
}

ClockValue Runtime::knownTime(ThreadId T, ThreadId Of) {
  ThreadState &TS = I->Threads[T];
  if (Cfg.AnalysisMode == Mode::FT)
    return TS.C.get(Of);
  if (Of == T)
    return TS.Epoch;
  return Cfg.AnalysisMode == Mode::SO ? TS.O->get(Of) : TS.C.get(Of);
}

bool Runtime::dominatesHistory(ThreadId T, const ClockValue *H,
                               size_t Len) {
  ThreadState &TS = I->Threads[T];
  if (Cfg.AnalysisMode == Mode::FT)
    return simd::allLeq(H, TS.C.data(), Len);
  const ClockValue *C =
      Cfg.AnalysisMode == Mode::SO ? TS.O->data() : TS.C.data();
  return simd::allLeqWithOverride(H, C, Len, T, TS.Epoch);
}

void Runtime::flushLocalEpoch(ThreadId T) {
  ThreadState &TS = I->Threads[T];
  if (!TS.Dirty)
    return;
  TS.Dirty = false;
  ClockValue Time = TS.Epoch++;
  switch (Cfg.AnalysisMode) {
  case Mode::ST:
    TS.C.set(T, Time);
    break;
  case Mode::SU:
    TS.C.set(T, Time);
    TS.U.bump(T);
    break;
  case Mode::SO:
    // Local-epoch optimization: the own component lives out-of-line, so no
    // deep copy is needed here.
    TS.OwnTime = Time;
    TS.U.bump(T);
    break;
  default:
    break;
  }
}

void Runtime::reclaimCell(Shadow &Sh, uint64_t Addr) {
  if (Sh.Owner == Addr)
    return;
  Sh.Owner = Addr;
  Sh.WTid = 0;
  Sh.WClk = 0;
  Sh.RTid = 0;
  Sh.RClk = 0;
  // Zero the prefix; the buffer stays with the cell.
  if (Sh.Hist)
    std::fill_n(Sh.Hist.get(), Sh.RLen, 0);
  Sh.RLen = 0;
}

void Runtime::soApplyEntry(ThreadId T, ThreadId Of, ClockValue Val) {
  ThreadState &TS = I->Threads[T];
  assert(Of != T && Val > TS.O->get(Of) && "entry not ahead");
  if (TS.ListShared) {
    if (TS.O.unique()) {
      // All snapshot references were overwritten by newer releases; only
      // the owner can mint new ones, so in-place mutation is safe and the
      // copy is never owed. (A stale >1 reading merely costs one extra
      // copy; it can never miss a live reader.)
      TS.ListShared = false;
    } else {
      ++TS.Stats.CowBreaks;
      bool Reused = false;
      ListRef Copy = I->ListPool.acquire(&Reused);
      TS.Stats.PoolHits += Reused ? 1 : 0;
      *Copy = *TS.O; // Flat copy; readers keep the immutable snapshot.
      TS.O = std::move(Copy);
      TS.ListShared = false;
      ++TS.Stats.DeepCopies;
      ++TS.Stats.FullClockOps;
    }
  }
  TS.O->set(Of, Val);
}

unsigned Runtime::soJoinList(ThreadId T, const OrderedList &Src, size_t K,
                             ThreadId SrcTid, ClockValue SrcOwnTime,
                             Metrics &Charged) {
  ThreadState &TS = I->Threads[T];
  unsigned Changed = 0;
  auto Current = [&TS](ThreadId Of) { return TS.O->get(Of); };
  auto Apply = [&](ThreadId Of, ClockValue Val) {
    soApplyEntry(T, Of, Val);
    ++Changed;
  };
  // The source's own component lives out of line (local-epoch
  // optimization); apply it first. SrcTid != T: an acquire of one's own
  // release is always skipped, and no thread forks or joins itself.
  assert(SrcTid != T && "self-join");
  if (SrcOwnTime > Current(SrcTid))
    Apply(SrcTid, SrcOwnTime);
  Charged.EntriesTraversed += Src.visitPrefixAhead(K, T, Current, Apply);
  return Changed;
}

//===----------------------------------------------------------------------===//
// Access hooks
//===----------------------------------------------------------------------===//

void Runtime::onRead(ThreadId T, uint64_t Addr) {
  if (T >= Cfg.MaxThreads)
    return;
  ThreadState &TS = I->Threads[T];
  if (Cfg.AnalysisMode == Mode::NT)
    return;
  HookSample PS(TS.PT, TS.PRead);
  ++TS.Stats.Accesses;
  uint64_t Cell = hashAddress(Addr) % Cfg.ShadowCells;
  bool Sampling = isSamplingMode(Cfg.AnalysisMode);
  bool Sampled = Sampling && Cfg.AnalysisMode != Mode::ET && TS.sampleNext();
  if (Cfg.RecordTrace)
    record(Event(T, OpKind::Read, Cell, Sampled));
  if (Cfg.AnalysisMode == Mode::ET) {
    // Empty-TSan still computes and touches shadow state (that is most of
    // TSan's instrumentation cost); it just runs no analysis. ET mode never
    // writes cells, so this unsynchronized read is safe.
    TS.EtCounter += Cell + I->Cells[Cell].WClk;
    return;
  }
  bool FT = Cfg.AnalysisMode == Mode::FT;
  if (!FT) {
    // Sampling modes: unsampled accesses are skipped entirely.
    if (!Sampled)
      return;
    ++TS.Stats.SampledAccesses;
    TS.Dirty = true;
  }

  Shadow &Sh = I->Cells[Cell];
  std::lock_guard<SpinLock> G(Sh.Lock);
  reclaimCell(Sh, Addr);
  ClockValue MyClk = FT ? TS.C.get(T) : TS.Epoch;
  // FastTrack's same-epoch fast path. Algorithm 2 has none: every sampled
  // read is checked.
  if (FT && (Sh.RLen != 0 ? Sh.Hist[T] == MyClk
                          : Sh.RTid == T && Sh.RClk == MyClk))
    return;
  ++TS.Stats.RaceChecks;
  if (Sh.WClk > knownTime(T, Sh.WTid))
    reportRace(T, Cell, /*OnWrite=*/false);
  if (Sh.RLen != 0) {
    Sh.Hist[T] = MyClk;
    Sh.RLen = std::max(Sh.RLen, T + 1);
  } else if (Sh.RClk <= knownTime(T, Sh.RTid)) {
    // The stored read happens-before this one, which stands for both.
    Sh.RTid = T;
    Sh.RClk = MyClk;
  } else {
    // Promotion: the read vector clock is all zero (RLen == 0).
    ClockValue *RVC = I->history(Sh);
    ++TS.Stats.FullClockOps;
    RVC[Sh.RTid] = Sh.RClk;
    RVC[T] = MyClk;
    Sh.RLen = std::max(Sh.RTid, T) + 1;
  }
}

void Runtime::onWrite(ThreadId T, uint64_t Addr) {
  if (T >= Cfg.MaxThreads)
    return;
  ThreadState &TS = I->Threads[T];
  if (Cfg.AnalysisMode == Mode::NT)
    return;
  HookSample PS(TS.PT, TS.PWrite);
  ++TS.Stats.Accesses;
  uint64_t Cell = hashAddress(Addr) % Cfg.ShadowCells;
  bool Sampling = isSamplingMode(Cfg.AnalysisMode);
  bool Sampled = Sampling && TS.sampleNext();
  if (Cfg.RecordTrace)
    record(Event(T, OpKind::Write, Cell, Sampled));
  if (Cfg.AnalysisMode == Mode::ET) {
    // Empty-TSan still computes and touches shadow state (that is most of
    // TSan's instrumentation cost); it just runs no analysis. ET mode never
    // writes cells, so this unsynchronized read is safe.
    TS.EtCounter += Cell + I->Cells[Cell].WClk;
    return;
  }
  bool FT = Cfg.AnalysisMode == Mode::FT;
  if (!FT) {
    if (!Sampled)
      return;
    ++TS.Stats.SampledAccesses;
    TS.Dirty = true;
  }

  Shadow &Sh = I->Cells[Cell];
  std::lock_guard<SpinLock> G(Sh.Lock);
  reclaimCell(Sh, Addr);
  ClockValue MyClk = FT ? TS.C.get(T) : TS.Epoch;
  if (FT && Sh.WTid == T && Sh.WClk == MyClk)
    return;
  ++TS.Stats.RaceChecks;
  bool WriteRace = Sh.WClk > knownTime(T, Sh.WTid);
  bool ReadRace;
  if (Sh.RLen != 0) {
    ++TS.Stats.FullClockOps;
    ReadRace = !dominatesHistory(T, Sh.Hist.get(), Sh.RLen);
    if (FT) {
      // FastTrack demotes: this write supersedes the read set. Algorithm 2
      // keeps Cr_x, so a promoted sampling history stays promoted.
      std::fill_n(Sh.Hist.get(), Sh.RLen, 0);
      Sh.RLen = 0;
      Sh.RTid = 0;
      Sh.RClk = 0;
    }
  } else {
    ReadRace = Sh.RClk > knownTime(T, Sh.RTid);
  }
  // FastTrack reports each conflicting history; Algorithm 2 declares the
  // write once.
  if (FT && WriteRace && ReadRace)
    reportRace(T, Cell, /*OnWrite=*/true);
  if (WriteRace || ReadRace)
    reportRace(T, Cell, /*OnWrite=*/true);
  Sh.WTid = T;
  Sh.WClk = MyClk;
}

//===----------------------------------------------------------------------===//
// Synchronization hooks
//===----------------------------------------------------------------------===//

void Runtime::onAcquire(ThreadId T, SyncId L) {
  if (T >= Cfg.MaxThreads || L >= Impl::MaxSyncs)
    return;
  ThreadState &TS = I->Threads[T];
  if (Cfg.AnalysisMode == Mode::NT)
    return;
  HookSpan PS(TS.PT, TS.PAcquire);
  if (Cfg.RecordTrace)
    record(Event(T, OpKind::Acquire, L));
  if (Cfg.AnalysisMode == Mode::ET) {
    TS.EtCounter += L;
    return;
  }
  ++TS.Stats.AcquiresTotal;
  SyncState &S = I->Syncs[L];

  switch (Cfg.AnalysisMode) {
  case Mode::FT:
  case Mode::ST: {
    std::lock_guard<SpinLock> G(S.Lock);
    if (!S.Initialized) {
      ++TS.Stats.AcquiresSkipped;
      return;
    }
    ++TS.Stats.AcquiresProcessed;
    ++TS.Stats.FullClockOps;
    TS.C.joinWith(S.C);
    return;
  }
  case Mode::SU: {
    std::lock_guard<SpinLock> G(S.Lock);
    if (!S.Initialized) {
      ++TS.Stats.AcquiresSkipped;
      return;
    }
    if (S.AcquiredSince.empty())
      S.AcquiredSince.assign(Cfg.MaxThreads, false);
    S.AcquiredSince[T] = true;
    if (!S.MultiSource) {
      if (S.LastReleaser == NoThread ||
          S.U.get(S.LastReleaser) <= TS.U.get(S.LastReleaser)) {
        ++TS.Stats.AcquiresSkipped;
        return;
      }
    }
    // Multi-source content disables the scalar skip (A.2).
    ++TS.Stats.AcquiresProcessed;
    TS.U.joinWith(S.U);
    ++TS.Stats.FullClockOps;
    unsigned Changed = TS.C.joinCountingChanges(S.C);
    ++TS.Stats.FullClockOps;
    TS.U.bump(T, Changed);
    return;
  }
  case Mode::SO: {
    // Only the scalar freshness check and the O(1) snapshot read happen
    // under the sync lock, so a skipped acquire never takes a snapshot
    // reference; the prefix traversal works on immutable data and
    // thread-owned state.
    ListSnapshot Ref;
    ThreadId LR = NoThread;
    ClockValue D = 0, OwnAtRel = 0;
    {
      std::lock_guard<SpinLock> G(S.Lock);
      if (!S.Initialized || (!S.MultiSource && S.LastReleaser == NoThread)) {
        ++TS.Stats.AcquiresSkipped;
        return;
      }
      if (S.MultiSource) {
        // Blended content: unoptimized full join under the sync lock
        // (A.2 — "no innovations can be adopted" on this path).
        ++TS.Stats.AcquiresProcessed;
        TS.U.joinWith(S.U);
        ++TS.Stats.FullClockOps;
        unsigned Changed = 0;
        for (ThreadId Of = 0; Of < Cfg.MaxThreads; ++Of) {
          // visitPrefixAhead's rule, over an owned clock.
          if (Of != T && S.C.get(Of) > TS.O->get(Of)) {
            soApplyEntry(T, Of, S.C.get(Of));
            ++Changed;
          }
        }
        TS.Stats.EntriesTraversed += Cfg.MaxThreads;
        TS.Stats.TraversalOpportunities += Cfg.MaxThreads;
        ++TS.Stats.FullClockOps;
        TS.U.bump(T, Changed);
        return;
      }
      LR = S.LastReleaser;
      ClockValue Known = TS.U.get(LR);
      if (S.UScalar <= Known) {
        ++TS.Stats.AcquiresSkipped;
        return;
      }
      D = S.UScalar - Known;
      TS.U.set(LR, S.UScalar);
      Ref = S.Ref;
      OwnAtRel = S.OwnTimeAtRelease;
    }
    ++TS.Stats.AcquiresProcessed;
    // The releaser's scalar is one visited entry; by Proposition 6 only the
    // first D list entries can be ahead of us.
    ++TS.Stats.EntriesTraversed;
    unsigned Changed = soJoinList(T, *Ref, static_cast<size_t>(D), LR,
                                  OwnAtRel, TS.Stats);
    TS.Stats.TraversalOpportunities += Cfg.MaxThreads;
    TS.U.bump(T, Changed);
    return;
  }
  default:
    return;
  }
}

void Runtime::onRelease(ThreadId T, SyncId L) {
  if (T >= Cfg.MaxThreads || L >= Impl::MaxSyncs)
    return;
  ThreadState &TS = I->Threads[T];
  if (Cfg.AnalysisMode == Mode::NT)
    return;
  HookSpan PS(TS.PT, TS.PRelease);
  if (Cfg.RecordTrace)
    record(Event(T, OpKind::Release, L));
  if (Cfg.AnalysisMode == Mode::ET) {
    TS.EtCounter += L;
    return;
  }
  ++TS.Stats.ReleasesTotal;
  SyncState &S = I->Syncs[L];

  switch (Cfg.AnalysisMode) {
  case Mode::FT: {
    {
      std::lock_guard<SpinLock> G(S.Lock);
      if (!S.Initialized) {
        S.C = VectorClock(Cfg.MaxThreads);
        S.Initialized = true;
      }
      ++TS.Stats.ReleasesProcessed;
      ++TS.Stats.FullClockOps;
      S.C.copyFrom(TS.C);
    }
    TS.C.bump(T);
    return;
  }
  case Mode::ST: {
    flushLocalEpoch(T);
    std::lock_guard<SpinLock> G(S.Lock);
    if (!S.Initialized) {
      S.C = VectorClock(Cfg.MaxThreads);
      S.Initialized = true;
    }
    ++TS.Stats.ReleasesProcessed;
    ++TS.Stats.FullClockOps;
    S.C.copyFrom(TS.C);
    return;
  }
  case Mode::SU: {
    flushLocalEpoch(T);
    std::lock_guard<SpinLock> G(S.Lock);
    if (!S.Initialized) {
      S.C = VectorClock(Cfg.MaxThreads);
      S.U = VectorClock(Cfg.MaxThreads);
      S.Initialized = true;
    }
    S.LastReleaser = T;
    S.MultiSource = false;
    // Mutex discipline: this thread acquired the lock beforehand, so the
    // copy is monotone and the skip is sound even after release-joins.
    if (TS.U.get(T) == S.U.get(T)) {
      ++TS.Stats.ReleasesSkipped;
      return;
    }
    ++TS.Stats.ReleasesProcessed;
    TS.Stats.FullClockOps += 2;
    S.C.copyFrom(TS.C);
    S.U.copyFrom(TS.U);
    S.AcquiredSince.assign(Cfg.MaxThreads, false);
    S.AcquiredSince[T] = true;
    return;
  }
  case Mode::SO: {
    flushLocalEpoch(T);
    // Publish-then-mark-shared must be atomic w.r.t. acquirers, but both
    // writes are thread/sync local: the snapshot goes under the sync lock,
    // the shared flag is thread-owned.
    TS.ListShared = true;
    ++TS.Stats.ShallowCopies;
    std::lock_guard<SpinLock> G(S.Lock);
    S.Ref = TS.O;
    S.LastReleaser = T;
    S.UScalar = TS.U.get(T);
    S.OwnTimeAtRelease = TS.OwnTime;
    S.MultiSource = false;
    S.Initialized = true;
    return;
  }
  default:
    return;
  }
}

void Runtime::onFork(ThreadId Parent, ThreadId Child) {
  if (Parent >= Cfg.MaxThreads || Child >= Cfg.MaxThreads)
    return;
  // The child is not running yet: direct access to both states is safe.
  if (Cfg.RecordTrace && Cfg.AnalysisMode != Mode::NT)
    record(Event(Parent, OpKind::Fork, Child));
  ThreadState &P = I->Threads[Parent];
  ThreadState &C = I->Threads[Child];
  HookSpan PS(Cfg.AnalysisMode == Mode::NT ? nullptr : P.PT, P.PFork);
  switch (Cfg.AnalysisMode) {
  case Mode::NT:
    return;
  case Mode::ET:
    ++P.EtCounter;
    return;
  case Mode::FT:
    ++P.Stats.ReleasesTotal;
    ++P.Stats.ReleasesProcessed;
    ++P.Stats.FullClockOps;
    C.C.joinWith(P.C);
    P.C.bump(Parent);
    return;
  case Mode::ST:
    ++P.Stats.ReleasesTotal;
    ++P.Stats.ReleasesProcessed;
    flushLocalEpoch(Parent);
    ++P.Stats.FullClockOps;
    C.C.joinWith(P.C);
    return;
  case Mode::SU: {
    ++P.Stats.ReleasesTotal;
    ++P.Stats.ReleasesProcessed;
    flushLocalEpoch(Parent);
    C.U.joinWith(P.U);
    unsigned Changed = C.C.joinCountingChanges(P.C);
    P.Stats.FullClockOps += 2;
    C.U.bump(Child, Changed);
    return;
  }
  case Mode::SO: {
    ++P.Stats.ReleasesTotal;
    ++P.Stats.ReleasesProcessed;
    flushLocalEpoch(Parent);
    C.U.joinWith(P.U);
    ++P.Stats.FullClockOps;
    unsigned Changed =
        soJoinList(Child, *P.O, Cfg.MaxThreads, Parent, P.OwnTime, P.Stats);
    P.Stats.TraversalOpportunities += Cfg.MaxThreads;
    C.U.bump(Child, Changed);
    return;
  }
  }
}

void Runtime::onJoin(ThreadId Parent, ThreadId Child) {
  if (Parent >= Cfg.MaxThreads || Child >= Cfg.MaxThreads)
    return;
  // The child has been pthread-joined: direct access is safe.
  if (Cfg.RecordTrace && Cfg.AnalysisMode != Mode::NT)
    record(Event(Parent, OpKind::Join, Child));
  ThreadState &P = I->Threads[Parent];
  ThreadState &C = I->Threads[Child];
  HookSpan PS(Cfg.AnalysisMode == Mode::NT ? nullptr : P.PT, P.PJoin);
  switch (Cfg.AnalysisMode) {
  case Mode::NT:
    return;
  case Mode::ET:
    ++P.EtCounter;
    return;
  case Mode::FT:
    ++P.Stats.AcquiresTotal;
    ++P.Stats.AcquiresProcessed;
    ++P.Stats.FullClockOps;
    P.C.joinWith(C.C);
    C.C.bump(Child);
    return;
  case Mode::ST:
    ++P.Stats.AcquiresTotal;
    ++P.Stats.AcquiresProcessed;
    flushLocalEpoch(Child);
    ++P.Stats.FullClockOps;
    P.C.joinWith(C.C);
    return;
  case Mode::SU: {
    ++P.Stats.AcquiresTotal;
    ++P.Stats.AcquiresProcessed;
    flushLocalEpoch(Child);
    P.U.joinWith(C.U);
    unsigned Changed = P.C.joinCountingChanges(C.C);
    P.Stats.FullClockOps += 2;
    P.U.bump(Parent, Changed);
    return;
  }
  case Mode::SO: {
    ++P.Stats.AcquiresTotal;
    ++P.Stats.AcquiresProcessed;
    flushLocalEpoch(Child);
    P.U.joinWith(C.U);
    ++P.Stats.FullClockOps;
    unsigned Changed =
        soJoinList(Parent, *C.O, Cfg.MaxThreads, Child, C.OwnTime, P.Stats);
    P.Stats.TraversalOpportunities += Cfg.MaxThreads;
    P.U.bump(Parent, Changed);
    return;
  }
  }
}


//===----------------------------------------------------------------------===//
// Non-mutex synchronization hooks (appendix A.2)
//===----------------------------------------------------------------------===//

void Runtime::onReleaseStore(ThreadId T, SyncId Sid) {
  if (T >= Cfg.MaxThreads || Sid >= Impl::MaxSyncs)
    return;
  ThreadState &TS = I->Threads[T];
  if (Cfg.AnalysisMode == Mode::NT)
    return;
  HookSpan PS(TS.PT, TS.PReleaseStore);
  if (Cfg.RecordTrace)
    record(Event(T, OpKind::ReleaseStore, Sid));
  if (Cfg.AnalysisMode == Mode::ET) {
    TS.EtCounter += Sid;
    return;
  }
  ++TS.Stats.ReleasesTotal;
  SyncState &S = I->Syncs[Sid];

  switch (Cfg.AnalysisMode) {
  case Mode::FT: {
    {
      std::lock_guard<SpinLock> G(S.Lock);
      if (!S.Initialized) {
        S.C = VectorClock(Cfg.MaxThreads);
        S.Initialized = true;
      }
      ++TS.Stats.ReleasesProcessed;
      ++TS.Stats.FullClockOps;
      S.C.copyFrom(TS.C);
      S.MultiSource = false;
    }
    TS.C.bump(T);
    return;
  }
  case Mode::ST: {
    flushLocalEpoch(T);
    std::lock_guard<SpinLock> G(S.Lock);
    if (!S.Initialized) {
      S.C = VectorClock(Cfg.MaxThreads);
      S.Initialized = true;
    }
    ++TS.Stats.ReleasesProcessed;
    ++TS.Stats.FullClockOps;
    S.C.copyFrom(TS.C);
    S.MultiSource = false;
    return;
  }
  case Mode::SU: {
    flushLocalEpoch(T);
    std::lock_guard<SpinLock> G(S.Lock);
    if (!S.Initialized) {
      S.C = VectorClock(Cfg.MaxThreads);
      S.U = VectorClock(Cfg.MaxThreads);
      S.Initialized = true;
    }
    if (S.AcquiredSince.empty())
      S.AcquiredSince.assign(Cfg.MaxThreads, false);
    // The skip rule requires a monotone update: this thread must have
    // observed the object's current content (A.2).
    bool Monotone = !S.MultiSource && S.AcquiredSince[T];
    if (Monotone && TS.U.get(T) == S.U.get(T)) {
      ++TS.Stats.ReleasesSkipped;
      S.LastReleaser = T;
      S.AcquiredSince[T] = true;
      return;
    }
    ++TS.Stats.ReleasesProcessed;
    TS.Stats.FullClockOps += 2;
    S.C.copyFrom(TS.C);
    S.U.copyFrom(TS.U);
    S.LastReleaser = T;
    S.MultiSource = false;
    S.AcquiredSince.assign(Cfg.MaxThreads, false);
    S.AcquiredSince[T] = true;
    return;
  }
  case Mode::SO:
    // A shallow snapshot has replacement semantics by construction, so the
    // mutex-release path applies unchanged ("the innovations of Algorithm 4
    // can always be adopted").
    flushLocalEpoch(T);
    TS.ListShared = true;
    ++TS.Stats.ShallowCopies;
    {
      std::lock_guard<SpinLock> G(S.Lock);
      S.Ref = TS.O;
      S.LastReleaser = T;
      S.UScalar = TS.U.get(T);
      S.OwnTimeAtRelease = TS.OwnTime;
      S.MultiSource = false;
      S.Initialized = true;
    }
    return;
  default:
    return;
  }
}

void Runtime::onReleaseJoin(ThreadId T, SyncId Sid) {
  if (T >= Cfg.MaxThreads || Sid >= Impl::MaxSyncs)
    return;
  ThreadState &TS = I->Threads[T];
  if (Cfg.AnalysisMode == Mode::NT)
    return;
  HookSpan PS(TS.PT, TS.PReleaseJoin);
  if (Cfg.RecordTrace)
    record(Event(T, OpKind::ReleaseJoin, Sid));
  if (Cfg.AnalysisMode == Mode::ET) {
    TS.EtCounter += Sid;
    return;
  }
  ++TS.Stats.ReleasesTotal;
  ++TS.Stats.ReleasesProcessed;
  SyncState &S = I->Syncs[Sid];

  switch (Cfg.AnalysisMode) {
  case Mode::FT: {
    {
      std::lock_guard<SpinLock> G(S.Lock);
      if (!S.Initialized) {
        S.C = VectorClock(Cfg.MaxThreads);
        S.Initialized = true;
      }
      ++TS.Stats.FullClockOps;
      S.C.joinWith(TS.C);
    }
    TS.C.bump(T);
    return;
  }
  case Mode::ST: {
    flushLocalEpoch(T);
    std::lock_guard<SpinLock> G(S.Lock);
    if (!S.Initialized) {
      S.C = VectorClock(Cfg.MaxThreads);
      S.Initialized = true;
    }
    ++TS.Stats.FullClockOps;
    S.C.joinWith(TS.C);
    return;
  }
  case Mode::SU: {
    flushLocalEpoch(T);
    std::lock_guard<SpinLock> G(S.Lock);
    if (!S.Initialized) {
      S.C = VectorClock(Cfg.MaxThreads);
      S.U = VectorClock(Cfg.MaxThreads);
      S.Initialized = true;
    }
    S.C.joinWith(TS.C);
    S.U.joinWith(TS.U);
    TS.Stats.FullClockOps += 2;
    S.MultiSource = true;
    S.LastReleaser = T;
    // Nobody is known to dominate the blended content anymore.
    S.AcquiredSince.assign(Cfg.MaxThreads, false);
    return;
  }
  case Mode::SO: {
    flushLocalEpoch(T);
    std::lock_guard<SpinLock> G(S.Lock);
    if (S.C.size() == 0) {
      S.C = VectorClock(Cfg.MaxThreads);
      S.U = VectorClock(Cfg.MaxThreads);
    }
    if (!S.MultiSource) {
      // Materialize any single-source snapshot into the owned blend.
      if (S.Ref) {
        S.Ref->toVectorClock(S.C, S.LastReleaser, S.OwnTimeAtRelease);
        S.U.clear();
        S.U.set(S.LastReleaser, S.UScalar);
        TS.Stats.FullClockOps += 2;
        S.Ref.reset();
      } else {
        S.C.clear();
        S.U.clear();
      }
      S.MultiSource = true;
    }
    // Blend this thread's effective clock.
    for (ThreadId Of = 0; Of < Cfg.MaxThreads; ++Of) {
      ClockValue Val = (Of == T) ? TS.OwnTime : TS.O->get(Of);
      if (Val > S.C.get(Of))
        S.C.set(Of, Val);
    }
    S.U.joinWith(TS.U);
    TS.Stats.FullClockOps += 2;
    S.Initialized = true;
    return;
  }
  default:
    return;
  }
}

void Runtime::onAcquireLoad(ThreadId T, SyncId Sid) { onAcquire(T, Sid); }
