//===- sampletrack/runtime/Runtime.h - Online instrumented runtime -*- C++ -*-/
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The online race-detection runtime standing in for the paper's modified
/// ThreadSanitizer (Section 6.1). Real application threads call the hook
/// API (onRead/onWrite/onAcquire/onRelease/...) and the runtime performs
/// the configured engine's analysis concurrently:
///
///  - NT: hooks return immediately (uninstrumented baseline),
///  - ET: hooks pay only "instrumentation" cost — address hashing and a
///        per-thread counter — with no analysis (Empty-TSan),
///  - FT: FastTrack full analysis (Full-TSan),
///  - ST/SU/SO: the paper's sampling engines at a configurable rate.
///
/// FT/ST/SU/SO run the engine policies of detectors/EngineCore.h, the same
/// transitions the offline detectors run, with this runtime's one-word spin
/// lock as their sync lock. The constructor builds one implementation for
/// the configured mode, so no hook branches on the mode. What stays here is
/// online-only: the lock words, address hashing and shadow-cell ownership,
/// the NT and ET modes, trace recording and self-profiling.
///
/// Concurrency discipline (mirrors TSan's): a thread's clocks, metrics and
/// race-sink shard are owned by that thread. Each sync object and each
/// shadow cell carries its own 4-byte lock word, a spin lock that every
/// hook touching that object or cell holds for its whole analysis step
/// (the sync work nests inside the application's critical section, which
/// is exactly how vanilla timestamping "exacerbates existing lock
/// contention"). Two hooks contend only when they share a sync object or
/// a cell, and no hook calls into pthreads. Every guarded step is short and
/// never sleeps, apart from the allocator and the SnapshotPool, so waiters
/// spin and yield rather than park. SO's shared ordered lists are immutable
/// once published (copy-on-write), so references can be handed across
/// threads under the sync object's lock alone.
///
/// Shadow layout: a cell is 48 bytes, the engines' access-history record
/// (a write epoch, a read epoch and a pointer to one flat read history of
/// MaxThreads words, allocated when two unordered reads first meet on the
/// cell), its lock word in the record's tail padding, and its owner
/// address. Every engine's write history is the epoch alone: for the
/// sampling modes that is Algorithm 2's Cw_x, exact by Proposition 3. So a
/// sampled access costs O(1) unless the cell's reads are promoted, a
/// promoted check is one pointer hop and a raw-array compare, and an
/// evicted address's history is zeroed in place.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_RUNTIME_RUNTIME_H
#define SAMPLETRACK_RUNTIME_RUNTIME_H

#include "sampletrack/detectors/Metrics.h"
#include "sampletrack/prof/Profiler.h"
#include "sampletrack/prof/Report.h"
#include "sampletrack/trace/Trace.h"
#include "sampletrack/triage/RaceSink.h"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace sampletrack {
namespace rt {

namespace detail {
/// The online state every mode shares; each mode's hooks override it.
class RuntimeBase;
} // namespace detail

/// Analysis configuration ladder of Section 6.2.2.
enum class Mode {
  NT, ///< No instrumentation.
  ET, ///< Instrumentation callbacks without analysis.
  FT, ///< Full FastTrack analysis.
  ST, ///< Sampling, naive synchronization handling (Algorithm 2).
  SU, ///< Sampling with freshness clocks (Algorithm 3).
  SO, ///< Sampling with ordered lists and lazy copies (Algorithm 4).
};

const char *modeName(Mode M);

/// True for the three sampling modes.
inline bool isSamplingMode(Mode M) {
  return M == Mode::ST || M == Mode::SU || M == Mode::SO;
}

struct Config {
  Mode AnalysisMode = Mode::FT;
  /// Sampling rate for ST/SU/SO (fraction of accesses in S).
  double SamplingRate = 0.03;
  uint64_t Seed = 1;
  /// Fixed vector-clock size; threads beyond this cannot register (TSan v3
  /// uses a fixed 256-slot clock; we default lower to match our workloads).
  /// The analysis modes allocate every thread's clocks at construction.
  /// The runtime raises 0 to 1: thread 0 is always pre-registered.
  size_t MaxThreads = 64;
  /// Number of shadow cells (addresses are hashed into this space). Each
  /// cell carries its own lock, so this is also the number of locks on the
  /// access path. The runtime raises 0 to 1. \ref Runtime::config reports
  /// the values in use.
  size_t ShadowCells = 1 << 16;
  /// Record every hook invocation as an offline trace event (under a global
  /// mutex — slow; for debugging and cross-validation against the offline
  /// engines). Access events carry their sampling decision in the Marked
  /// bit, so an offline replay sees the identical sample set.
  bool RecordTrace = false;
  /// Distinct-signature capacity of each thread's race sink (0 = the
  /// default, 1<<16 per thread). Race declarations dedup into per-thread
  /// sinks lock-free; \ref Runtime::triageSummary merges the shards.
  size_t TriageCapacity = 0;
  /// Build the hierarchical span profile (sampletrack/prof) while the
  /// runtime runs: per-thread access/sync span trees, merged by
  /// \ref Runtime::profileReport. Off by default — hooks pay only one
  /// predictable branch when disabled.
  bool ProfilingEnabled = false;
};

/// One detected race, as reported online.
struct OnlineRace {
  ThreadId Tid;
  uint64_t Address;
  bool OnWrite;
};

/// The concurrent analysis runtime. Thread-compatible: each registered
/// thread may invoke hooks concurrently with all others.
class Runtime {
public:
  explicit Runtime(const Config &C);
  ~Runtime();

  Runtime(const Runtime &) = delete;
  Runtime &operator=(const Runtime &) = delete;

  /// The configuration in use: \p C as passed to the constructor, with its
  /// sizing fields normalized (see Config::MaxThreads).
  const Config &config() const { return Cfg; }

  /// Registers the calling thread; returns its dense id. Must be called
  /// before any other hook from that thread. Thread 0 is pre-registered as
  /// the "main" thread. Returns NoThread once MaxThreads ids are taken.
  ThreadId registerThread();

  /// Creates a new sync object (lock/atomic) id, or returns NoSync once
  /// the runtime's fixed sync table is full.
  SyncId registerSync();

  // -- Instrumentation hooks -------------------------------------------
  /// A hook naming a thread id >= MaxThreads (NoThread included, and a
  /// fork/join child too) or a sync id past the sync table (NoSync
  /// included) is dropped: it is neither analyzed nor recorded.
  void onRead(ThreadId T, uint64_t Addr);
  void onWrite(ThreadId T, uint64_t Addr);
  void onAcquire(ThreadId T, SyncId L);
  void onRelease(ThreadId T, SyncId L);
  void onFork(ThreadId Parent, ThreadId Child);
  void onJoin(ThreadId Parent, ThreadId Child);

  // Non-mutex synchronization (appendix A.2): atomic release-stores
  // (replacement semantics), release-joins (RMW/shared release sequences,
  // blending semantics) and acquire-loads.
  void onReleaseStore(ThreadId T, SyncId S);
  void onReleaseJoin(ThreadId T, SyncId S);
  void onAcquireLoad(ThreadId T, SyncId S);

  // -- Results ----------------------------------------------------------
  /// Total races declared (cheap, atomic).
  uint64_t raceCount() const;
  /// Distinct racy shadow cells ("racy locations", Fig. 6(a)): the union
  /// of the per-thread racy-cell sets. Call only when no hooks are running
  /// (like triageSummary).
  size_t racyLocationCount() const;
  /// Deduplicated race warehouse view: per-thread sink shards merged in
  /// thread order. Call only when no hooks are running (like
  /// aggregatedMetrics).
  triage::TriageSummary triageSummary() const;
  /// Distinct race signatures across all threads (quiescent-only).
  uint64_t distinctRaceCount() const;
  /// Merged per-thread metrics. Call only when no hooks are running.
  Metrics aggregatedMetrics() const;
  /// The recorded execution (empty unless Config::RecordTrace). The order
  /// is a valid linearization of the hooks: per-thread order and per-sync
  /// release-before-acquire order are preserved; only mutually racing
  /// accesses may be permuted. Call only when no hooks are running.
  Trace recordedTrace() const;
  /// Merged self-profile across all registered threads (empty unless
  /// Config::ProfilingEnabled). Spans: rt-thread trees with
  /// runtime/access/{read,write} aggregate samples and
  /// runtime/sync/{acquire,release,...} timed spans. Call only when no
  /// hooks are running.
  prof::Report profileReport() const;
  /// The underlying profiler (null unless Config::ProfilingEnabled), for
  /// chrome-trace export alongside other profilers. Quiescent-only.
  const prof::Profiler *profiler() const;

private:
  Config Cfg;
  std::unique_ptr<detail::RuntimeBase> I;
};

/// An instrumented mutex: wraps a real std::mutex and reports acquire and
/// release to the runtime, in the same order TSan does (acquire hook after
/// locking, release hook before unlocking).
class Mutex {
public:
  explicit Mutex(Runtime &Rt) : Rt(Rt), Id(Rt.registerSync()) {}

  void lock(ThreadId T) {
    M.lock();
    Rt.onAcquire(T, Id);
  }
  void unlock(ThreadId T) {
    Rt.onRelease(T, Id);
    M.unlock();
  }
  SyncId id() const { return Id; }

private:
  Runtime &Rt;
  SyncId Id;
  std::mutex M;
};

/// An instrumented atomic word with release/acquire message-passing
/// semantics: store publishes the writer's timestamp (release-store),
/// load imports it (acquire-load).
class AtomicFlag {
public:
  explicit AtomicFlag(Runtime &Rt) : Rt(Rt), Id(Rt.registerSync()) {}

  void store(ThreadId T, uint64_t V) {
    Rt.onReleaseStore(T, Id);
    Value.store(V, std::memory_order_release);
  }
  uint64_t load(ThreadId T) {
    uint64_t V = Value.load(std::memory_order_acquire);
    Rt.onAcquireLoad(T, Id);
    return V;
  }
  SyncId id() const { return Id; }

private:
  Runtime &Rt;
  SyncId Id;
  std::atomic<uint64_t> Value{0};
};

/// An instrumented N-party barrier. Arrivals blend their timestamps into
/// the barrier's sync object (release-join); departures import the blend
/// (acquire-load) — every pre-barrier event happens-before every
/// post-barrier event, in both the real execution and the analysis.
class Barrier {
public:
  Barrier(Runtime &Rt, size_t Parties)
      : Rt(Rt), Id(Rt.registerSync()), Parties(Parties) {}

  void arriveAndWait(ThreadId T) {
    Rt.onReleaseJoin(T, Id);
    std::unique_lock<std::mutex> G(M);
    size_t MyGen = Generation;
    if (++Waiting == Parties) {
      Waiting = 0;
      ++Generation;
      Cv.notify_all();
    } else {
      Cv.wait(G, [&] { return Generation != MyGen; });
    }
    G.unlock();
    Rt.onAcquireLoad(T, Id);
  }

private:
  Runtime &Rt;
  SyncId Id;
  size_t Parties;
  std::mutex M;
  std::condition_variable Cv;
  size_t Waiting = 0;
  size_t Generation = 0;
};

} // namespace rt
} // namespace sampletrack

#endif // SAMPLETRACK_RUNTIME_RUNTIME_H
