//===- sampletrack/detectors/Detector.h - Detector interface ---*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The streaming race-detector interface shared by all engines (Djit+,
/// FastTrack, the three sampling engines ST/SU/SO and the tree-clock
/// ablation TC). A detector consumes
/// batches of events in trace order, each access paired with its sampling
/// decision, realizing the adaptive "marked events" formulation of the
/// Analysis Problem (Problem 1). Synchronization events are always
/// processed.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_DETECTORS_DETECTOR_H
#define SAMPLETRACK_DETECTORS_DETECTOR_H

#include "sampletrack/detectors/Metrics.h"
#include "sampletrack/trace/Event.h"
#include "sampletrack/triage/RaceSink.h"

#include <atomic>
#include <cassert>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

namespace sampletrack {

// RaceReport now lives with the triage subsystem (its identity layer);
// sampletrack/triage/RaceSignature.h defines it and this header re-exposes
// it unchanged for every existing consumer.

/// Base class of every race-detection engine.
///
/// Events enter only through processBatch, the one virtual entry point for
/// events; a subclass implements it with \ref batchDispatch over its own
/// (non-virtual) handlers. The base records races, metrics and the stream
/// position. Events must arrive in trace order. Thread ids must be < the
/// NumThreads given at construction.
///
/// Concurrency contract (the parallel-lane mode of api::AnalysisSession
/// relies on it): a detector instance is lane-local — all mutable state,
/// including the race buffer behind races()/racesTruncated(), belongs to
/// whichever thread is currently driving processBatch, and
/// drivers must hand the instance off with a happens-before edge (a join,
/// or a mutex as SessionHooks uses). Nothing here is synchronized; running
/// K detectors on K threads is safe precisely because no two lanes share
/// an instance. Debug builds assert that no two threads are ever inside
/// one instance at the same time.
class Detector {
public:
  explicit Detector(size_t NumThreads) : NumThreads(NumThreads) {}
  virtual ~Detector() = default;

  /// Engine name as used in the paper ("FT", "ST", "SU", "SO", ...).
  virtual std::string name() const = 0;

  /// Batched ingestion: dispatches Events[I] in order with decision
  /// Sampled[I] (nonzero = in S; only meaningful for access events). Every
  /// engine implements it as a call to \ref batchDispatch, which crosses
  /// the virtual boundary once per batch instead of once per event.
  virtual void processBatch(std::span<const Event> Events,
                            std::span<const uint8_t> Sampled) = 0;

  size_t numThreads() const { return NumThreads; }
  const Metrics &metrics() const { return Stats; }

  /// Deduplicated race reports: the *first* report per race signature, in
  /// first-seen order (the compatibility view over the triage sink that
  /// replaced the historical grow-only race list). Re-declarations of the
  /// same logical race bump a hit counter instead of appending — read
  /// \ref raceSink for the counts.
  const std::vector<RaceReport> &races() const { return Sink.exemplars(); }

  /// True iff the sink ran out of distinct-signature capacity, i.e. some
  /// logical race has no exemplar in \ref races. Duplicate declarations
  /// never truncate (they dedup); RacesDeclared counts every declaration
  /// either way. Lane-local like every other accessor: only meaningful on
  /// the driving thread, or after the run has been joined
  /// (api::AnalysisSession::finish reads it strictly after its lane
  /// workers exit).
  bool racesTruncated() const { return Sink.capped(); }

  /// Default distinct-signature capacity of the race sink (the truncation
  /// threshold the tests probe; RacesDeclared keeps counting past it).
  static constexpr size_t maxStoredRaces() {
    return triage::RaceSink::DefaultCapacity;
  }

  /// Number of distinct race signatures declared so far.
  uint64_t distinctRaces() const { return Sink.distinct(); }

  /// The dedup sink behind declareRace — hit counts, exemplars and the
  /// overflow accounting (feeds the warehouse via summary()).
  const triage::RaceSink &raceSink() const { return Sink; }

  /// Rebounds the sink's distinct-signature capacity. Must be called
  /// before the first event (api::AnalysisSession forwards
  /// SessionConfig::TriageCapacity here).
  void setRaceCapacity(size_t Capacity) { Sink.setCapacity(Capacity); }

  /// Transfers the stored exemplars out without copying. Leaves \ref races
  /// empty; read \ref racesTruncated and \ref raceSink before calling.
  std::vector<RaceReport> takeRaces() { return Sink.takeExemplars(); }

  /// Distinct memory locations on which at least one race was declared (the
  /// paper's "racy locations" of Fig. 6(a)).
  const std::unordered_set<VarId> &racyLocations() const {
    return RacyLocations;
  }

  /// Stream position (index of the next event).
  uint64_t position() const { return Position; }

protected:
  /// The dispatch loop behind every engine's processBatch override: one
  /// lane-guard entry and one bulk stats update per batch, a direct switch
  /// on OpKind per event, and — when \p SkipUnsampled is set (the sampling
  /// engines and the tree-clock ablation, which analyze only accesses in
  /// S) — no handler call at all for the ~99%+ of accesses outside S.
  /// \p Concrete, the most-derived type, provides the handlers onRead,
  /// onWrite, onAcquire, onRelease, onFork, onJoin, onReleaseStore,
  /// onReleaseJoin and onAcquireLoad; the calls are qualified with it, so
  /// they compile to direct (inlinable) calls. The stream position
  /// advances per event (declareRace records it).
  template <bool SkipUnsampled, typename Concrete>
  static void batchDispatch(Concrete &Self, std::span<const Event> Events,
                            std::span<const uint8_t> Sampled) {
    assert(Events.size() == Sampled.size() && "one decision per event");
#ifndef NDEBUG
    DriverScope Guard(Self);
#endif
    uint64_t Accesses = 0, SampledAccesses = 0;
    for (size_t I = 0, N = Events.size(); I < N; ++I) {
      const Event &E = Events[I];
      switch (E.Kind) {
      case OpKind::Read:
      case OpKind::Write: {
        ++Accesses;
        bool IsSampled = Sampled[I] != 0;
        SampledAccesses += IsSampled ? 1 : 0;
        if (SkipUnsampled && !IsSampled)
          break;
        if (E.Kind == OpKind::Read)
          Self.Concrete::onRead(E.Tid, E.var());
        else
          Self.Concrete::onWrite(E.Tid, E.var());
        break;
      }
      case OpKind::Acquire:
        Self.Concrete::onAcquire(E.Tid, E.sync());
        break;
      case OpKind::Release:
        Self.Concrete::onRelease(E.Tid, E.sync());
        break;
      case OpKind::Fork:
        Self.Concrete::onFork(E.Tid, E.childThread());
        break;
      case OpKind::Join:
        Self.Concrete::onJoin(E.Tid, E.childThread());
        break;
      case OpKind::ReleaseStore:
        Self.Concrete::onReleaseStore(E.Tid, E.sync());
        break;
      case OpKind::ReleaseJoin:
        Self.Concrete::onReleaseJoin(E.Tid, E.sync());
        break;
      case OpKind::AcquireLoad:
        Self.Concrete::onAcquireLoad(E.Tid, E.sync());
        break;
      }
      ++Self.Position;
    }
    Self.Stats.Events += Events.size();
    Self.Stats.Accesses += Accesses;
    Self.Stats.SampledAccesses += SampledAccesses;
  }

  /// Records a race declaration at the current stream position. The hot
  /// path is allocation-free once the sink is warm (every distinct
  /// signature and racy location seen once): re-declarations are an O(1)
  /// probe + hit-count bump in the sink and a no-op set insert here.
  void declareRace(ThreadId T, VarId X, OpKind K) {
    ++Stats.RacesDeclared;
    RacyLocations.insert(X);
    Sink.insert(RaceReport{Position, T, X, K});
  }

  Metrics Stats;

private:
  size_t NumThreads;
  uint64_t Position = 0;
  triage::RaceSink Sink;
  std::unordered_set<VarId> RacyLocations;

  /// Lane-affinity guard: set while a thread is inside processBatch. Two
  /// overlapping drivers mean two lanes share one detector — the exact bug
  /// class parallel sessions must never exhibit. The member is present in
  /// every build (so the class layout never depends on NDEBUG); only the
  /// checking scope below is debug-only.
  std::atomic<bool> InHandler{false};

#ifndef NDEBUG
  struct DriverScope {
    explicit DriverScope(Detector &D) : D(D) {
      bool WasBusy = D.InHandler.exchange(true, std::memory_order_acquire);
      assert(!WasBusy &&
             "detector entered concurrently; each lane owns its detector");
      (void)WasBusy;
    }
    ~DriverScope() { D.InHandler.store(false, std::memory_order_release); }
    Detector &D;
  };
  friend struct DriverScope;
#endif
};

} // namespace sampletrack

#endif // SAMPLETRACK_DETECTORS_DETECTOR_H
