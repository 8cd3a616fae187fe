//===- sampletrack/detectors/EngineDetector.h - Offline engines -*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The offline detectors FT, ST, SU, SO and TC: one Detector over an
/// engine core (EngineCore.h), which keeps a growable table of sync objects
/// and one access history per variable. The core's accessors (threadClock,
/// freshnessClock, orderedList, isListShared, localEpoch, isDirty,
/// effectiveComponent) are the detector's.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_DETECTORS_ENGINEDETECTOR_H
#define SAMPLETRACK_DETECTORS_ENGINEDETECTOR_H

#include "sampletrack/detectors/Detector.h"
#include "sampletrack/detectors/EngineCore.h"

#include <vector>

namespace sampletrack {

/// An offline engine: \p Core's transitions driven by batchDispatch. The
/// sampling cores (and TC) see only sampled accesses; FT sees every access.
/// The handlers are batchDispatch's statically bound targets, not virtual.
template <typename Core>
class EngineDetector final : public Detector, public Core {
  static_assert(engine::EngineCore<Core>,
                "the engine policy must provide the EngineCore transitions");
  static_assert(std::is_same_v<typename Core::Lock, engine::NoLock>,
                "an offline detector is driven by one lane at a time");

public:
  /// \p Args go to the core after the thread count (SO's local-epoch flag).
  template <typename... ArgTs>
  explicit EngineDetector(size_t NumThreads, ArgTs... Args)
      : Detector(NumThreads), Core(NumThreads, Args...) {}

  std::string name() const override { return Core::Name; }

  void onRead(ThreadId T, VarId X) {
    engine::checkRead(core(), T, history(X), Stats,
                      [&](OpKind K) { declareRace(T, X, K); });
  }
  void onWrite(ThreadId T, VarId X) {
    engine::checkWrite(core(), T, history(X), Stats,
                       [&](OpKind K) { declareRace(T, X, K); });
  }
  void onAcquire(ThreadId T, SyncId L) {
    Core::acquire(T, sync(L), Stats);
  }
  void onRelease(ThreadId T, SyncId L) {
    Core::release(T, sync(L), Stats);
  }
  void onFork(ThreadId Parent, ThreadId Child) {
    Core::fork(Parent, Child, Stats);
  }
  void onJoin(ThreadId Parent, ThreadId Child) {
    Core::join(Parent, Child, Stats);
  }
  void onReleaseStore(ThreadId T, SyncId S) {
    Core::releaseStore(T, sync(S), Stats);
  }
  void onReleaseJoin(ThreadId T, SyncId S) {
    Core::releaseJoin(T, sync(S), Stats);
  }
  void onAcquireLoad(ThreadId T, SyncId S) {
    Core::acquire(T, sync(S), Stats);
  }

  void processBatch(std::span<const Event> Events,
                    std::span<const uint8_t> Sampled) override {
    batchDispatch</*SkipUnsampled=*/Core::Sampling>(*this, Events, Sampled);
  }

private:
  Core &core() { return *this; }

  typename Core::Sync &sync(SyncId S) {
    growToIndex(Syncs, S);
    return Syncs[S];
  }

  engine::AccessHistory &history(VarId X) {
    // Geometric growth: ascending-VarId traces would otherwise reallocate
    // (and move every history) once per new variable.
    growToIndex(Vars, X);
    return Vars[X];
  }

  std::vector<typename Core::Sync> Syncs;
  std::vector<engine::AccessHistory> Vars;
};

/// FT: FastTrack, the paper's full-analysis baseline.
using FastTrackDetector = EngineDetector<engine::FTCore<>>;
/// ST: Algorithm 2, the sampling timestamp with naive communication.
using SamplingNaiveDetector = EngineDetector<engine::STCore<>>;
/// SU: Algorithm 3, sampling clocks plus freshness (U) clocks.
using SamplingUClockDetector = EngineDetector<engine::SUCore<>>;
/// SO: Algorithm 4, ordered lists with lazy copies. The second constructor
/// argument toggles the Section 6.1 local-epoch optimization (default on).
using SamplingOrderedListDetector = EngineDetector<engine::SOCore<>>;
/// TC: the Section 7 ablation, full-HB tree clocks with sampled checks.
using TreeClockDetector = EngineDetector<engine::TCCore>;

} // namespace sampletrack

#endif // SAMPLETRACK_DETECTORS_ENGINEDETECTOR_H
