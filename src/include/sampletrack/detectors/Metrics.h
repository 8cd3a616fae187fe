//===- sampletrack/detectors/Metrics.h - Work counters ---------*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fine-grained work counters mirroring the metrics of the paper's RAPID
/// evaluation (appendix A.1): skipped acquires/releases, deep/shallow
/// copies, ordered-list entries traversed and saved. The figure benches and
/// the complexity-bound tests read these.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_DETECTORS_METRICS_H
#define SAMPLETRACK_DETECTORS_METRICS_H

#include <cstdint>
#include <string>

namespace sampletrack {

/// Counters accumulated by a detector over one run.
struct Metrics {
  /// Events dispatched to the detector, by class.
  uint64_t Events = 0;
  uint64_t Accesses = 0;
  uint64_t SampledAccesses = 0;

  /// Acquire-side work (acquire, join, acquire-load).
  uint64_t AcquiresTotal = 0;
  /// Acquires whose join was skipped entirely thanks to the freshness check
  /// (Line 7 of Algorithm 3 / Line 7 of Algorithm 4).
  uint64_t AcquiresSkipped = 0;
  /// Acquires that performed a join.
  uint64_t AcquiresProcessed = 0;

  /// Release-side work (release, fork, release-store, release-join).
  uint64_t ReleasesTotal = 0;
  /// Releases that skipped updating the sync object (Line 19 of
  /// Algorithm 3).
  uint64_t ReleasesSkipped = 0;
  /// Releases that performed an O(T) copy/join into the sync object.
  uint64_t ReleasesProcessed = 0;

  /// Copy-on-write traffic of Algorithm 4.
  uint64_t ShallowCopies = 0;
  uint64_t DeepCopies = 0;

  /// Zero-allocation hot-path economics (SnapshotPool). CowBreaks counts
  /// deep copies forced because a published snapshot was still referenced
  /// when its owner mutated; on the lazy-CoW path every deep copy is a
  /// break, so CowBreaks == DeepCopies there (uncontended re-owns are
  /// free, which is why DeepCopies drops versus the eager scheme).
  /// PoolHits counts buffer requests the pool's free list served without
  /// touching the allocator. Each offline lane owns its pool, so PoolHits
  /// is as deterministic as the other counters and the differential
  /// harness compares it exactly across worker counts.
  uint64_t PoolHits = 0;
  uint64_t CowBreaks = 0;

  /// Ordered-list join economics. EntriesTraversed counts Algorithm 4's
  /// visited prefix: 1 for the releaser's out-of-line scalar plus min(D, T)
  /// per processed single-source acquire (D = U_l - U_t(LR_l)), and T per
  /// fork, join or multi-source join. A visit is one compare against the
  /// acquirer's component; only entries strictly ahead are applied (copy-
  /// on-write break, move to the head). TraversalOpportunities is what a
  /// vanilla vector clock would have visited (T per non-skipped acquire).
  /// SavedTraversals = Opportunities - Visited.
  uint64_t EntriesTraversed = 0;
  uint64_t TraversalOpportunities = 0;

  /// Number of O(T) whole-clock operations (joins, copies,
  /// materializations) performed anywhere; the complexity-bound tests check
  /// this against the paper's O(|S| T) style bounds. On the access path the
  /// only such operations are read-history promotions and write checks
  /// against a promoted read history: write histories, and read histories
  /// until two unordered reads meet, are epochs.
  uint64_t FullClockOps = 0;

  /// Race-detection activity.
  uint64_t RaceChecks = 0;
  uint64_t RacesDeclared = 0;

  /// Sum of all counters relevant to "algorithmic work"; used as a crude
  /// cross-engine comparison in tests.
  uint64_t totalTimestampingWork() const {
    return EntriesTraversed + FullClockOps;
  }

  /// Multi-line human-readable dump.
  std::string str() const;

  /// Field-wise accumulation (rt::Runtime sums its per-thread counters
  /// with it).
  Metrics &operator+=(const Metrics &O) {
    Events += O.Events;
    Accesses += O.Accesses;
    SampledAccesses += O.SampledAccesses;
    AcquiresTotal += O.AcquiresTotal;
    AcquiresSkipped += O.AcquiresSkipped;
    AcquiresProcessed += O.AcquiresProcessed;
    ReleasesTotal += O.ReleasesTotal;
    ReleasesSkipped += O.ReleasesSkipped;
    ReleasesProcessed += O.ReleasesProcessed;
    ShallowCopies += O.ShallowCopies;
    DeepCopies += O.DeepCopies;
    PoolHits += O.PoolHits;
    CowBreaks += O.CowBreaks;
    EntriesTraversed += O.EntriesTraversed;
    TraversalOpportunities += O.TraversalOpportunities;
    FullClockOps += O.FullClockOps;
    RaceChecks += O.RaceChecks;
    RacesDeclared += O.RacesDeclared;
    return *this;
  }

  /// Field-wise equality; the engine-equivalence tests use it to assert that
  /// a session fan-out lane did bit-identical work to a standalone run.
  bool operator==(const Metrics &) const = default;
};

} // namespace sampletrack

#endif // SAMPLETRACK_DETECTORS_METRICS_H
