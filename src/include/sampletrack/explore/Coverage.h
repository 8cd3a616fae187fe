//===- sampletrack/explore/Coverage.h - Exploration coverage ----*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The coverage report aggregated over one exploration run: how many
/// distinct schedules were analyzed, how many exposed races (by the exact
/// HBClosureOracle), how each engine's deduplicated race-signature set
/// compared against the oracle's per schedule, and the per-engine detection
/// rate — "how many schedules expose this race" as a measured quantity.
///
/// Reports are pure functions of (Workload, SessionConfig, ExploreConfig):
/// no timing fields, no pointers, no iteration-order dependence. The same
/// seed reproduces the same report byte for byte, including its
/// \ref toJson rendering — the determinism contract ExploreTest enforces.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_EXPLORE_COVERAGE_H
#define SAMPLETRACK_EXPLORE_COVERAGE_H

#include "sampletrack/explore/Scheduler.h"

#include <string>
#include <vector>

namespace sampletrack {
namespace explore {

/// One engine's record over the whole exploration.
struct EngineCoverage {
  /// Engine name as used in the paper ("Djit+", "FT", "ST", ...).
  std::string Engine;
  /// Schedules on which this engine was cross-checked against its oracle
  /// reference. Equal to the report's SchedulesRun except for engines
  /// without an exact reference on some trace shapes (the tree-clock
  /// ablation is only checked on schedules without release-joins).
  uint64_t SchedulesChecked = 0;
  /// Checked schedules whose deduplicated signature set matched the oracle.
  uint64_t SchedulesAgreed = 0;
  /// Checked schedules on which the engine's oracle reference declared at
  /// least one race.
  uint64_t OracleRacySchedules = 0;
  /// Of those, schedules where the engine declared at least one race too.
  uint64_t DetectedRacySchedules = 0;
  /// Distinct race signatures this engine found, unioned across all
  /// schedules (the warehouse view of the whole exploration).
  uint64_t DistinctSignatures = 0;
  /// DetectedRacySchedules / OracleRacySchedules (1.0 when the oracle
  /// found nothing anywhere): the per-engine detection rate vs oracle.
  double DetectionRate = 1.0;

  bool operator==(const EngineCoverage &O) const = default;
};

/// One schedule's outcome (kept per schedule so "which interleaving exposed
/// it" is answerable from the report alone).
struct ScheduleOutcome {
  /// Schedule identity: FNV-1a of the thread-choice sequence.
  uint64_t Hash = 0;
  /// Events in the materialized trace (== Workload::numOps()).
  uint64_t Events = 0;
  /// Distinct signatures of the oracle's deduplicated *marked* declaration
  /// list (the sampling engines' reference) on this schedule.
  uint64_t OracleSignatures = 0;
  /// Same for the unrestricted list (the full engines' reference).
  uint64_t OracleFullSignatures = 0;
  /// True iff every engine checked on this schedule matched its reference.
  bool Agreed = true;

  bool operator==(const ScheduleOutcome &O) const = default;
};

/// Aggregate coverage of one exploration run.
struct ExploreReport {
  /// exploreModeName of the mode that ran.
  std::string Mode;
  uint64_t Seed = 0;
  /// ExploreConfig::MaxSchedules as configured (0 = unbounded exhaustive).
  uint64_t SchedulesRequested = 0;
  /// Distinct schedules actually analyzed.
  uint64_t SchedulesRun = 0;
  /// Walks (or DFS branches) that dead-ended with unfinished threads.
  uint64_t DeadlockedSchedules = 0;
  /// Walks discarded because the interleaving was already analyzed.
  uint64_t DuplicateSchedules = 0;
  /// Total events fanned through the analysis sessions.
  uint64_t EventsAnalyzed = 0;
  /// Union of the oracle's marked-declaration signatures over all
  /// schedules.
  uint64_t OracleDistinctSignatures = 0;
  /// Union of the oracle's unrestricted-declaration signatures.
  uint64_t OracleFullDistinctSignatures = 0;
  /// Schedules on which the oracle (unrestricted) declared >= 1 race — the
  /// numerator of "how many schedules expose a race".
  uint64_t SchedulesWithOracleRaces = 0;
  /// True iff every engine agreed with its oracle reference on every
  /// checked schedule — the exploration smoke gate CI asserts.
  bool AllAgreed = true;
  /// Per-engine coverage, in the session's lane order.
  std::vector<EngineCoverage> Engines;
  /// Per-schedule outcomes, in emission order.
  std::vector<ScheduleOutcome> Schedules;

  bool operator==(const ExploreReport &O) const = default;
};

/// Renders the report as a pretty-printed JSON document. Deterministic:
/// equal reports render to equal bytes.
std::string toJson(const ExploreReport &R);

} // namespace explore
} // namespace sampletrack

#endif // SAMPLETRACK_EXPLORE_COVERAGE_H
