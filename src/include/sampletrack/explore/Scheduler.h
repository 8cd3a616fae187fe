//===- sampletrack/explore/Scheduler.h - Interleaving enumeration -*- C++ -*-=//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The deterministic cooperative scheduler behind sampletrack::explore: it
/// takes a \ref Workload and enumerates bounded interleavings, each emitted
/// as a choice sequence (one ThreadId per step) that \ref
/// Scheduler::materialize renders into a standard \ref Trace.
///
/// Three exploration strategies, all fully deterministic in the config:
///
///  - Random: each attempt repeatedly picks a uniformly random thread among
///    the enabled ones (seeded per attempt, so attempt k is reproducible in
///    isolation).
///  - Pct: PCT-style priority walks (Burckhardt et al.): each attempt draws
///    a random thread priority order plus PriorityChangePoints random step
///    depths; at every step the highest-priority enabled thread runs, and
///    crossing a change point demotes the running thread below everyone —
///    a preemption-bounded walk that provably hits rare interleavings with
///    known probability.
///  - Exhaustive: depth-first enumeration of *every* complete interleaving
///    (in ascending thread-id order at each choice point), for small
///    thread/op counts; the closed-form count for lock-free workloads is
///    Workload::unconstrainedInterleavingCount.
///
/// Enabledness rules: a thread must have started (its fork executed, or it
/// is not fork-gated), an Acquire requires the lock free, a Join requires
/// the child program finished; atomics and accesses never block. Attempts
/// that reach a state where unfinished threads exist but none is enabled
/// are deadlocked: counted, never emitted (in exhaustive mode the DFS
/// prunes the dead branch).
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_EXPLORE_SCHEDULER_H
#define SAMPLETRACK_EXPLORE_SCHEDULER_H

#include "sampletrack/explore/Workload.h"
#include "sampletrack/support/Rng.h"

#include <memory>
#include <unordered_set>
#include <vector>

namespace sampletrack {
namespace explore {

/// Which exploration strategy the scheduler runs.
enum class ExploreMode : uint8_t { Random, Pct, Exhaustive };

/// Printable name ("random", "pct", "exhaustive").
const char *exploreModeName(ExploreMode M);

/// Exploration configuration. Everything the scheduler does is a pure
/// function of (Workload, ExploreConfig): the same config enumerates the
/// same schedule set, byte for byte.
struct ExploreConfig {
  ExploreMode Mode = ExploreMode::Random;
  /// Seed for the Random/Pct walks (ignored by Exhaustive, whose order is
  /// structural).
  uint64_t Seed = 1;
  /// Cap on emitted schedules. Random/Pct: must be nonzero; deadlocked or
  /// duplicate walks emit nothing, and generation gives up after
  /// Scheduler::AttemptsPerSchedule walks per requested schedule, so a
  /// small or deadlock-prone space can emit fewer. Exhaustive: 0 =
  /// enumerate all.
  size_t MaxSchedules = 64;
  /// Pct: number of priority change points per walk (the "d - 1" of
  /// PCT's depth-d guarantee).
  size_t PriorityChangePoints = 2;
  /// Drop schedules whose choice sequence was already emitted (compared by
  /// 64-bit hash), so consumers see each distinct interleaving once.
  bool DedupSchedules = true;
};

/// One explored interleaving.
struct Schedule {
  /// Emission index (0-based, in emission order).
  size_t Index = 0;
  /// The thread executed at each step; length == Workload::numOps().
  std::vector<ThreadId> Choices;
  /// FNV-1a hash of the choice sequence — the schedule's identity for
  /// dedup and reporting.
  uint64_t Hash = 0;
};

/// Streaming schedule enumerator. Construct once, then drain with
/// \ref next; generation counters (attempts, deadlocks, duplicates) are
/// valid whenever next has returned false — or at any point midway.
class Scheduler {
public:
  /// Random/Pct walks allowed per requested schedule: the attempt bound
  /// that keeps generation finite when walks deadlock or repeat.
  static constexpr size_t AttemptsPerSchedule = 8;

  Scheduler(const Workload &W, ExploreConfig C);
  ~Scheduler();

  /// Produces the next schedule. Returns false when MaxSchedules were
  /// emitted, when the attempt bound is spent (Random/Pct) or when the
  /// space is exhausted (Exhaustive). A workload with no operations has
  /// nothing to schedule: next() returns false immediately in every mode
  /// (the empty interleaving is not emitted).
  bool next(Schedule &Out);

  /// Schedules emitted so far.
  uint64_t emitted() const { return Emitted; }
  /// Random/Pct generation attempts consumed so far.
  uint64_t attempts() const { return Attempts; }
  /// Attempts (or DFS branches) that dead-ended with unfinished threads.
  uint64_t deadlocked() const { return Deadlocked; }
  /// Attempts discarded because the schedule was already emitted.
  uint64_t duplicates() const { return Duplicates; }

  /// Renders a choice sequence into a Trace over the workload's universes
  /// (Marked bits all clear — sampling is a per-consumer decision).
  /// Asserts that every choice is enabled when taken.
  static Trace materialize(const Workload &W,
                           const std::vector<ThreadId> &Choices);

  /// FNV-1a over the choice sequence.
  static uint64_t hashChoices(const std::vector<ThreadId> &Choices);

private:
  struct Sim; // The enabledness state machine (Scheduler.cpp).

  bool nextRandomLike(Schedule &Out);
  bool nextExhaustive(Schedule &Out);
  /// Runs one seeded Random/Pct walk; returns false on deadlock.
  bool runWalk(uint64_t AttemptSeed, std::vector<ThreadId> &Choices);
  bool emit(std::vector<ThreadId> Choices, Schedule &Out);

  const Workload &W;
  ExploreConfig Cfg;
  uint64_t Emitted = 0;
  uint64_t Attempts = 0;
  uint64_t Deadlocked = 0;
  uint64_t Duplicates = 0;
  std::unordered_set<uint64_t> Seen;

  // Exhaustive-mode DFS state, persisted across next() calls: the current
  // partial choice sequence plus, per depth, the enabled set and the index
  // of the alternative currently taken.
  struct DfsFrame {
    std::vector<ThreadId> Enabled;
    size_t NextAlt = 0;
  };
  std::unique_ptr<Sim> DfsSim;
  std::vector<DfsFrame> DfsStack;
  std::vector<ThreadId> DfsChoices;
  bool DfsDone = false;
};

} // namespace explore
} // namespace sampletrack

#endif // SAMPLETRACK_EXPLORE_SCHEDULER_H
