//===- sampletrack/explore/Workload.h - Schedulable programs ---*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unit of schedule exploration: a concurrent program factored into one
/// straight-line operation sequence per thread. Where a \ref Trace is one
/// *interleaving* (a total order of events), an explore::Workload is the
/// program that interleaving came from — the per-thread projections — and
/// the explore::Scheduler re-interleaves it, emitting each schedule as a
/// standard Trace so every existing consumer (the engines, the oracle,
/// api::AnalysisSession, triage) runs on it unmodified.
///
/// Every operation is a schedule point: the scheduler may switch threads
/// before any of them, subject to the enabledness rules (a thread blocks on
/// acquiring a held lock, on joining an unfinished thread, and before its
/// own fork executes; atomics never block). Projecting a well-formed Trace
/// with \ref Workload::fromTrace yields a workload whose schedule space
/// contains the original interleaving — record one execution online
/// (rt::Config::RecordTrace), project it, and explore the neighbors the
/// scheduler can reach.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_EXPLORE_WORKLOAD_H
#define SAMPLETRACK_EXPLORE_WORKLOAD_H

#include "sampletrack/trace/Trace.h"

#include <string>
#include <vector>

namespace sampletrack {
namespace explore {

/// One schedule-point operation of a thread program: an Event minus the
/// thread id (implied by the owning program) and the Marked bit (sampling
/// is decided per schedule, after materialization).
struct Op {
  OpKind Kind = OpKind::Read;
  /// Overloaded like Event::Target: VarId for accesses, SyncId for
  /// lock/atomic operations, ThreadId for fork/join.
  uint64_t Target = 0;

  bool operator==(const Op &O) const {
    return Kind == O.Kind && Target == O.Target;
  }
};

/// A concurrent program as the scheduler sees it: dense thread/sync/var
/// universes and one operation sequence per thread. Build it with the
/// Trace-style appenders, or project an existing execution with
/// \ref fromTrace.
class Workload {
public:
  Workload() = default;

  /// Adds an (initially empty) thread program and returns its id.
  ThreadId addThread();

  size_t numThreads() const { return Programs.size(); }
  size_t numSyncs() const { return NumSyncs; }
  size_t numVars() const { return NumVars; }
  /// Total operations across all programs (the length of every complete
  /// schedule).
  size_t numOps() const;

  const std::vector<Op> &program(ThreadId T) const { return Programs[T]; }

  // Appenders mirror the Trace builders; all grow the universes as needed.
  void read(ThreadId T, VarId X) { append(T, {OpKind::Read, X}); }
  void write(ThreadId T, VarId X) { append(T, {OpKind::Write, X}); }
  void acquire(ThreadId T, SyncId L) { append(T, {OpKind::Acquire, L}); }
  void release(ThreadId T, SyncId L) { append(T, {OpKind::Release, L}); }
  void fork(ThreadId Parent, ThreadId Child) {
    append(Parent, {OpKind::Fork, Child});
  }
  void join(ThreadId Parent, ThreadId Child) {
    append(Parent, {OpKind::Join, Child});
  }
  void releaseStore(ThreadId T, SyncId S) {
    append(T, {OpKind::ReleaseStore, S});
  }
  void releaseJoin(ThreadId T, SyncId S) {
    append(T, {OpKind::ReleaseJoin, S});
  }
  void acquireLoad(ThreadId T, SyncId S) {
    append(T, {OpKind::AcquireLoad, S});
  }

  /// Appends one raw operation to thread \p T's program, growing the
  /// universes (threads, syncs, vars) to cover its ids.
  void append(ThreadId T, Op O);

  /// Projects an execution onto per-thread programs: Events[i] with tid t
  /// becomes the next operation of program t, in stream order; universes
  /// carry over; Marked bits are dropped. The original interleaving is the
  /// schedule whose choice sequence is the trace's own tid sequence.
  static Workload fromTrace(const Trace &T);

  /// Per-thread ids the scheduler needs to know must not run before their
  /// fork: Out[t] is true iff some program contains fork(t).
  std::vector<uint8_t> forkTargets() const;

  /// True iff any program contains an operation that can block or gate
  /// enabledness (Acquire, Join) or that gates another thread's start
  /// (Fork). Workloads without blocking structure have exactly
  /// \ref unconstrainedInterleavingCount complete schedules.
  bool hasBlockingOps() const;

  /// True iff any program contains a release-join, the one operation the
  /// tree-clock ablation approximates.
  bool hasReleaseJoins() const;

  /// The multinomial coefficient numOps()! / prod(len(program)!): the exact
  /// number of distinct interleavings when \ref hasBlockingOps is false
  /// (and an upper bound otherwise). Saturates at UINT64_MAX. Note the
  /// empty workload counts 1 here (the empty product) while the scheduler
  /// emits no schedules for it — there is nothing to schedule.
  uint64_t unconstrainedInterleavingCount() const;

  /// Checks the static half of schedulability: ids in range, per-thread
  /// lock discipline (a thread never acquires a lock it already holds in
  /// program order, never releases one it does not), no self-fork/join, and
  /// no thread forked twice. Dynamic properties (deadlock freedom, fork
  /// cycles) are the scheduler's to detect per schedule. On failure returns
  /// false and, if \p Error is nonnull, stores a diagnostic.
  bool validate(std::string *Error = nullptr) const;

  bool operator==(const Workload &O) const {
    return Programs == O.Programs && NumSyncs == O.NumSyncs &&
           NumVars == O.NumVars;
  }

private:
  std::vector<std::vector<Op>> Programs;
  size_t NumSyncs = 0;
  size_t NumVars = 0;
};

} // namespace explore
} // namespace sampletrack

#endif // SAMPLETRACK_EXPLORE_WORKLOAD_H
