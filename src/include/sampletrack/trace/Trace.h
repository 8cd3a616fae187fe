//===- sampletrack/trace/Trace.h - Execution traces ------------*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An in-memory program execution: a sequence of events plus the sizes of
/// its thread/lock/variable universes. A builder API keeps generators and
/// tests terse, and \ref Trace::validate checks the well-formedness rules of
/// Section 2 (lock alternation, fork-before-first-event, ...).
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_TRACE_TRACE_H
#define SAMPLETRACK_TRACE_TRACE_H

#include "sampletrack/trace/Event.h"

#include <algorithm>
#include <string>
#include <vector>

namespace sampletrack {

/// A finite execution with dense thread/sync/var identifier spaces.
class Trace {
public:
  Trace() = default;
  Trace(size_t NumThreads, size_t NumSyncs, size_t NumVars)
      : NumThreads(NumThreads), NumSyncs(NumSyncs), NumVars(NumVars) {}

  size_t numThreads() const { return NumThreads; }
  size_t numSyncs() const { return NumSyncs; }
  size_t numVars() const { return NumVars; }
  size_t size() const { return Events.size(); }
  bool empty() const { return Events.empty(); }

  const Event &operator[](size_t I) const { return Events[I]; }
  Event &operator[](size_t I) { return Events[I]; }
  const std::vector<Event> &events() const { return Events; }

  std::vector<Event>::const_iterator begin() const { return Events.begin(); }
  std::vector<Event>::const_iterator end() const { return Events.end(); }

  /// Appends an event, growing the universes if the ids are new. Inline:
  /// the binary decoder calls it once per event.
  void append(const Event &E) {
    size_t NeededThreads = static_cast<size_t>(E.Tid) + 1;
    if (E.Kind == OpKind::Fork || E.Kind == OpKind::Join)
      NeededThreads =
          std::max(NeededThreads, static_cast<size_t>(E.Target) + 1);
    if (NeededThreads > NumThreads)
      NumThreads = NeededThreads;

    if (isAccess(E.Kind)) {
      if (E.Target + 1 > NumVars)
        NumVars = E.Target + 1;
    } else if (E.Kind != OpKind::Fork && E.Kind != OpKind::Join) {
      if (E.Target + 1 > NumSyncs)
        NumSyncs = E.Target + 1;
    }
    Events.push_back(E);
  }

  /// Reserves room for \p N events (see std::vector::reserve).
  void reserve(size_t N) { Events.reserve(N); }

  // Convenience builders (all grow the universes as needed). \p Marked
  // realizes membership in the sample set S for offline analyses.
  void read(ThreadId T, VarId X, bool Marked = false) {
    append(Event(T, OpKind::Read, X, Marked));
  }
  void write(ThreadId T, VarId X, bool Marked = false) {
    append(Event(T, OpKind::Write, X, Marked));
  }
  void acquire(ThreadId T, SyncId L) {
    append(Event(T, OpKind::Acquire, L));
  }
  void release(ThreadId T, SyncId L) {
    append(Event(T, OpKind::Release, L));
  }
  void fork(ThreadId Parent, ThreadId Child) {
    append(Event(Parent, OpKind::Fork, Child));
  }
  void join(ThreadId Parent, ThreadId Child) {
    append(Event(Parent, OpKind::Join, Child));
  }
  void releaseStore(ThreadId T, SyncId S) {
    append(Event(T, OpKind::ReleaseStore, S));
  }
  void releaseJoin(ThreadId T, SyncId S) {
    append(Event(T, OpKind::ReleaseJoin, S));
  }
  void acquireLoad(ThreadId T, SyncId S) {
    append(Event(T, OpKind::AcquireLoad, S));
  }

  /// Number of events currently marked (|S|).
  size_t countMarked() const;

  /// Number of events of kind \p K.
  size_t countKind(OpKind K) const;

  /// Checks well-formedness: ids within range, lock acquire/release
  /// alternation per lock with matching holder thread, no self-fork/join,
  /// and forked threads not acting before their fork. On failure returns
  /// false and, if \p Error is nonnull, stores a diagnostic.
  bool validate(std::string *Error = nullptr) const;

private:
  std::vector<Event> Events;
  size_t NumThreads = 0;
  size_t NumSyncs = 0;
  size_t NumVars = 0;
};

} // namespace sampletrack

#endif // SAMPLETRACK_TRACE_TRACE_H
