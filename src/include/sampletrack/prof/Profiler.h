//===- sampletrack/prof/Profiler.h - Hierarchical self-profiler -*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lightweight hierarchical self-profiler: nestable RAII scopes build a
/// per-thread tree of named spans (call counts, inclusive nanoseconds, user
/// counters), and \ref Profiler::report merges the per-thread trees into one
/// deterministic \ref prof::Report keyed by span *path* — the merged tree's
/// shape and counts are independent of which thread recorded which span, so
/// an AnalysisSession profile is bit-identical (modulo nanos) across worker
/// counts.
///
/// Cost model:
///  - disabled (the default): call sites hold a null \ref Tree pointer, a
///    \ref Scope constructed from it is a single branch — no clock read, no
///    allocation. Compiling with -DSAMPLETRACK_PROF_DISABLED empties the
///    Scope bodies entirely for a hard zero.
///  - enabled: one steady-clock read per scope boundary plus a linear child
///    lookup on first entry (node ids are interned; hot paths pre-intern and
///    use \ref Tree::addSample to fold an already-measured duration in).
///
/// Trees are single-writer: one thread records into one tree. Reading a
/// tree while its writer is live is only safe for trees created with
/// locking enabled (\ref Profiler::Profiler(bool)) — the triaged server
/// uses that mode so /v1/stats can snapshot mid-request; batch sessions
/// read only after workers join.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_PROF_PROFILER_H
#define SAMPLETRACK_PROF_PROFILER_H

#include "sampletrack/prof/Report.h"

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace sampletrack {
namespace prof {

/// Monotonic clock used for every span boundary.
inline uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Index of a span node within one \ref Tree. 0 is the tree's (unnamed)
/// root; ids are stable for the tree's lifetime.
using NodeId = uint32_t;

/// One timeline instance of a span — the chrome-trace side of the data.
/// Aggregates (counts/nanos) live on the nodes; the timeline is a bounded
/// ring of individual occurrences for trace export only and takes no part
/// in \ref Report equality.
struct TimelineEvent {
  NodeId Node = 0;
  uint64_t StartNanos = 0;
  uint64_t EndNanos = 0;
};

/// One timestamped counter observation (a chrome-trace "C" track point).
struct CounterSample {
  std::string Name;
  uint64_t Nanos = 0;
  uint64_t Value = 0;
};

/// One thread's span tree. Create via \ref Profiler::makeTree; record via
/// \ref Scope (RAII) or the manual addSample/addSpan calls (for folding a
/// duration that was already measured for another purpose — one clock read,
/// two consumers).
class Tree {
public:
  /// Caps keep a long run's timeline bounded; aggregates keep counting
  /// after the timeline fills.
  static constexpr size_t MaxTimelineEvents = 1 << 15;
  static constexpr size_t MaxCounterSamples = 1 << 12;

  NodeId root() const { return 0; }

  /// Interns (finds or creates) the child of \p Parent named \p Name.
  NodeId intern(NodeId Parent, std::string_view Name);
  /// Interns a chain of children starting at the root; returns the last
  /// node. Creating a path records nothing — counts stay 0 until samples
  /// arrive — so threads can intern under a shared path (e.g.
  /// session/analyze/FT) without perturbing the merged tree's counts.
  NodeId internPath(std::initializer_list<std::string_view> Path);

  /// Scope interface: descends into the child named \p Name (interning it)
  /// and returns its id; \ref pop ascends and records the span.
  NodeId push(std::string_view Name);
  void pop(NodeId Id, uint64_t StartNanos, uint64_t EndNanos);

  /// Folds an externally measured duration into \p Id: aggregate only, no
  /// timeline event, no clock read. Counts one call.
  void addSample(NodeId Id, uint64_t Nanos);
  /// Like addSample but with endpoints, so the occurrence also lands on the
  /// export timeline (subject to the cap).
  void addSpan(NodeId Id, uint64_t StartNanos, uint64_t EndNanos);
  /// Accumulates \p Delta into the user counter \p Name on node \p Id.
  void addCounter(NodeId Id, std::string_view Name, uint64_t Delta);
  /// addCounter plus a timestamped sample for the chrome-trace counter
  /// track.
  void counterEvent(NodeId Id, std::string_view Name, uint64_t Value);

  const std::string &name() const { return TreeName; }

  /// What the chrome-trace export reads: the timeline, the counter track
  /// and every node's name (indexed by NodeId).
  struct TimelineCopy {
    std::vector<std::string> NodeNames;
    std::vector<TimelineEvent> Timeline;
    std::vector<CounterSample> Counters;
  };
  /// Copies the export data under the tree's lock, so a locked tree can be
  /// exported while its thread keeps recording.
  TimelineCopy copyTimeline() const;

private:
  friend class Profiler;
  Tree(std::string Name, bool Locked);

  struct NodeData {
    std::string Name;
    NodeId Parent = 0;
    std::vector<NodeId> Children;
    uint64_t Count = 0;
    uint64_t Nanos = 0;
    /// Unsorted accumulation order; report() sorts by name.
    std::vector<std::pair<std::string, uint64_t>> Counters;
  };

  NodeId internLocked(NodeId Parent, std::string_view Name);
  void mergeInto(ReportMergeNode &Root) const;

  std::string TreeName;
  bool Locked;
  mutable std::mutex Mu;
  std::vector<NodeData> Nodes;
  std::vector<NodeId> Stack;
  std::vector<TimelineEvent> Timeline;
  std::vector<CounterSample> CounterTrack;
  size_t TimelineDropped = 0;
};

/// RAII span: enters on construction, records on destruction. A null tree
/// (profiling disabled) costs one branch.
class Scope {
public:
  Scope() = default;
  Scope(Tree *T, std::string_view Name) {
#if !defined(SAMPLETRACK_PROF_DISABLED)
    if (!T)
      return;
    this->T = T;
    Id = T->push(Name);
    Start = nowNanos();
#endif
  }
  ~Scope() { reset(); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

  /// Ends the span early (idempotent).
  void reset() {
#if !defined(SAMPLETRACK_PROF_DISABLED)
    if (!T)
      return;
    T->pop(Id, Start, nowNanos());
    T = nullptr;
#endif
  }

private:
#if !defined(SAMPLETRACK_PROF_DISABLED)
  Tree *T = nullptr;
  NodeId Id = 0;
  uint64_t Start = 0;
#endif
};

/// Owns the per-thread trees and merges them. makeTree is thread-safe; a
/// tree is then used by exactly one recording thread.
class Profiler {
public:
  /// \p LockTrees makes every tree internally locked so report() /
  /// toChromeTrace can run concurrently with recording (live servers).
  explicit Profiler(bool LockTrees = false)
      : LockTrees(LockTrees), Epoch(nowNanos()) {}

  Tree *makeTree(std::string Name);

  /// Merges every tree into one deterministic report: nodes keyed by name
  /// path, children sorted by name, counts and nanos summed across trees,
  /// exclusive = inclusive - sum(children) (saturating at 0).
  Report report() const;

  std::vector<const Tree *> trees() const;
  /// Creation time; chrome-trace timestamps are exported relative to this.
  uint64_t epochNanos() const { return Epoch; }

private:
  bool LockTrees;
  uint64_t Epoch;
  mutable std::mutex Mu;
  std::vector<std::unique_ptr<Tree>> Trees;
};

} // namespace prof
} // namespace sampletrack

#endif // SAMPLETRACK_PROF_PROFILER_H
