//===- sampletrack/support/TreeClock.h - Tree clock baseline ---*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tree clock (Mathur, Pavlogiannis, Tunc, Viswanathan, ASPLOS 2022): a
/// vector timestamp organized as a tree whose structure records *where* each
/// component was learned from, enabling joins that only traverse updated
/// subtrees. The paper under reproduction argues (Section 7) that tree
/// clocks, while optimal for the full HB relation, do not exploit the
/// redundancy introduced by the *sampling* timestamp as well as the ordered
/// list does; bench_ablation_treeclock quantifies that claim.
///
/// This implementation supports the operations the race detectors need:
/// O(1) root reads/increments, pruned join with work counting, and flat
/// deep copies by assignment (sharing/copy-on-write is engine::CowClock's,
/// as for OrderedList).
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_SUPPORT_TREECLOCK_H
#define SAMPLETRACK_SUPPORT_TREECLOCK_H

#include "sampletrack/support/Common.h"

#include <cassert>
#include <cstddef>
#include <string>
#include <vector>

namespace sampletrack {

/// A tree-structured vector timestamp rooted at its owner thread.
class TreeClock {
public:
  TreeClock() = default;

  /// Creates the bottom timestamp over \p NumThreads threads, rooted at
  /// \p Root. Only the root is initially part of the tree.
  TreeClock(size_t NumThreads, ThreadId Root) { reset(NumThreads, Root); }

  /// Reinitializes to the bottom timestamp over \p NumThreads threads,
  /// rooted at \p Root (recycled pool buffers keep their node storage).
  void reset(size_t NumThreads, ThreadId NewRoot) {
    assert(NewRoot < NumThreads && "root out of range");
    Nodes.assign(NumThreads, Node());
    Root = NewRoot;
    Nodes[Root].Attached = true;
  }

  /// Number of components.
  size_t size() const { return Nodes.size(); }

  /// Owner thread (the tree root).
  ThreadId root() const { return Root; }

  /// Component of thread \p T. O(1).
  ClockValue get(ThreadId T) const {
    assert(T < Nodes.size() && "thread out of range");
    return Nodes[T].Clk;
  }

  /// Sets the root component to \p V (monotone: \p V must not decrease it).
  /// O(1); used when a sampling detector publishes its local epoch.
  void setRootTime(ClockValue V) {
    assert(Root != NoThread && "empty clock");
    assert(V >= Nodes[Root].Clk && "root time must be monotone");
    Nodes[Root].Clk = V;
  }

  /// Increments the root component. O(1).
  void incrementRoot(ClockValue By = 1) {
    assert(Root != NoThread && "empty clock");
    Nodes[Root].Clk += By;
  }

  /// Joins \p Other into this clock using the pruned subtree traversal.
  /// Returns the number of tree nodes *examined* (updated nodes plus
  /// boundary children inspected before pruning); this is the work metric
  /// the ablation bench reports. The fast path (root of \p Other already
  /// known) examines zero nodes.
  ///
  /// Precondition: \p Other is rooted at a different thread, or is this very
  /// clock (in which case the join is a no-op).
  unsigned joinFrom(const TreeClock &Other);

  /// Structural invariant check used by tests: parent/child/sibling links
  /// are consistent, attachment times do not exceed parent times, and child
  /// lists are in nonincreasing attachment-time order.
  bool checkStructure() const;

  /// Renders as "(root t0:5 [t2:3@4 ...])" for diagnostics.
  std::string str() const;

private:
  struct Node {
    /// Component value (the thread's local time as known here).
    ClockValue Clk = 0;
    /// Attachment time: the parent's component value when this subtree was
    /// attached. Meaningless for the root.
    ClockValue Aclk = 0;
    ThreadId Parent = NoThread;
    ThreadId HeadChild = NoThread;
    ThreadId PrevSib = NoThread;
    ThreadId NextSib = NoThread;
    /// Whether the node is part of the tree (roots are always attached).
    bool Attached = false;
  };

  void detach(ThreadId T);
  void attachAsHeadChild(ThreadId Parent, ThreadId Child);

  std::vector<Node> Nodes;
  ThreadId Root = NoThread;
};

} // namespace sampletrack

#endif // SAMPLETRACK_SUPPORT_TREECLOCK_H
