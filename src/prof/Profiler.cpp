//===- prof/Profiler.cpp - Hierarchical self-profiler ----------------------=//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/prof/Profiler.h"

#include <cassert>

namespace sampletrack {
namespace prof {

namespace {

/// Locks \p Mu only when the tree was created in locked mode.
class MaybeLock {
public:
  MaybeLock(std::mutex &Mu, bool Locked) : Mu(Mu), Engaged(Locked) {
    if (Engaged)
      Mu.lock();
  }
  ~MaybeLock() {
    if (Engaged)
      Mu.unlock();
  }

private:
  std::mutex &Mu;
  bool Engaged;
};

} // namespace

Tree::Tree(std::string Name, bool Locked)
    : TreeName(std::move(Name)), Locked(Locked) {
  Nodes.emplace_back(); // The unnamed root.
  Stack.push_back(0);
}

NodeId Tree::internLocked(NodeId Parent, std::string_view Name) {
  for (NodeId C : Nodes[Parent].Children)
    if (Nodes[C].Name == Name)
      return C;
  NodeId Id = static_cast<NodeId>(Nodes.size());
  Nodes[Parent].Children.push_back(Id);
  NodeData N;
  N.Name = std::string(Name);
  N.Parent = Parent;
  Nodes.push_back(std::move(N));
  return Id;
}

NodeId Tree::intern(NodeId Parent, std::string_view Name) {
  MaybeLock L(Mu, Locked);
  return internLocked(Parent, Name);
}

NodeId Tree::internPath(std::initializer_list<std::string_view> Path) {
  MaybeLock L(Mu, Locked);
  NodeId Cur = 0;
  for (std::string_view Name : Path)
    Cur = internLocked(Cur, Name);
  return Cur;
}

NodeId Tree::push(std::string_view Name) {
  MaybeLock L(Mu, Locked);
  NodeId Id = internLocked(Stack.back(), Name);
  Stack.push_back(Id);
  return Id;
}

void Tree::pop(NodeId Id, uint64_t StartNanos, uint64_t EndNanos) {
  MaybeLock L(Mu, Locked);
  assert(Stack.size() > 1 && Stack.back() == Id && "unbalanced Scope nesting");
  Stack.pop_back();
  NodeData &N = Nodes[Id];
  N.Count += 1;
  N.Nanos += EndNanos - StartNanos;
  if (Timeline.size() < MaxTimelineEvents)
    Timeline.push_back({Id, StartNanos, EndNanos});
  else
    ++TimelineDropped;
}

void Tree::addSample(NodeId Id, uint64_t Nanos) {
  MaybeLock L(Mu, Locked);
  NodeData &N = Nodes[Id];
  N.Count += 1;
  N.Nanos += Nanos;
}

void Tree::addSpan(NodeId Id, uint64_t StartNanos, uint64_t EndNanos) {
  MaybeLock L(Mu, Locked);
  NodeData &N = Nodes[Id];
  N.Count += 1;
  N.Nanos += EndNanos - StartNanos;
  if (Timeline.size() < MaxTimelineEvents)
    Timeline.push_back({Id, StartNanos, EndNanos});
  else
    ++TimelineDropped;
}

void Tree::addCounter(NodeId Id, std::string_view Name, uint64_t Delta) {
  MaybeLock L(Mu, Locked);
  for (auto &C : Nodes[Id].Counters)
    if (C.first == Name) {
      C.second += Delta;
      return;
    }
  Nodes[Id].Counters.emplace_back(std::string(Name), Delta);
}

void Tree::counterEvent(NodeId Id, std::string_view Name, uint64_t Value) {
  MaybeLock L(Mu, Locked);
  bool Found = false;
  for (auto &C : Nodes[Id].Counters)
    if (C.first == Name) {
      C.second += Value;
      Found = true;
      break;
    }
  if (!Found)
    Nodes[Id].Counters.emplace_back(std::string(Name), Value);
  if (CounterTrack.size() < MaxCounterSamples)
    CounterTrack.push_back({std::string(Name), nowNanos(), Value});
}

Tree::TimelineCopy Tree::copyTimeline() const {
  MaybeLock L(Mu, Locked);
  TimelineCopy Out;
  Out.NodeNames.reserve(Nodes.size());
  for (const NodeData &N : Nodes)
    Out.NodeNames.push_back(N.Name);
  Out.Timeline = Timeline;
  Out.Counters = CounterTrack;
  return Out;
}

void Tree::mergeInto(ReportMergeNode &Root) const {
  MaybeLock L(Mu, Locked);
  // Recursive walk without recursion: (tree node, merge node) pairs.
  std::vector<std::pair<NodeId, ReportMergeNode *>> Work;
  Work.emplace_back(0, &Root);
  while (!Work.empty()) {
    auto [Id, M] = Work.back();
    Work.pop_back();
    const NodeData &N = Nodes[Id];
    M->Count += N.Count;
    M->Nanos += N.Nanos;
    for (const auto &C : N.Counters)
      M->Counters[C.first] += C.second;
    for (NodeId Child : N.Children)
      Work.emplace_back(Child, &M->Children[Nodes[Child].Name]);
  }
}

Tree *Profiler::makeTree(std::string Name) {
  std::lock_guard<std::mutex> L(Mu);
  Trees.push_back(
      std::unique_ptr<Tree>(new Tree(std::move(Name), LockTrees)));
  return Trees.back().get();
}

std::vector<const Tree *> Profiler::trees() const {
  std::lock_guard<std::mutex> L(Mu);
  std::vector<const Tree *> Out;
  Out.reserve(Trees.size());
  for (const auto &T : Trees)
    Out.push_back(T.get());
  return Out;
}

namespace {

ReportNode toReportNode(std::string Name, const ReportMergeNode &M) {
  ReportNode N;
  N.Name = std::move(Name);
  N.Count = M.Count;
  N.InclusiveNanos = M.Nanos;
  N.Counters.assign(M.Counters.begin(), M.Counters.end());
  uint64_t ChildNanos = 0;
  for (const auto &[CName, Child] : M.Children) {
    N.Children.push_back(toReportNode(CName, Child));
    ChildNanos += Child.Nanos;
  }
  N.ExclusiveNanos = M.Nanos > ChildNanos ? M.Nanos - ChildNanos : 0;
  return N;
}

} // namespace

Report Profiler::report() const {
  ReportMergeNode Root;
  {
    std::lock_guard<std::mutex> L(Mu);
    for (const auto &T : Trees)
      T->mergeInto(Root);
  }
  Report R;
  R.Root = toReportNode("", Root);
  return R;
}

} // namespace prof
} // namespace sampletrack
