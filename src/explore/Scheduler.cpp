//===- explore/Scheduler.cpp - Interleaving enumeration ----------------------//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/explore/Scheduler.h"

#include <algorithm>
#include <cassert>

using namespace sampletrack;
using namespace sampletrack::explore;

const char *sampletrack::explore::exploreModeName(ExploreMode M) {
  switch (M) {
  case ExploreMode::Random:
    return "random";
  case ExploreMode::Pct:
    return "pct";
  case ExploreMode::Exhaustive:
    return "exhaustive";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Sim: the enabledness state machine. Every step is invertible, which is
// what lets the exhaustive DFS backtrack in O(1) instead of replaying.
//===----------------------------------------------------------------------===//

struct Scheduler::Sim {
  const Workload &W;
  std::vector<size_t> Pc;
  std::vector<uint8_t> Started;
  std::vector<ThreadId> LockOwner;
  size_t Remaining;

  explicit Sim(const Workload &W)
      : W(W), Pc(W.numThreads(), 0), Started(W.numThreads(), 1),
        LockOwner(W.numSyncs(), NoThread), Remaining(W.numOps()) {
    std::vector<uint8_t> Gated = W.forkTargets();
    for (size_t T = 0; T < Started.size(); ++T)
      if (Gated[T])
        Started[T] = 0;
  }

  bool finished(ThreadId T) const { return Pc[T] >= W.program(T).size(); }

  bool enabled(ThreadId T) const {
    if (!Started[T] || finished(T))
      return false;
    const Op &O = W.program(T)[Pc[T]];
    switch (O.Kind) {
    case OpKind::Acquire:
      return LockOwner[O.Target] == NoThread;
    case OpKind::Join:
      return Started[O.Target] && finished(static_cast<ThreadId>(O.Target));
    default:
      return true;
    }
  }

  /// Enabled threads in ascending id order (the deterministic choice base).
  void enabledThreads(std::vector<ThreadId> &Out) const {
    Out.clear();
    for (ThreadId T = 0; T < static_cast<ThreadId>(Pc.size()); ++T)
      if (enabled(T))
        Out.push_back(T);
  }

  /// Executes thread \p T's next op. Caller guarantees enabledness.
  void step(ThreadId T) {
    assert(enabled(T) && "stepping a disabled thread");
    const Op &O = W.program(T)[Pc[T]];
    switch (O.Kind) {
    case OpKind::Acquire:
      LockOwner[O.Target] = T;
      break;
    case OpKind::Release:
      assert(LockOwner[O.Target] == T && "release by non-owner");
      LockOwner[O.Target] = NoThread;
      break;
    case OpKind::Fork:
      Started[O.Target] = 1;
      break;
    default:
      break;
    }
    ++Pc[T];
    --Remaining;
  }

  /// Undoes the most recent step, which must have been thread \p T's.
  void unstep(ThreadId T) {
    assert(Pc[T] > 0 && "nothing to undo");
    --Pc[T];
    ++Remaining;
    const Op &O = W.program(T)[Pc[T]];
    switch (O.Kind) {
    case OpKind::Acquire:
      LockOwner[O.Target] = NoThread;
      break;
    case OpKind::Release:
      LockOwner[O.Target] = T;
      break;
    case OpKind::Fork:
      Started[O.Target] = 0;
      break;
    default:
      break;
    }
  }
};

//===----------------------------------------------------------------------===//
// Scheduler
//===----------------------------------------------------------------------===//

Scheduler::Scheduler(const Workload &W, ExploreConfig C)
    : W(W), Cfg(C) {
  assert((Cfg.Mode == ExploreMode::Exhaustive || Cfg.MaxSchedules > 0) &&
         "Random/Pct exploration needs a nonzero schedule budget");
  if (Cfg.Mode == ExploreMode::Exhaustive) {
    DfsSim = std::make_unique<Sim>(W);
    DfsStack.emplace_back();
    DfsSim->enabledThreads(DfsStack.back().Enabled);
  }
}

Scheduler::~Scheduler() = default;

uint64_t Scheduler::hashChoices(const std::vector<ThreadId> &Choices) {
  Fnv1a H;
  for (ThreadId T : Choices)
    H.u32(T);
  return H.value();
}

Trace Scheduler::materialize(const Workload &W,
                             const std::vector<ThreadId> &Choices) {
  Sim S(W);
  Trace T(W.numThreads(), W.numSyncs(), W.numVars());
  for (ThreadId C : Choices) {
    assert(C < W.numThreads() && "choice out of range");
    const Op &O = W.program(C)[S.Pc[C]];
    S.step(C);
    T.append(Event(C, O.Kind, O.Target));
  }
  assert(S.Remaining == 0 && "incomplete schedule");
  return T;
}

bool Scheduler::emit(std::vector<ThreadId> Choices, Schedule &Out) {
  uint64_t H = hashChoices(Choices);
  // Exhaustive DFS structurally never repeats a choice sequence, so skip
  // the dedup set there: it would only cost memory and expose completeness
  // to a hash collision between distinct schedules.
  if (Cfg.DedupSchedules && Cfg.Mode != ExploreMode::Exhaustive &&
      !Seen.insert(H).second) {
    ++Duplicates;
    return false;
  }
  Out.Index = Emitted++;
  Out.Choices = std::move(Choices);
  Out.Hash = H;
  return true;
}

bool Scheduler::runWalk(uint64_t AttemptSeed, std::vector<ThreadId> &Choices) {
  Sim S(W);
  SplitMix64 Rng(AttemptSeed);
  Choices.clear();
  Choices.reserve(W.numOps());
  std::vector<ThreadId> Enabled;

  if (Cfg.Mode == ExploreMode::Random) {
    while (S.Remaining > 0) {
      S.enabledThreads(Enabled);
      if (Enabled.empty())
        return false; // Deadlock.
      ThreadId T = Enabled[Rng.nextBelow(Enabled.size())];
      S.step(T);
      Choices.push_back(T);
    }
    return true;
  }

  // PCT walk: random initial priorities, highest-priority enabled thread
  // runs; crossing a change point demotes the running thread below all.
  size_t N = W.numThreads();
  std::vector<int64_t> Priority(N);
  for (size_t I = 0; I < N; ++I)
    Priority[I] = static_cast<int64_t>(I) + 1; // 1..N, higher runs first.
  // Fisher-Yates on the priority values.
  for (size_t I = N; I > 1; --I)
    std::swap(Priority[I - 1], Priority[Rng.nextBelow(I)]);
  // PCT wants d - 1 *distinct* change depths: drawing with replacement
  // would silently run some walks at a lower depth than configured.
  std::vector<uint8_t> IsChange(W.numOps(), 0);
  size_t Changes = std::min(Cfg.PriorityChangePoints, W.numOps());
  for (size_t C = 0; C < Changes; ++C) {
    size_t At;
    do
      At = Rng.nextBelow(W.numOps());
    while (IsChange[At]);
    IsChange[At] = 1;
  }
  int64_t LowWater = 0; // Demotions hand out 0, -1, -2, ...

  size_t Step = 0;
  while (S.Remaining > 0) {
    S.enabledThreads(Enabled);
    if (Enabled.empty())
      return false; // Deadlock.
    ThreadId Best = Enabled[0];
    for (ThreadId T : Enabled)
      if (Priority[T] > Priority[Best])
        Best = T;
    S.step(Best);
    Choices.push_back(Best);
    if (IsChange[Step])
      Priority[Best] = LowWater--;
    ++Step;
  }
  return true;
}

bool Scheduler::nextRandomLike(Schedule &Out) {
  while (Emitted < Cfg.MaxSchedules &&
         Attempts < Cfg.MaxSchedules * AttemptsPerSchedule) {
    // Per-attempt seeding: attempt k is reproducible without replaying the
    // k - 1 attempts before it.
    uint64_t AttemptSeed =
        Cfg.Seed ^ (0x9e3779b97f4a7c15ULL * (Attempts + 1));
    ++Attempts;
    std::vector<ThreadId> Choices;
    if (!runWalk(AttemptSeed, Choices)) {
      ++Deadlocked;
      continue;
    }
    if (emit(std::move(Choices), Out))
      return true;
  }
  return false;
}

bool Scheduler::nextExhaustive(Schedule &Out) {
  if (DfsDone)
    return false;
  if (Cfg.MaxSchedules && Emitted >= Cfg.MaxSchedules) {
    DfsDone = true;
    return false;
  }
  // Resume the DFS: the stack holds one frame per depth, Choices the path.
  while (!DfsStack.empty()) {
    DfsFrame &F = DfsStack.back();
    if (F.NextAlt >= F.Enabled.size()) {
      // All alternatives at this depth explored (or none existed).
      if (F.Enabled.empty() && DfsSim->Remaining > 0)
        ++Deadlocked; // Dead branch: unfinished threads, nothing enabled.
      DfsStack.pop_back();
      if (!DfsChoices.empty()) {
        DfsSim->unstep(DfsChoices.back());
        DfsChoices.pop_back();
        // Advance the parent past the alternative we just finished.
        if (!DfsStack.empty())
          ++DfsStack.back().NextAlt;
      }
      continue;
    }
    ThreadId T = F.Enabled[F.NextAlt];
    DfsSim->step(T);
    DfsChoices.push_back(T);
    if (DfsSim->Remaining == 0) {
      // Complete schedule. Emit, then backtrack this leaf.
      bool Ok = emit(DfsChoices, Out);
      DfsSim->unstep(T);
      DfsChoices.pop_back();
      ++F.NextAlt;
      if (Ok) {
        if (Cfg.MaxSchedules && Emitted >= Cfg.MaxSchedules)
          DfsDone = true;
        return true;
      }
      continue;
    }
    DfsStack.emplace_back();
    DfsSim->enabledThreads(DfsStack.back().Enabled);
  }
  DfsDone = true;
  return false;
}

bool Scheduler::next(Schedule &Out) {
  if (W.numOps() == 0)
    return false; // Nothing to schedule.
  return Cfg.Mode == ExploreMode::Exhaustive ? nextExhaustive(Out)
                                             : nextRandomLike(Out);
}
