//===- explore/Workload.cpp - Schedulable programs ---------------------------//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/explore/Workload.h"

#include <algorithm>
#include <unordered_set>

using namespace sampletrack;
using namespace sampletrack::explore;

ThreadId explore::Workload::addThread() {
  Programs.emplace_back();
  return static_cast<ThreadId>(Programs.size() - 1);
}

size_t explore::Workload::numOps() const {
  size_t N = 0;
  for (const std::vector<Op> &P : Programs)
    N += P.size();
  return N;
}

void explore::Workload::append(ThreadId T, Op O) {
  if (static_cast<size_t>(T) >= Programs.size())
    Programs.resize(static_cast<size_t>(T) + 1);
  switch (O.Kind) {
  case OpKind::Read:
  case OpKind::Write:
    NumVars = std::max<size_t>(NumVars, O.Target + 1);
    break;
  case OpKind::Fork:
  case OpKind::Join:
    if (O.Target >= Programs.size())
      Programs.resize(O.Target + 1);
    break;
  default:
    NumSyncs = std::max<size_t>(NumSyncs, O.Target + 1);
    break;
  }
  Programs[T].push_back(O);
}

Workload explore::Workload::fromTrace(const Trace &T) {
  Workload W;
  W.Programs.resize(T.numThreads());
  W.NumSyncs = T.numSyncs();
  W.NumVars = T.numVars();
  for (const Event &E : T)
    W.Programs[E.Tid].push_back(Op{E.Kind, E.Target});
  return W;
}

std::vector<uint8_t> explore::Workload::forkTargets() const {
  std::vector<uint8_t> Out(Programs.size(), 0);
  for (const std::vector<Op> &P : Programs)
    for (const Op &O : P)
      if (O.Kind == OpKind::Fork)
        Out[O.Target] = 1;
  return Out;
}

bool explore::Workload::hasBlockingOps() const {
  for (const std::vector<Op> &P : Programs)
    for (const Op &O : P)
      if (O.Kind == OpKind::Acquire || O.Kind == OpKind::Join ||
          O.Kind == OpKind::Fork)
        return true;
  return false;
}

bool explore::Workload::hasReleaseJoins() const {
  for (const std::vector<Op> &P : Programs)
    for (const Op &O : P)
      if (O.Kind == OpKind::ReleaseJoin)
        return true;
  return false;
}

uint64_t explore::Workload::unconstrainedInterleavingCount() const {
  // Multinomial via incremental products: for each program of length k,
  // multiply C(running_total + i, i) piecewise, detecting overflow.
  uint64_t Result = 1;
  uint64_t Placed = 0;
  for (const std::vector<Op> &P : Programs) {
    for (uint64_t I = 1; I <= P.size(); ++I) {
      ++Placed;
      // Result *= Placed; Result /= I — exact at every step because the
      // running product of C(n, k) prefixes is always integral, but the
      // intermediate multiply can overflow, so check first.
      if (Result > UINT64_MAX / Placed)
        return UINT64_MAX;
      Result = Result * Placed / I;
    }
  }
  return Result;
}

bool explore::Workload::validate(std::string *Error) const {
  auto Fail = [&](std::string Msg) {
    if (Error)
      *Error = std::move(Msg);
    return false;
  };
  std::vector<uint8_t> Forked(Programs.size(), 0);
  for (size_t T = 0; T < Programs.size(); ++T) {
    std::unordered_set<SyncId> Held;
    for (size_t I = 0; I < Programs[T].size(); ++I) {
      const Op &O = Programs[T][I];
      std::string Where = "thread " + std::to_string(T) + ", op " +
                          std::to_string(I) + ": ";
      switch (O.Kind) {
      case OpKind::Read:
      case OpKind::Write:
        if (O.Target >= NumVars)
          return Fail(Where + "variable id out of range");
        break;
      case OpKind::Acquire:
        if (O.Target >= NumSyncs)
          return Fail(Where + "sync id out of range");
        if (!Held.insert(static_cast<SyncId>(O.Target)).second)
          return Fail(Where + "acquire of a lock already held in program "
                              "order (would self-deadlock)");
        break;
      case OpKind::Release:
        if (O.Target >= NumSyncs)
          return Fail(Where + "sync id out of range");
        if (Held.erase(static_cast<SyncId>(O.Target)) == 0)
          return Fail(Where + "release of a lock not held in program order");
        break;
      case OpKind::Fork:
      case OpKind::Join:
        if (O.Target >= Programs.size())
          return Fail(Where + "fork/join target out of range");
        if (O.Target == T)
          return Fail(Where + "self fork/join");
        if (O.Kind == OpKind::Fork) {
          if (Forked[O.Target])
            return Fail(Where + "thread forked twice");
          Forked[O.Target] = 1;
        }
        break;
      case OpKind::ReleaseStore:
      case OpKind::ReleaseJoin:
      case OpKind::AcquireLoad:
        if (O.Target >= NumSyncs)
          return Fail(Where + "sync id out of range");
        break;
      }
    }
  }
  return true;
}
