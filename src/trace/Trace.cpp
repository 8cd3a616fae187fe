//===- trace/Trace.cpp - Execution trace implementation -------------------==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/trace/Trace.h"

#include <sstream>

using namespace sampletrack;

size_t Trace::countMarked() const {
  size_t N = 0;
  for (const Event &E : Events)
    if (E.Marked)
      ++N;
  return N;
}

size_t Trace::countKind(OpKind K) const {
  size_t N = 0;
  for (const Event &E : Events)
    if (E.Kind == K)
      ++N;
  return N;
}

bool Trace::validate(std::string *Error) const {
  auto Fail = [&](size_t Idx, const std::string &Msg) {
    if (Error) {
      std::ostringstream OS;
      OS << "event " << Idx << " (" << Events[Idx].str() << "): " << Msg;
      *Error = OS.str();
    }
    return false;
  };

  // Holder[l] is the thread holding mutex l, or NoThread.
  std::vector<ThreadId> Holder(NumSyncs, NoThread);
  // Threads that have been forked (may not act before their fork event),
  // and threads that have been joined (may not act after).
  std::vector<bool> Started(NumThreads, false);
  std::vector<bool> Forked(NumThreads, false);
  std::vector<bool> Joined(NumThreads, false);

  for (size_t I = 0; I < Events.size(); ++I) {
    const Event &E = Events[I];
    if (E.Tid >= NumThreads)
      return Fail(I, "thread id out of range");
    if (Joined[E.Tid])
      return Fail(I, "event in a thread that was already joined");
    Started[E.Tid] = true;

    switch (E.Kind) {
    case OpKind::Read:
    case OpKind::Write:
      if (E.Target >= NumVars)
        return Fail(I, "variable id out of range");
      break;
    case OpKind::Acquire:
      if (E.sync() >= NumSyncs)
        return Fail(I, "sync id out of range");
      if (Holder[E.sync()] != NoThread)
        return Fail(I, "acquire of a held lock");
      Holder[E.sync()] = E.Tid;
      break;
    case OpKind::Release:
      if (E.sync() >= NumSyncs)
        return Fail(I, "sync id out of range");
      if (Holder[E.sync()] != E.Tid)
        return Fail(I, "release by a non-holder");
      Holder[E.sync()] = NoThread;
      break;
    case OpKind::Fork: {
      ThreadId Child = E.childThread();
      if (Child >= NumThreads)
        return Fail(I, "forked thread id out of range");
      if (Child == E.Tid)
        return Fail(I, "thread forks itself");
      if (Forked[Child])
        return Fail(I, "thread forked twice");
      if (Started[Child])
        return Fail(I, "thread forked after it already acted");
      Forked[Child] = true;
      break;
    }
    case OpKind::Join: {
      ThreadId Child = E.childThread();
      if (Child >= NumThreads)
        return Fail(I, "joined thread id out of range");
      if (Child == E.Tid)
        return Fail(I, "thread joins itself");
      Joined[Child] = true;
      break;
    }
    case OpKind::ReleaseStore:
    case OpKind::ReleaseJoin:
    case OpKind::AcquireLoad:
      if (E.sync() >= NumSyncs)
        return Fail(I, "sync id out of range");
      break;
    }
  }
  return true;
}
