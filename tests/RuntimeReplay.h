//===- tests/RuntimeReplay.h - Replay traces through hooks -----*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives a recorded or generated Trace through rt::Runtime's hooks from
/// the calling thread, in trace order. Tests that pin the runtime's work
/// counters replay single-threaded so the counters are deterministic.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_TESTS_RUNTIMEREPLAY_H
#define SAMPLETRACK_TESTS_RUNTIMEREPLAY_H

#include "sampletrack/runtime/Runtime.h"
#include "sampletrack/trace/Trace.h"

namespace sampletrack {
namespace test {

/// Trace variables become word-aligned, nonzero addresses (the runtime
/// treats address 0 as "no owner").
inline constexpr uint64_t ReplayAddressBase = 0x100000;

/// Registers the trace's threads (beyond the pre-registered thread 0) and
/// sync objects with \p Rt, then calls one hook per event.
inline void replayThroughHooks(rt::Runtime &Rt, const Trace &T) {
  for (size_t I = 1; I < T.numThreads(); ++I)
    Rt.registerThread();
  for (size_t I = 0; I < T.numSyncs(); ++I)
    Rt.registerSync();
  for (const Event &E : T) {
    switch (E.Kind) {
    case OpKind::Read:
      Rt.onRead(E.Tid, ReplayAddressBase + E.Target * 8);
      break;
    case OpKind::Write:
      Rt.onWrite(E.Tid, ReplayAddressBase + E.Target * 8);
      break;
    case OpKind::Acquire:
      Rt.onAcquire(E.Tid, E.sync());
      break;
    case OpKind::Release:
      Rt.onRelease(E.Tid, E.sync());
      break;
    case OpKind::Fork:
      Rt.onFork(E.Tid, E.childThread());
      break;
    case OpKind::Join:
      Rt.onJoin(E.Tid, E.childThread());
      break;
    case OpKind::ReleaseStore:
      Rt.onReleaseStore(E.Tid, E.sync());
      break;
    case OpKind::ReleaseJoin:
      Rt.onReleaseJoin(E.Tid, E.sync());
      break;
    case OpKind::AcquireLoad:
      Rt.onAcquireLoad(E.Tid, E.sync());
      break;
    }
  }
}

} // namespace test
} // namespace sampletrack

#endif // SAMPLETRACK_TESTS_RUNTIMEREPLAY_H
