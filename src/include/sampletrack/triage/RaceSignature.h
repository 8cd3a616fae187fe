//===- sampletrack/triage/RaceSignature.h - Stable race identity -*- C++ -*-=//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The identity layer of the race warehouse: \ref RaceReport (one declared
/// race, moved here from Detector.h so the triage layer sits below the
/// detectors) and \ref RaceSignature, a stable 64-bit fingerprint that maps
/// every re-declaration of the same logical race to one key.
///
/// Stability contract (version \ref RaceSignature::Version):
///
///  - The signature is computed from the racy location, the operation kind
///    of the access the race was declared at, and the *role* of the
///    declaring thread (main thread vs worker) — never from the stream
///    position, the raw thread id, or any engine state.
///  - It is therefore invariant under SessionConfig::NumWorkers (that axis
///    is bit-identical by construction), under engine choice (every engine
///    declares races with the event's own thread/var/kind), and under
///    worker-thread renumbering in symmetric workloads — the duplicate flood a fleet produces differs
///    only in thread ids and positions, which the signature ignores.
///  - Golden values are pinned by tests/TriageTest.cpp; changing the mixing
///    function is a format break and must bump Version (persisted stores
///    refuse to merge across versions).
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_TRIAGE_RACESIGNATURE_H
#define SAMPLETRACK_TRIAGE_RACESIGNATURE_H

#include "sampletrack/trace/Event.h"

#include <optional>
#include <string>

namespace sampletrack {

/// One declared race: the event (by stream position) at which the race was
/// detected, plus its location and thread. Detectors keep the *first*
/// report per signature as the exemplar; positions of re-declarations are
/// not retained (the warehouse counts them instead).
struct RaceReport {
  uint64_t EventIndex;
  ThreadId Tid;
  VarId Var;
  OpKind Kind;

  bool operator==(const RaceReport &O) const {
    return EventIndex == O.EventIndex && Tid == O.Tid && Var == O.Var &&
           Kind == O.Kind;
  }
};

namespace triage {

/// The thread-role normalization of the signature: production fleets spawn
/// symmetric worker pools, so two workers tripping the same racy pair must
/// dedup to one signature while a main-vs-worker race stays distinct.
enum class ThreadRole : uint8_t { Main = 0, Worker = 1 };

inline ThreadRole threadRole(ThreadId T) {
  return T == 0 ? ThreadRole::Main : ThreadRole::Worker;
}

/// A stable 64-bit race fingerprint (see the file comment for the
/// stability contract).
struct RaceSignature {
  /// Format version; persisted alongside every store.
  static constexpr uint32_t Version = 1;

  uint64_t Value = 0;

  /// Fingerprint of a declared race: mixes (Var, Kind, threadRole(Tid)).
  static RaceSignature of(VarId Var, OpKind Kind, ThreadId Tid);
  static RaceSignature of(const RaceReport &R) {
    return of(R.Var, R.Kind, R.Tid);
  }

  /// 16-digit lowercase hex, the form used by suppression files and SARIF
  /// partialFingerprints.
  std::string hex() const;

  /// Parses the \ref hex form (with or without a "0x" prefix). Returns
  /// nullopt on anything that is not exactly a 1-16 digit hex number.
  static std::optional<RaceSignature> parseHex(const std::string &S);

  bool operator==(const RaceSignature &O) const { return Value == O.Value; }
};

} // namespace triage
} // namespace sampletrack

#endif // SAMPLETRACK_TRIAGE_RACESIGNATURE_H
