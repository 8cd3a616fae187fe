//===- e2ebench/src/Passes.cpp - Interleaved analysis passes --------------===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "Passes.h"

#include <algorithm>

using namespace e2e;

namespace {

/// Trace variables become word-aligned addresses in a nonzero range (the
/// runtime treats address 0 as "no owner").
constexpr uint64_t AddressBase = 0x100000;

struct HookCost {
  uint64_t AccessNs = 0, Accesses = 0, SyncNs = 0, Syncs = 0;
};

void callHook(rt::Runtime &Rt, const Event &E) {
  switch (E.Kind) {
  case OpKind::Read:
    Rt.onRead(E.Tid, AddressBase + E.Target * 8);
    break;
  case OpKind::Write:
    Rt.onWrite(E.Tid, AddressBase + E.Target * 8);
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

/// Replays \p T through the hooks; with \p Cost, times every call.
void replay(rt::Runtime &Rt, const Trace &T, HookCost *Cost) {
  if (!Cost) {
    for (const Event &E : T)
      callHook(Rt, E);
    return;
  }
  for (const Event &E : T) {
    uint64_t T0 = prof::nowNanos();
    callHook(Rt, E);
    uint64_t D = prof::nowNanos() - T0;
    if (isAccess(E.Kind)) {
      Cost->AccessNs += D;
      ++Cost->Accesses;
    } else {
      Cost->SyncNs += D;
      ++Cost->Syncs;
    }
  }
}

std::vector<uint64_t> signatures(const triage::TriageSummary &S) {
  std::vector<uint64_t> Sigs;
  Sigs.reserve(S.Entries.size());
  for (const triage::TriageEntry &E : S.Entries)
    Sigs.push_back(E.Signature);
  std::sort(Sigs.begin(), Sigs.end());
  return Sigs;
}

double measureTimerOverhead() {
  constexpr int Pairs = 1 << 16;
  std::vector<double> Batches;
  for (int B = 0; B < 5; ++B) {
    uint64_t Sum = 0;
    for (int I = 0; I < Pairs; ++I) {
      uint64_t T0 = prof::nowNanos();
      Sum += prof::nowNanos() - T0;
    }
    Batches.push_back(static_cast<double>(Sum) / Pairs);
  }
  return median(Batches);
}

PassLog makeLog(std::string Name, PassKind K) {
  PassLog L;
  L.Name = std::move(Name);
  L.Kind = K;
  return L;
}

} // namespace

PassRunner::PassRunner(const Trace &T, const api::SessionConfig &Base,
                       bool WithOnlineFT, Checks &C)
    : T(T), Base(Base), C(C), TimerNs(measureTimerOverhead()) {
  for (EngineKind E : {EngineKind::FastTrack, EngineKind::SamplingNaive,
                       EngineKind::SamplingU, EngineKind::SamplingO}) {
    PassLog L = makeLog(std::string("offline.") + engineKindName(E),
                        PassKind::Offline);
    L.Engine = E;
    Logs.push_back(std::move(L));
  }
  std::vector<rt::Mode> Modes = {rt::Mode::ET, rt::Mode::ST, rt::Mode::SU,
                                 rt::Mode::SO};
  if (WithOnlineFT)
    Modes.push_back(rt::Mode::FT);
  for (rt::Mode M : Modes) {
    PassLog L = makeLog(std::string("online.") + rt::modeName(M),
                        PassKind::Online);
    L.Mode = M;
    Logs.push_back(std::move(L));
  }
  Logs.push_back(makeLog("fanout", PassKind::Fanout));
}

const PassLog &PassRunner::log(const std::string &Name) const {
  for (const PassLog &L : Logs)
    if (L.Name == Name)
      return L;
  static const PassLog Missing;
  return Missing;
}

void PassRunner::run(size_t I, bool Traced, prof::Tree *PT) {
  PassLog &L = Logs[I];
  prof::Scope Span(Traced ? PT : nullptr, L.Name);
  switch (L.Kind) {
  case PassKind::Offline:
    runOffline(L, Traced);
    break;
  case PassKind::Online:
    runOnline(L, Traced);
    break;
  case PassKind::Fanout:
    runFanout(L, Traced);
    break;
  }
}

void PassRunner::runOffline(PassLog &L, bool Traced) {
  api::SessionConfig Cfg = Base;
  Cfg.Engines = {L.Engine};
  api::AnalysisSession S(Cfg);
  uint64_t T0 = prof::nowNanos();
  api::SessionResult R = S.run(T);
  double Ns = static_cast<double>(prof::nowNanos() - T0);
  double Events = static_cast<double>(std::max<uint64_t>(1, T.size()));
  C.expect(R.EventsProcessed == T.size() && R.Engines.size() == 1,
           L.Name + ": session analyzed the whole trace");
  if (R.Engines.size() != 1)
    return;
  const api::EngineRun &E = R.Engines.front();
  if (Traced) {
    L.TracedNsPerEvent.push_back(Ns / Events);
  } else {
    L.NsPerEvent.push_back(Ns / Events);
    L.IngestNs.push_back(static_cast<double>(R.IngestNanos) / Events);
    L.LaneNs.push_back(static_cast<double>(E.WallNanos) / Events);
  }
  std::vector<uint64_t> Sigs = signatures(R.Triage);
  if (!L.HaveFirst) {
    L.HaveFirst = true;
    L.FirstStats = E.Stats;
    L.FirstRaces = E.NumRaces;
    L.FirstSignatures = std::move(Sigs);
    return;
  }
  C.expect(E.Stats == L.FirstStats && E.NumRaces == L.FirstRaces &&
               Sigs == L.FirstSignatures,
           L.Name + ": pass repeated the first pass's counters and races");
}

void PassRunner::runOnline(PassLog &L, bool Traced) {
  rt::Runtime Rt(Base.runtimeConfig(L.Mode));
  for (size_t I = 1; I < T.numThreads(); ++I)
    Rt.registerThread();
  for (size_t I = 0; I < T.numSyncs(); ++I)
    Rt.registerSync();

  HookCost Cost;
  uint64_t T0 = prof::nowNanos();
  replay(Rt, T, Traced ? &Cost : nullptr);
  double Ns = static_cast<double>(prof::nowNanos() - T0);
  double Events = static_cast<double>(std::max<uint64_t>(1, T.size()));
  if (Traced) {
    L.TracedNsPerEvent.push_back(Ns / Events);
    auto PerOp = [&](uint64_t Sum, uint64_t N) {
      return N ? static_cast<double>(Sum) / static_cast<double>(N) - TimerNs
               : 0.0;
    };
    L.AccessNsPerOp.push_back(PerOp(Cost.AccessNs, Cost.Accesses));
    L.SyncNsPerOp.push_back(PerOp(Cost.SyncNs, Cost.Syncs));
  } else {
    L.NsPerEvent.push_back(Ns / Events);
  }

  Metrics Stats = Rt.aggregatedMetrics();
  uint64_t Races = Rt.raceCount();
  if (!L.HaveFirst) {
    L.HaveFirst = true;
    L.FirstStats = Stats;
    L.FirstRaces = Races;
    return;
  }
  C.expect(Stats == L.FirstStats && Races == L.FirstRaces,
           L.Name + ": replay repeated the first replay's counters and races");
}

void PassRunner::runFanout(PassLog &L, bool Traced) {
  api::SessionConfig Cfg = Base;
  Cfg.Engines = {EngineKind::FastTrack, EngineKind::SamplingNaive,
                 EngineKind::SamplingU, EngineKind::SamplingO};
  Cfg.NumWorkers = 2;
  api::AnalysisSession S(Cfg);
  uint64_t T0 = prof::nowNanos();
  api::SessionResult R = S.run(T);
  double Ns = static_cast<double>(prof::nowNanos() - T0);
  double Events = static_cast<double>(std::max<uint64_t>(1, T.size()));
  C.expect(R.EventsProcessed == T.size() && R.Engines.size() == 4,
           "fanout: session analyzed the whole trace in four lanes");
  if (Traced) {
    L.TracedNsPerEvent.push_back(Ns / Events);
  } else {
    L.NsPerEvent.push_back(Ns / Events);
    L.IngestNs.push_back(static_cast<double>(R.IngestNanos) / Events);
  }
  std::vector<Metrics> Lanes;
  for (const api::EngineRun &E : R.Engines)
    Lanes.push_back(E.Stats);
  if (!L.HaveFirst) {
    L.HaveFirst = true;
    L.FirstLaneStats = std::move(Lanes);
    return;
  }
  C.expect(Lanes == L.FirstLaneStats,
           "fanout: pass repeated the first pass's lane counters");
}

void PassRunner::resetTimings() {
  for (PassLog &L : Logs) {
    L.NsPerEvent.clear();
    L.TracedNsPerEvent.clear();
    L.IngestNs.clear();
    L.LaneNs.clear();
    L.AccessNsPerOp.clear();
    L.SyncNsPerOp.clear();
  }
}

void PassRunner::crossCheck() {
  const PassLog &ST = log("offline.ST"), &SU = log("offline.SU"),
                &SO = log("offline.SO");
  C.expect(ST.FirstSignatures == SU.FirstSignatures &&
               ST.FirstSignatures == SO.FirstSignatures,
           "offline ST, SU and SO declared identical race-signature sets");
  C.expect(log("online.ST").FirstRaces == log("online.SU").FirstRaces &&
               log("online.ST").FirstRaces == log("online.SO").FirstRaces,
           "online ST, SU and SO replays agree on their race counts");
  const PassLog &Fan = log("fanout");
  bool LanesMatch = Fan.FirstLaneStats.size() == 4;
  size_t I = 0;
  for (const char *E : {"offline.FT", "offline.ST", "offline.SU", "offline.SO"})
    LanesMatch = LanesMatch && Fan.FirstLaneStats[I++] == log(E).FirstStats;
  C.expect(LanesMatch, "fanout lanes did the offline lanes' exact work");
}
