//===- api/Exploration.cpp - Schedule-space analysis -------------------------//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/api/Exploration.h"

#include "sampletrack/api/AnalysisSession.h"
#include "sampletrack/detectors/HBClosureOracle.h"

#include <unordered_set>

using namespace sampletrack;
using namespace sampletrack::api;
using namespace sampletrack::explore;

namespace {

/// How an engine's deduplicated race set is compared against the oracle.
enum class RefKind {
  FullExact,    ///< Event-exact vs dedup(declaredRaces(false)) — Djit+.
  FullLocations,///< Racy-location set vs the full reference — FT.
  MarkedExact,  ///< Event-exact vs dedup(declaredRaces(true)) — ST/SU/SO.
  MarkedNoReleaseJoin, ///< MarkedExact, but only without release-joins — TC.
};

RefKind refKindFor(EngineKind K) {
  switch (K) {
  case EngineKind::Djit:
    return RefKind::FullExact;
  case EngineKind::FastTrack:
    return RefKind::FullLocations;
  case EngineKind::TreeClockFull:
    return RefKind::MarkedNoReleaseJoin;
  case EngineKind::SamplingNaive:
  case EngineKind::SamplingU:
  case EngineKind::SamplingO:
  case EngineKind::SamplingONoEpochOpt:
    return RefKind::MarkedExact;
  }
  return RefKind::MarkedExact;
}

/// Signature of the oracle's declaration at trace position \p I.
uint64_t signatureAt(const Trace &T, size_t I) {
  const Event &E = T[I];
  return triage::RaceSignature::of(E.var(), E.Kind, E.Tid).Value;
}

std::unordered_set<VarId> varsOf(const Trace &T,
                                 const std::vector<size_t> &Events) {
  std::unordered_set<VarId> Out;
  for (size_t I : Events)
    Out.insert(T[I].var());
  return Out;
}

} // namespace

ExploreReport sampletrack::api::runExploration(const SessionConfig &Cfg,
                                               const Workload &W,
                                               const ExploreConfig &EC,
                                               prof::Profiler *Prof) {
  // Self-profiling: one tree for the exploration loop, split into the
  // enumeration/analysis/oracle phases per schedule. The inner sessions run
  // with profiling off — their results must not depend on it.
  prof::Tree *PT = Prof ? Prof->makeTree("explore") : nullptr;
  prof::NodeId EnumNode = 0, AnalyzeNode = 0, OracleNode = 0;
  if (PT) {
    EnumNode = PT->internPath({"explore", "enumerate"});
    AnalyzeNode = PT->internPath({"explore", "analyze"});
    OracleNode = PT->internPath({"explore", "oracle"});
  }

  std::vector<EngineKind> Kinds = Cfg.Engines;
  if (Kinds.empty())
    Kinds = {EngineKind::Djit,          EngineKind::FastTrack,
             EngineKind::SamplingNaive, EngineKind::SamplingU,
             EngineKind::SamplingO,     EngineKind::SamplingONoEpochOpt};

  ExploreReport R;
  R.Mode = exploreModeName(EC.Mode);
  R.Seed = EC.Seed;
  R.SchedulesRequested = EC.MaxSchedules;
  R.Engines.resize(Kinds.size());
  for (size_t I = 0; I < Kinds.size(); ++I)
    R.Engines[I].Engine = engineKindName(Kinds[I]);

  const bool WorkloadHasReleaseJoins = W.hasReleaseJoins();
  std::unordered_set<uint64_t> OracleMarkedUnion, OracleFullUnion;
  std::vector<std::unordered_set<uint64_t>> EngineUnion(Kinds.size());

  Scheduler Sched(W, EC);
  Schedule S;
  while (true) {
    uint64_t EnumT0 = PT ? prof::nowNanos() : 0;
    if (!Sched.next(S))
      break;
    Trace T = Scheduler::materialize(W, S.Choices);

    // Freeze this schedule's sample set into the trace so the lanes and
    // the oracle provably agree on S. The sampler restarts per schedule:
    // schedule k's decisions depend only on (Cfg, k-th trace shape).
    markTrace(T, *Cfg.makeSampler());
    if (PT)
      PT->addSpan(EnumNode, EnumT0, prof::nowNanos());

    SessionConfig SC = Cfg;
    SC.Engines = Kinds;
    SC.Sampling = SamplerKind::Marked;
    SC.ProfilingEnabled = false;
    uint64_t AnalyzeT0 = PT ? prof::nowNanos() : 0;
    SessionResult Run = AnalysisSession(SC).run(T);
    if (PT)
      PT->addSpan(AnalyzeNode, AnalyzeT0, prof::nowNanos());

    uint64_t OracleT0 = PT ? prof::nowNanos() : 0;
    HBClosureOracle Oracle(T);
    std::vector<size_t> DedupMarked =
        dedupDeclaredRaces(T, Oracle.declaredRaces(/*MarkedOnly=*/true));
    std::vector<size_t> DedupFull =
        dedupDeclaredRaces(T, Oracle.declaredRaces(/*MarkedOnly=*/false));
    for (size_t I : DedupMarked)
      OracleMarkedUnion.insert(signatureAt(T, I));
    for (size_t I : DedupFull)
      OracleFullUnion.insert(signatureAt(T, I));

    ScheduleOutcome Out;
    Out.Hash = S.Hash;
    Out.Events = T.size();
    Out.OracleSignatures = DedupMarked.size();
    Out.OracleFullSignatures = DedupFull.size();
    if (!DedupFull.empty())
      ++R.SchedulesWithOracleRaces;

    for (size_t L = 0; L < Kinds.size(); ++L) {
      const EngineRun &Lane = Run.Engines[L];
      EngineCoverage &Cov = R.Engines[L];
      for (const RaceReport &Rep : Lane.Races)
        EngineUnion[L].insert(triage::RaceSignature::of(Rep).Value);

      RefKind Ref = refKindFor(Kinds[L]);
      if (Ref == RefKind::MarkedNoReleaseJoin) {
        if (WorkloadHasReleaseJoins)
          continue; // No exact reference for TC here; leave unchecked.
        Ref = RefKind::MarkedExact;
      }
      const std::vector<size_t> &RefEvents =
          (Ref == RefKind::MarkedExact) ? DedupMarked : DedupFull;

      bool Agreed;
      if (Ref == RefKind::FullLocations) {
        std::unordered_set<VarId> Got;
        for (const RaceReport &Rep : Lane.Races)
          Got.insert(Rep.Var);
        Agreed = !Lane.RacesTruncated && Got == varsOf(T, RefEvents);
      } else {
        std::vector<size_t> Got;
        Got.reserve(Lane.Races.size());
        for (const RaceReport &Rep : Lane.Races)
          Got.push_back(Rep.EventIndex);
        Agreed = !Lane.RacesTruncated && Got == RefEvents;
      }

      ++Cov.SchedulesChecked;
      if (Agreed)
        ++Cov.SchedulesAgreed;
      else
        Out.Agreed = false;
      if (!RefEvents.empty()) {
        ++Cov.OracleRacySchedules;
        if (!Lane.Races.empty())
          ++Cov.DetectedRacySchedules;
      }
    }

    R.AllAgreed = R.AllAgreed && Out.Agreed;
    R.EventsAnalyzed += T.size();
    R.Schedules.push_back(Out);
    if (PT)
      PT->addSpan(OracleNode, OracleT0, prof::nowNanos());
  }

  R.SchedulesRun = Sched.emitted();
  R.DeadlockedSchedules = Sched.deadlocked();
  R.DuplicateSchedules = Sched.duplicates();
  R.OracleDistinctSignatures = OracleMarkedUnion.size();
  R.OracleFullDistinctSignatures = OracleFullUnion.size();
  for (size_t L = 0; L < Kinds.size(); ++L) {
    EngineCoverage &Cov = R.Engines[L];
    Cov.DistinctSignatures = EngineUnion[L].size();
    Cov.DetectionRate =
        Cov.OracleRacySchedules
            ? static_cast<double>(Cov.DetectedRacySchedules) /
                  static_cast<double>(Cov.OracleRacySchedules)
            : 1.0;
  }
  return R;
}
