//===- sampletrack/api/Exploration.h - Schedule-space analysis -*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bridge between the schedule explorer and the analysis pipeline:
/// \ref runExploration enumerates interleavings of an explore::Workload,
/// fans each one through a full api::AnalysisSession (every configured
/// engine, the shared sample set, the parallel lanes if NumWorkers is set),
/// cross-checks every engine's deduplicated race-signature set against the
/// HBClosureOracle's dedupDeclaredRaces on that very schedule, and
/// aggregates the per-schedule verdicts into an explore::ExploreReport.
///
/// \code
///   explore::Workload W = explore::Workload::fromTrace(Recorded);
///   api::SessionConfig Cfg;            // engines, sampling, workers
///   explore::ExploreConfig EC;         // mode, seed, budget
///   explore::ExploreReport R = api::runExploration(Cfg, W, EC);
///   assert(R.AllAgreed);               // engines == oracle, per schedule
///   std::puts(explore::toJson(R).c_str());
/// \endcode
///
/// Per-schedule sampling: the session config's sampler is instantiated
/// fresh for each schedule and its decisions are frozen into the trace's
/// Marked bits before analysis, so the engines and the oracle provably see
/// the same sample set S (the lanes then run with SamplerKind::Marked).
///
/// Per-engine oracle references (what "agreed" means):
///  - Djit+ — event-exact match of dedupDeclaredRaces(declaredRaces(false)).
///  - FT — same racy-location set as that reference (FastTrack's epochs
///    declare at the same locations, not necessarily the same events).
///  - ST / SU / SO / SO-noepoch — event-exact match of
///    dedupDeclaredRaces(declaredRaces(true)), Lemma 4's semantics.
///  - TC-full — the sampled reference, checked only on schedules without
///    release-joins (TC replaces where a release-join joins, so it is
///    documented to diverge there); release-stores and acquire-loads are
///    checked. Unchecked schedules don't count toward agreement.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_API_EXPLORATION_H
#define SAMPLETRACK_API_EXPLORATION_H

#include "sampletrack/api/SessionConfig.h"
#include "sampletrack/explore/Coverage.h"
#include "sampletrack/prof/Profiler.h"

namespace sampletrack {
namespace api {

/// Explores \p W's schedule space under \p EC and analyzes every emitted
/// schedule with a session configured by \p Cfg (an empty Cfg.Engines runs
/// the paper's six: Djit+, FT, ST, SU, SO, SO-noepoch). Deterministic in
/// (Cfg, W, EC), including the report's byte-level JSON rendering.
///
/// When \p Prof is non-null the exploration self-profiles into a fresh
/// "explore" tree there: per-schedule enumerate (scheduler step, trace
/// materialization, sample freezing) / analyze (the full session) / oracle
/// (HB closure plus the agreement checks) spans. The report itself never
/// carries timing, so profiling cannot perturb its bytes; the per-schedule
/// sessions always run with profiling off.
explore::ExploreReport runExploration(const SessionConfig &Cfg,
                                      const explore::Workload &W,
                                      const explore::ExploreConfig &EC,
                                      prof::Profiler *Prof = nullptr);

} // namespace api
} // namespace sampletrack

#endif // SAMPLETRACK_API_EXPLORATION_H
