//===- api/Report.cpp - Session result reporters ---------------------------==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/api/Report.h"

#include "sampletrack/support/Json.h"
#include "sampletrack/triage/Exporters.h"

#include <fstream>
#include <sstream>

using namespace sampletrack;
using namespace sampletrack::api;
using support::jsonEscape;

namespace {

void emitMetrics(std::ostringstream &OS, const Metrics &M,
                 const char *Indent) {
  OS << Indent << "\"events\": " << M.Events << ",\n"
     << Indent << "\"accesses\": " << M.Accesses << ",\n"
     << Indent << "\"sampledAccesses\": " << M.SampledAccesses << ",\n"
     << Indent << "\"acquiresTotal\": " << M.AcquiresTotal << ",\n"
     << Indent << "\"acquiresSkipped\": " << M.AcquiresSkipped << ",\n"
     << Indent << "\"acquiresProcessed\": " << M.AcquiresProcessed << ",\n"
     << Indent << "\"releasesTotal\": " << M.ReleasesTotal << ",\n"
     << Indent << "\"releasesSkipped\": " << M.ReleasesSkipped << ",\n"
     << Indent << "\"releasesProcessed\": " << M.ReleasesProcessed << ",\n"
     << Indent << "\"shallowCopies\": " << M.ShallowCopies << ",\n"
     << Indent << "\"deepCopies\": " << M.DeepCopies << ",\n"
     << Indent << "\"poolHits\": " << M.PoolHits << ",\n"
     << Indent << "\"cowBreaks\": " << M.CowBreaks << ",\n"
     << Indent << "\"entriesTraversed\": " << M.EntriesTraversed << ",\n"
     << Indent << "\"traversalOpportunities\": " << M.TraversalOpportunities
     << ",\n"
     << Indent << "\"fullClockOps\": " << M.FullClockOps << ",\n"
     << Indent << "\"raceChecks\": " << M.RaceChecks << ",\n"
     << Indent << "\"racesDeclared\": " << M.RacesDeclared << "\n";
}

} // namespace

std::string sampletrack::api::toJson(const SessionResult &R,
                                     size_t MaxRaces) {
  std::ostringstream OS;
  OS << "{\n"
     << "  \"eventsProcessed\": " << R.EventsProcessed << ",\n"
     << "  \"numThreads\": " << R.NumThreads << ",\n"
     << "  \"numWorkers\": " << R.NumWorkers << ",\n"
     << "  \"wallNanos\": " << R.WallNanos << ",\n"
     << "  \"ingestNanos\": " << R.IngestNanos << ",\n"
     << "  \"engines\": [\n";
  for (size_t I = 0; I < R.Engines.size(); ++I) {
    const EngineRun &E = R.Engines[I];
    OS << "    {\n"
       << "      \"engine\": \"" << jsonEscape(E.Engine) << "\",\n"
       << "      \"sampler\": \"" << jsonEscape(E.SamplerName) << "\",\n"
       << "      \"races\": " << E.NumRaces << ",\n"
       << "      \"distinctRaces\": " << E.DistinctRaces << ",\n"
       << "      \"racyLocations\": " << E.NumRacyLocations << ",\n"
       << "      \"sampleSize\": " << E.SampleSize << ",\n"
       << "      \"wallNanos\": " << E.WallNanos << ",\n"
       << "      \"racesTruncated\": " << (E.RacesTruncated ? "true" : "false")
       << ",\n";
    if (MaxRaces) {
      OS << "      \"raceReports\": [\n";
      size_t N = std::min(MaxRaces, E.Races.size());
      for (size_t J = 0; J < N; ++J) {
        const RaceReport &Race = E.Races[J];
        OS << "        {\"event\": " << Race.EventIndex
           << ", \"thread\": " << Race.Tid << ", \"var\": " << Race.Var
           << ", \"op\": \"" << opKindName(Race.Kind) << "\"}"
           << (J + 1 < N ? "," : "") << "\n";
      }
      OS << "      ],\n";
    }
    OS << "      \"metrics\": {\n";
    emitMetrics(OS, E.Stats, "        ");
    OS << "      }\n"
       << "    }" << (I + 1 < R.Engines.size() ? "," : "") << "\n";
  }
  OS << "  ],\n";

  // The run's warehouse view: what the lanes' declarations dedup to.
  const triage::TriageSummary &T = R.Triage;
  OS << "  \"triage\": {\n"
     << "    \"distinctSignatures\": " << T.distinct() << ",\n"
     << "    \"racesDeclared\": " << T.RacesDeclared << ",\n"
     << "    \"droppedDeclarations\": " << T.DroppedDeclarations << ",\n"
     << "    \"capped\": " << (T.Capped ? "true" : "false") << "\n"
     << "  },\n"
     // The self-profile (empty array unless ProfilingEnabled): one object
     // per span in pre-order, path-flattened.
     << "  \"profile\": " << prof::toJsonArray(R.Profile) << "\n}\n";
  return OS.str();
}

std::string sampletrack::api::toCsv(const SessionResult &R) {
  std::ostringstream OS;
  OS << "engine,sampler,races,distinct_races,racy_locations,"
        "races_truncated,sample_size,"
        "events,accesses,acquires_total,acquires_skipped,releases_total,"
        "releases_skipped,deep_copies,pool_hits,cow_breaks,"
        "entries_traversed,full_clock_ops,wall_nanos\n";
  for (const EngineRun &E : R.Engines) {
    const Metrics &M = E.Stats;
    OS << E.Engine << ',' << E.SamplerName << ',' << E.NumRaces << ','
       << E.DistinctRaces << ',' << E.NumRacyLocations << ','
       << (E.RacesTruncated ? 1 : 0) << ','
       << E.SampleSize << ',' << M.Events << ','
       << M.Accesses << ','
       << M.AcquiresTotal << ',' << M.AcquiresSkipped << ','
       << M.ReleasesTotal << ',' << M.ReleasesSkipped << ',' << M.DeepCopies
       << ',' << M.PoolHits << ',' << M.CowBreaks << ','
       << M.EntriesTraversed << ',' << M.FullClockOps << ','
       << E.WallNanos << '\n';
  }
  return OS.str();
}

std::string sampletrack::api::toProfileCsv(const SessionResult &R) {
  return prof::toCsv(R.Profile);
}

std::string sampletrack::api::toSarif(const SessionResult &R) {
  // A single-run SARIF log is the warehouse export of a one-run store.
  triage::TriageStore Once;
  Once.mergeRun(R.Triage);
  return triage::toSarif(Once);
}

bool sampletrack::api::runTriage(const SessionConfig &Cfg,
                                 const SessionResult &R, TriageOutcome &Out,
                                 std::string *Error) {
  Out.Store = triage::TriageStore();
  Out.Merge = triage::TriageStore::MergeResult();
  if (!Cfg.TriageStorePath.empty() &&
      !Out.Store.loadIfExists(Cfg.TriageStorePath, Error))
    return false;
  if (!Cfg.SuppressionFile.empty() &&
      !Out.Store.loadSuppressionFile(Cfg.SuppressionFile, Error))
    return false;
  Out.Merge = Out.Store.mergeRun(R.Triage);
  if (!Cfg.TriageStorePath.empty() &&
      !Out.Store.save(Cfg.TriageStorePath, Error))
    return false;
  return true;
}

bool sampletrack::api::writeFile(const std::string &Path,
                                 const std::string &Content) {
  std::ofstream Os(Path, std::ios::binary);
  if (!Os)
    return false;
  Os << Content;
  return static_cast<bool>(Os);
}
