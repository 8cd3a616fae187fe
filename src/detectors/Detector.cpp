//===- detectors/Detector.cpp - Detector interface --------------------------=//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/detectors/Detector.h"

#include <cassert>
#include <sstream>

using namespace sampletrack;

void Detector::processEvent(const Event &E, bool Sampled) {
#ifndef NDEBUG
  DriverScope Guard(*this); // Lane-affinity: no concurrent re-entry.
#endif
  ++Stats.Events;
  switch (E.Kind) {
  case OpKind::Read:
    ++Stats.Accesses;
    if (Sampled)
      ++Stats.SampledAccesses;
    onRead(E.Tid, E.var(), Sampled);
    break;
  case OpKind::Write:
    ++Stats.Accesses;
    if (Sampled)
      ++Stats.SampledAccesses;
    onWrite(E.Tid, E.var(), Sampled);
    break;
  case OpKind::Acquire:
    onAcquire(E.Tid, E.sync());
    break;
  case OpKind::Release:
    onRelease(E.Tid, E.sync());
    break;
  case OpKind::Fork:
    onFork(E.Tid, E.childThread());
    break;
  case OpKind::Join:
    onJoin(E.Tid, E.childThread());
    break;
  case OpKind::ReleaseStore:
    onReleaseStore(E.Tid, E.sync());
    break;
  case OpKind::ReleaseJoin:
    onReleaseJoin(E.Tid, E.sync());
    break;
  case OpKind::AcquireLoad:
    onAcquireLoad(E.Tid, E.sync());
    break;
  }
  ++Position;
}

void Detector::processBatch(std::span<const Event> Events,
                            std::span<const uint8_t> Sampled) {
  processBatchGeneric(Events, Sampled);
}

void Detector::processBatchGeneric(std::span<const Event> Events,
                                   std::span<const uint8_t> Sampled) {
  assert(Events.size() == Sampled.size() && "one decision per event");
  for (size_t I = 0, N = Events.size(); I < N; ++I)
    processEvent(Events[I], Sampled[I] != 0);
}

std::string Metrics::str() const {
  std::ostringstream OS;
  OS << "events=" << Events << " accesses=" << Accesses
     << " sampled=" << SampledAccesses << '\n'
     << "acquires: total=" << AcquiresTotal << " skipped=" << AcquiresSkipped
     << " processed=" << AcquiresProcessed << '\n'
     << "releases: total=" << ReleasesTotal << " skipped=" << ReleasesSkipped
     << " processed=" << ReleasesProcessed << '\n'
     << "copies: shallow=" << ShallowCopies << " deep=" << DeepCopies
     << " cow-breaks=" << CowBreaks << " pool-hits=" << PoolHits << '\n'
     << "ordered-list: traversed=" << EntriesTraversed
     << " opportunities=" << TraversalOpportunities << '\n'
     << "full-clock ops=" << FullClockOps << " race checks=" << RaceChecks
     << " races=" << RacesDeclared << '\n';
  return OS.str();
}
