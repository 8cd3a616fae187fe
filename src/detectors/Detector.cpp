//===- detectors/Detector.cpp - Detector interface --------------------------=//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/detectors/Detector.h"

#include <sstream>

using namespace sampletrack;

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
