//===- detectors/DetectorFactory.cpp - Engine registry ------------------------/
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/detectors/DetectorFactory.h"

#include "sampletrack/detectors/DjitDetector.h"
#include "sampletrack/detectors/EngineDetector.h"

#include <algorithm>
#include <cctype>

using namespace sampletrack;

namespace {

std::string toLower(const std::string &S) {
  std::string Out = S;
  std::transform(Out.begin(), Out.end(), Out.begin(), [](unsigned char C) {
    return static_cast<char>(std::tolower(C));
  });
  return Out;
}

} // namespace

const char *sampletrack::engineKindName(EngineKind K) {
  switch (K) {
  case EngineKind::Djit:
    return "Djit+";
  case EngineKind::FastTrack:
    return "FT";
  case EngineKind::SamplingNaive:
    return "ST";
  case EngineKind::SamplingU:
    return "SU";
  case EngineKind::SamplingO:
    return "SO";
  case EngineKind::SamplingONoEpochOpt:
    return "SO-noepoch";
  case EngineKind::TreeClockFull:
    return "TC";
  }
  return "?";
}

std::optional<EngineKind> sampletrack::parseEngineKind(const std::string &N) {
  std::string Needle = toLower(N);
  for (EngineKind K : allEngineKinds())
    if (Needle == toLower(engineKindName(K)))
      return K;
  // Long-form aliases (the canonical short names above always win, so the
  // parse/print pair round-trips for every kind).
  if (Needle == "djit")
    return EngineKind::Djit;
  if (Needle == "fasttrack")
    return EngineKind::FastTrack;
  if (Needle == "treeclock")
    return EngineKind::TreeClockFull;
  return std::nullopt;
}

std::vector<EngineKind> sampletrack::allEngineKinds() {
  return {EngineKind::Djit,
          EngineKind::FastTrack,
          EngineKind::SamplingNaive,
          EngineKind::SamplingU,
          EngineKind::SamplingO,
          EngineKind::SamplingONoEpochOpt,
          EngineKind::TreeClockFull};
}

size_t sampletrack::clockBytesPerComponent(EngineKind K) {
  switch (K) {
  case EngineKind::Djit:
  case EngineKind::FastTrack:
  case EngineKind::SamplingNaive:
    return sizeof(ClockValue); // C.
  case EngineKind::SamplingU:
    return 2 * sizeof(ClockValue); // C and U.
  case EngineKind::SamplingO:
  case EngineKind::SamplingONoEpochOpt:
    return OrderedList::componentBytes() + sizeof(ClockValue); // O and U.
  case EngineKind::TreeClockFull:
    return TreeClock::componentBytes();
  }
  return 0;
}

std::unique_ptr<Detector> sampletrack::createDetector(EngineKind K,
                                                      size_t NumThreads) {
  switch (K) {
  case EngineKind::Djit:
    return std::make_unique<DjitDetector>(NumThreads);
  case EngineKind::FastTrack:
    return std::make_unique<FastTrackDetector>(NumThreads);
  case EngineKind::SamplingNaive:
    return std::make_unique<SamplingNaiveDetector>(NumThreads);
  case EngineKind::SamplingU:
    return std::make_unique<SamplingUClockDetector>(NumThreads);
  case EngineKind::SamplingO:
    return std::make_unique<SamplingOrderedListDetector>(NumThreads,
                                                         /*LocalEpochOpt=*/
                                                         true);
  case EngineKind::SamplingONoEpochOpt:
    return std::make_unique<SamplingOrderedListDetector>(NumThreads,
                                                         /*LocalEpochOpt=*/
                                                         false);
  case EngineKind::TreeClockFull:
    return std::make_unique<TreeClockDetector>(NumThreads);
  }
  return nullptr;
}

std::vector<std::unique_ptr<Detector>>
sampletrack::createDetectors(std::span<const EngineKind> Kinds,
                             size_t NumThreads) {
  std::vector<std::unique_ptr<Detector>> Out;
  Out.reserve(Kinds.size());
  for (EngineKind K : Kinds)
    Out.push_back(createDetector(K, NumThreads));
  return Out;
}
