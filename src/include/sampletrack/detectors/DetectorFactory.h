//===- sampletrack/detectors/DetectorFactory.h - Engine registry -*- C++ -*-=//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Names and constructs the race-detection engines evaluated in the paper.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_DETECTORS_DETECTORFACTORY_H
#define SAMPLETRACK_DETECTORS_DETECTORFACTORY_H

#include "sampletrack/detectors/Detector.h"

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace sampletrack {

/// The engines of the evaluation (Section 6.2.2), plus ablation variants.
enum class EngineKind {
  Djit,          ///< Algorithm 1 (Djit+), full analysis.
  FastTrack,     ///< FT: epoch-optimized full analysis.
  SamplingNaive, ///< ST: Algorithm 2.
  SamplingU,     ///< SU: Algorithm 3.
  SamplingO,     ///< SO: Algorithm 4 with the local-epoch optimization.
  SamplingONoEpochOpt, ///< SO without the Section 6.1 optimization.
  TreeClockFull, ///< Ablation: full-HB timestamps in tree clocks, sampled
                 ///< race checks (Section 7's related-work comparison).
};

/// Short name as used in the paper ("Djit+", "FT", "ST", "SU", "SO", ...).
const char *engineKindName(EngineKind K);

/// Parses an engine name, case-insensitively: the names printed by
/// engineKindName (so parseEngineKind(engineKindName(K)) == K for every K),
/// plus the aliases "djit", "fasttrack" and "treeclock".
std::optional<EngineKind> parseEngineKind(const std::string &Name);

/// All engines, in presentation order.
std::vector<EngineKind> allEngineKinds();

/// Bytes per component of the thread clocks a detector of kind \p K sizes
/// when it is constructed: over T threads they take T * T times this.
size_t clockBytesPerComponent(EngineKind K);

/// Constructs a fresh detector of kind \p K over \p NumThreads threads.
std::unique_ptr<Detector> createDetector(EngineKind K, size_t NumThreads);

/// Constructs one fresh detector per kind in \p Kinds, preserving order (the
/// presentation-order fan-out set used by the benches and by
/// api::AnalysisSession).
std::vector<std::unique_ptr<Detector>>
createDetectors(std::span<const EngineKind> Kinds, size_t NumThreads);

} // namespace sampletrack

#endif // SAMPLETRACK_DETECTORS_DETECTORFACTORY_H
