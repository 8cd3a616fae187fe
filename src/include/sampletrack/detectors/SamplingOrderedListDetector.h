//===- sampletrack/detectors/SamplingOrderedListDetector.h - SO -*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SamplingOrderedListDetector (SO, Algorithm 4) is declared in
/// EngineDetector.h as an alias.
/// The engine's transitions are its policy type in EngineCore.h.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_DETECTORS_SAMPLINGORDEREDLISTDETECTOR_H
#define SAMPLETRACK_DETECTORS_SAMPLINGORDEREDLISTDETECTOR_H

#include "sampletrack/detectors/EngineDetector.h"

#endif // SAMPLETRACK_DETECTORS_SAMPLINGORDEREDLISTDETECTOR_H
