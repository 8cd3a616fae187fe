//===- sampletrack/detectors/SamplingUClockDetector.h - SU -*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SamplingUClockDetector (SU, Algorithm 3) is declared in
/// EngineDetector.h as an alias.
/// The engine's transitions are its policy type in EngineCore.h.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_DETECTORS_SAMPLINGUCLOCKDETECTOR_H
#define SAMPLETRACK_DETECTORS_SAMPLINGUCLOCKDETECTOR_H

#include "sampletrack/detectors/EngineDetector.h"

#endif // SAMPLETRACK_DETECTORS_SAMPLINGUCLOCKDETECTOR_H
