//===- sampletrack/detectors/SamplingNaiveDetector.h - ST -*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SamplingNaiveDetector (ST, Algorithm 2) is declared in
/// EngineDetector.h as an alias.
/// The engine's transitions are its policy type in EngineCore.h.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_DETECTORS_SAMPLINGNAIVEDETECTOR_H
#define SAMPLETRACK_DETECTORS_SAMPLINGNAIVEDETECTOR_H

#include "sampletrack/detectors/EngineDetector.h"

#endif // SAMPLETRACK_DETECTORS_SAMPLINGNAIVEDETECTOR_H
