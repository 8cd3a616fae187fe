//===- triage/RaceSink.cpp - Dedup table at ingest --------------------------=//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/triage/RaceSink.h"

#include <cassert>

using namespace sampletrack;
using namespace sampletrack::triage;

RaceSink::RaceSink(size_t Capacity) : Cap(Capacity ? Capacity : 1) {}

void RaceSink::setCapacity(size_t Capacity) {
  assert(Exemplars.empty() && Total == 0 &&
         "capacity must be set before the first insert");
  Cap = Capacity ? Capacity : 1;
}

size_t RaceSink::probe(uint64_t Sig) const {
  // The signature is already a mixed 64-bit value; masking it is as good a
  // bucket choice as rehashing it.
  size_t Mask = Slots.size() - 1;
  size_t I = static_cast<size_t>(Sig) & Mask;
  while (Slots[I].Idx != EmptyIdx && Slots[I].Sig != Sig)
    I = (I + 1) & Mask;
  return I;
}

void RaceSink::growTable() {
  // First insert: start small (a sink that never sees more than a handful
  // of distinct races should not pay megabytes); later: double. Either way
  // the slot count stays a power of two more than twice the entry count,
  // so probes terminate and stay short.
  size_t NewSize = Slots.empty() ? 1024 : Slots.size() * 2;
  std::vector<Slot> Old = std::move(Slots);
  Slots.assign(NewSize, Slot{});
  for (const Slot &S : Old)
    if (S.Idx != EmptyIdx)
      Slots[probe(S.Sig)] = S;
}

bool RaceSink::add(uint64_t Sig, const RaceReport &R, uint64_t HitCount) {
  if (!HitCount)
    return false;
  Total += HitCount;
  if (Slots.empty())
    growTable();
  size_t I = probe(Sig);
  if (Slots[I].Idx != EmptyIdx) {
    Hits[Slots[I].Idx] += HitCount; // Hot path: known key, no allocation.
    return false;
  }
  if (Exemplars.size() >= Cap) {
    Dropped += HitCount;
    return false;
  }
  Slots[I] = Slot{Sig, static_cast<uint32_t>(Exemplars.size())};
  Exemplars.push_back(R);
  Hits.push_back(HitCount);
  if (Exemplars.size() * 2 >= Slots.size())
    growTable();
  return true;
}

void RaceSink::absorb(const RaceSink &O) {
  for (size_t K = 0; K < O.Exemplars.size(); ++K)
    add(RaceSignature::of(O.Exemplars[K]).Value, O.Exemplars[K], O.Hits[K]);
  Total += O.Dropped;
  Dropped += O.Dropped;
}

uint64_t RaceSink::hitsFor(uint64_t Sig) const {
  if (Slots.empty())
    return 0;
  size_t I = probe(Sig);
  return Slots[I].Idx == EmptyIdx ? 0 : Hits[Slots[I].Idx];
}

TriageSummary RaceSink::summary() const {
  TriageSummary S;
  S.Entries.reserve(Exemplars.size());
  for (size_t I = 0; I < Exemplars.size(); ++I)
    S.Entries.push_back(TriageEntry{RaceSignature::of(Exemplars[I]).Value,
                                    Hits[I], Exemplars[I]});
  S.RacesDeclared = Total;
  S.DroppedDeclarations = Dropped;
  S.Capped = Dropped != 0;
  return S;
}

void RaceSink::clear() {
  Total = 0;
  Dropped = 0;
  Slots.clear();
  Exemplars.clear();
  Hits.clear();
}

TriageSummary
sampletrack::triage::mergeSummaries(const std::vector<TriageSummary> &Parts) {
  size_t Distinct = 0;
  for (const TriageSummary &P : Parts)
    Distinct += P.Entries.size();
  RaceSink Tmp(Distinct ? Distinct : 1);
  TriageSummary Out;
  for (const TriageSummary &P : Parts) {
    for (const TriageEntry &E : P.Entries)
      Tmp.add(E.Signature, E.Exemplar, E.Hits);
    Out.RacesDeclared += P.RacesDeclared;
    Out.DroppedDeclarations += P.DroppedDeclarations;
    Out.Capped = Out.Capped || P.Capped;
  }
  Out.Entries = Tmp.summary().Entries;
  return Out;
}
