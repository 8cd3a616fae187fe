//===- triage/RaceSink.cpp - Dedup table at ingest --------------------------=//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/triage/RaceSink.h"

#include "sampletrack/support/ByteCodec.h"

#include <cassert>
#include <unordered_set>

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

void sampletrack::triage::appendExemplar(std::string &Out,
                                         const RaceReport &R) {
  support::putU64(Out, R.EventIndex);
  support::putU32(Out, R.Tid);
  support::putU64(Out, R.Var);
  Out.push_back(static_cast<char>(R.Kind));
}

bool sampletrack::triage::readExemplar(support::ByteReader &Rd,
                                       RaceReport &R) {
  uint8_t Kind = 0;
  if (!Rd.getU64(R.EventIndex) || !Rd.getU32(R.Tid) || !Rd.getU64(R.Var) ||
      !Rd.getByte(Kind))
    return false;
  R.Kind = static_cast<OpKind>(Kind);
  return true;
}

void sampletrack::triage::appendSummaryBody(std::string &Out,
                                            const TriageSummary &S) {
  support::putU64(Out, S.RacesDeclared);
  support::putU64(Out, S.DroppedDeclarations);
  Out.push_back(S.Capped ? 1 : 0);
  support::putU64(Out, S.Entries.size());
  for (const TriageEntry &E : S.Entries) {
    support::putU64(Out, E.Signature);
    support::putU64(Out, E.Hits);
    appendExemplar(Out, E.Exemplar);
  }
}

bool sampletrack::triage::readSummaryBody(support::ByteReader &Rd,
                                          TriageSummary &Out,
                                          std::string *Error) {
  using support::fail;
  TriageSummary S;
  uint8_t Capped = 0;
  if (!Rd.getU64(S.RacesDeclared) || !Rd.getU64(S.DroppedDeclarations) ||
      !Rd.getByte(Capped))
    return fail(Error, "truncated summary counts");
  uint64_t Count = 0;
  if (!Rd.getCount(Count, SummaryEntryBytes))
    return fail(Error, "truncated summary (entry count exceeds the bytes "
                       "left)");
  if (Capped > 1)
    return fail(Error, "corrupt summary (bad capped flag)");
  S.Capped = Capped != 0;
  std::unordered_set<uint64_t> Seen;
  S.Entries.reserve(Count);
  uint64_t HitTotal = 0;
  for (uint64_t I = 0; I < Count; ++I) {
    TriageEntry E;
    if (!Rd.getU64(E.Signature) || !Rd.getU64(E.Hits) ||
        !readExemplar(Rd, E.Exemplar))
      return fail(Error, "truncated summary entry");
    if (E.Exemplar.Kind > OpKind::AcquireLoad)
      return fail(Error, "corrupt summary entry (bad op kind)");
    if (E.Hits == 0)
      return fail(Error, "corrupt summary entry (zero hit count)");
    if (!Seen.insert(E.Signature).second)
      return fail(Error, "corrupt summary (duplicate signature)");
    // A hit total past 2^64 exceeds any declared count; checked so it
    // cannot wrap into agreement with one.
    if (__builtin_add_overflow(HitTotal, E.Hits, &HitTotal))
      return fail(Error, "corrupt summary (declaration counts inconsistent)");
    S.Entries.push_back(E);
  }
  if (!Rd.exhausted())
    return fail(Error, "trailing garbage after the last summary entry");
  // Declared counts every insert, stored or dropped; it can never be less
  // than what the stored entries account for.
  uint64_t Accounted = 0;
  if (__builtin_add_overflow(HitTotal, S.DroppedDeclarations, &Accounted) ||
      S.RacesDeclared < Accounted)
    return fail(Error, "corrupt summary (declaration counts inconsistent)");
  if (S.Capped != (S.DroppedDeclarations != 0))
    return fail(Error, "corrupt summary (capped flag inconsistent)");
  Out = std::move(S);
  return true;
}
