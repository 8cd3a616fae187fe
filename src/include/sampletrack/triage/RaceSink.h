//===- sampletrack/triage/RaceSink.h - Dedup table at ingest ---*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ingest side of the race warehouse: a bounded, open-addressed dedup
/// table keyed by \ref RaceSignature. Every declareRace lands here instead
/// of a grow-only vector — the sink keeps the first report per signature as
/// the exemplar and counts the rest, so a week-long online run over a
/// million duplicate declarations holds O(distinct races) memory, not
/// O(declarations).
///
/// Hot-path contract: inserting an already-known signature is O(1) probe +
/// counter bump and never allocates; inserting a *new* signature allocates
/// only through amortized geometric growth (and never again once the
/// signature universe has been seen — the "warm sink" state the
/// no-allocation test pins down). The table is single-writer, matching the
/// detector lane-locality contract; concurrent producers (the online
/// runtime) shard one sink per thread and \ref absorb them at the end.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_TRIAGE_RACESINK_H
#define SAMPLETRACK_TRIAGE_RACESINK_H

#include "sampletrack/triage/RaceSignature.h"

#include <cstdint>
#include <string>
#include <vector>

namespace sampletrack {
namespace support {
class ByteReader;
} // namespace support

namespace triage {

/// One deduplicated race: its signature, how many times it was declared,
/// and the first report that declared it.
struct TriageEntry {
  uint64_t Signature = 0;
  uint64_t Hits = 0;
  RaceReport Exemplar{0, 0, 0, OpKind::Read};

  bool operator==(const TriageEntry &O) const {
    return Signature == O.Signature && Hits == O.Hits &&
           Exemplar == O.Exemplar;
  }
};

/// A deduplicated view of one run (or one merged set of runs): entries in
/// first-seen order plus the overflow accounting that distinguishes "the
/// sink deduplicated" from "the sink dropped signatures".
struct TriageSummary {
  std::vector<TriageEntry> Entries;
  /// Every declareRace, deduplicated or not.
  uint64_t RacesDeclared = 0;
  /// Declarations whose signature could not be stored because the sink was
  /// at capacity (each is a *distinct-signature* loss; duplicate hits on
  /// stored signatures are never dropped).
  uint64_t DroppedDeclarations = 0;
  /// True iff any declaration was dropped.
  bool Capped = false;

  size_t distinct() const { return Entries.size(); }

  bool operator==(const TriageSummary &O) const = default;
};

/// The bounded dedup table. See the file comment for the hot-path and
/// concurrency contracts.
class RaceSink {
public:
  /// Default distinct-signature capacity, matching the race-retention cap
  /// the detectors historically enforced on stored reports.
  static constexpr size_t DefaultCapacity = 1 << 20;

  explicit RaceSink(size_t Capacity = DefaultCapacity);

  /// Rebounds the distinct-signature capacity. Must be called before the
  /// first insert (the table is sized from it lazily).
  void setCapacity(size_t Capacity);
  size_t capacity() const { return Cap; }

  /// Records one race declaration. Returns true iff the signature is new
  /// (an exemplar was stored). Known signatures never allocate; new ones
  /// allocate only via amortized table growth up to the capacity.
  bool insert(const RaceReport &R) {
    return insert(RaceSignature::of(R).Value, R);
  }
  /// Same, with the signature precomputed by the caller.
  bool insert(uint64_t Sig, const RaceReport &R) { return add(Sig, R, 1); }

  /// Bulk variant: one entry carrying \p HitCount declarations (the merge
  /// paths use it so merging stays linear in distinct signatures, not in
  /// declarations). Returns true iff the signature is new.
  bool add(uint64_t Sig, const RaceReport &Exemplar, uint64_t HitCount);

  /// Folds another sink's deduplicated content into this one (hit counts
  /// accumulate, first exemplar wins, capacity still applies). The merge
  /// half of the per-thread sharding scheme.
  void absorb(const RaceSink &O);

  // -- Results ----------------------------------------------------------
  size_t distinct() const { return Exemplars.size(); }
  /// Every insert(), deduplicated or dropped.
  uint64_t totalDeclared() const { return Total; }
  /// True iff a distinct signature was dropped because the table was full.
  bool capped() const { return Dropped != 0; }
  uint64_t droppedDeclarations() const { return Dropped; }

  /// First report per signature, in first-seen order — the compatibility
  /// view behind Detector::races().
  const std::vector<RaceReport> &exemplars() const { return Exemplars; }
  /// Hit count of exemplars()[I].
  uint64_t hitsAt(size_t I) const { return Hits[I]; }
  /// Hit count for a signature (0 if absent).
  uint64_t hitsFor(uint64_t Sig) const;

  /// Moves the exemplar list out (the warehouse hand-off; the sink's
  /// per-signature counts remain valid). The sink must not be inserted
  /// into afterwards.
  std::vector<RaceReport> takeExemplars() { return std::move(Exemplars); }

  /// Snapshot of the deduplicated content, in first-seen order.
  TriageSummary summary() const;

  void clear();

private:
  /// Open-addressed slot: signature plus index into Exemplars/Hits.
  /// EmptyIdx marks a free slot (signature values are unrestricted).
  struct Slot {
    uint64_t Sig = 0;
    uint32_t Idx = EmptyIdx;
  };
  static constexpr uint32_t EmptyIdx = ~uint32_t(0);

  /// Finds the slot for \p Sig (present or the insertion point). The table
  /// is never full: growth keeps load factor <= 1/2 until the capacity
  /// bound, and at the bound Slots.size() >= 2 * Cap still holds.
  size_t probe(uint64_t Sig) const;
  void growTable();

  size_t Cap;
  uint64_t Total = 0;
  uint64_t Dropped = 0;
  std::vector<Slot> Slots;
  std::vector<RaceReport> Exemplars;
  std::vector<uint64_t> Hits;
};

/// Merges per-lane summaries in order (the session's deterministic
/// cross-lane dedup): hits accumulate per signature, the first lane's
/// exemplar wins, entries keep first-seen order. One scratch sink probes
/// every part, so the merge is linear in total distinct signatures.
TriageSummary mergeSummaries(const std::vector<TriageSummary> &Parts);

//===----------------------------------------------------------------------===//
// The shared byte forms (support/ByteCodec.h discipline). An exemplar is
//   u64 event  u32 tid  u64 var  u8 kind
// in every warehouse format, and a summary body is
//   u64 declared  u64 dropped  u8 capped  u64 count
//   count * { u64 sig  u64 hits  exemplar }
// byte for byte in STSG uploads and STTJ journal records.
//===----------------------------------------------------------------------===//

/// Bytes of one encoded exemplar, and of one encoded summary entry.
inline constexpr size_t ExemplarBytes = 21;
inline constexpr size_t SummaryEntryBytes = 16 + ExemplarBytes;

void appendExemplar(std::string &Out, const RaceReport &R);
/// Reads what appendExemplar wrote; false on a short input. The op kind is
/// read as stored: callers reject kinds past OpKind::AcquireLoad.
bool readExemplar(support::ByteReader &Rd, RaceReport &R);

void appendSummaryBody(std::string &Out, const TriageSummary &S);
/// Reads a summary body that runs to the end of \p Rd and checks it the
/// way every reader of outside input must: the entry count fits the bytes
/// left (checked before anything is reserved), the capped byte is 0 or 1,
/// every entry has a known op kind, a nonzero hit count and a signature no
/// earlier entry has, no bytes trail the last entry, the declared count
/// covers the entries' hits plus the dropped count, and the capped flag is
/// set iff something was dropped. \p Out is assigned only on success.
bool readSummaryBody(support::ByteReader &Rd, TriageSummary &Out,
                     std::string *Error);

} // namespace triage
} // namespace sampletrack

#endif // SAMPLETRACK_TRIAGE_RACESINK_H
