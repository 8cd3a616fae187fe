//===- triage/TriageStore.cpp - Cross-run persistence -----------------------=//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/triage/TriageStore.h"

#include "sampletrack/support/ByteCodec.h"

#include <unistd.h>

#include <algorithm>
#include <fstream>

using namespace sampletrack;
using namespace sampletrack::support;
using namespace sampletrack::triage;

const char *sampletrack::triage::raceStatusName(RaceStatus S) {
  switch (S) {
  case RaceStatus::New:
    return "new";
  case RaceStatus::Known:
    return "known";
  case RaceStatus::Regressed:
    return "regressed";
  case RaceStatus::Suppressed:
    return "suppressed";
  }
  return "?";
}

const TriageStore::Record *TriageStore::find(uint64_t Sig) const {
  auto It = Index.find(Sig);
  return It == Index.end() ? nullptr : &Records[It->second];
}

TriageStore::Record &TriageStore::findOrCreate(uint64_t Sig) {
  auto [It, New] = Index.try_emplace(Sig, Records.size());
  if (New) {
    Records.push_back(Record{});
    Records.back().Signature = Sig;
  }
  return Records[It->second];
}

TriageStore::MergeResult TriageStore::mergeRun(const TriageSummary &S) {
  ++RunCounter;
  MergeResult Out;
  for (const TriageEntry &E : S.Entries) {
    Record &R = findOrCreate(E.Signature);
    bool FirstEver = R.Runs == 0;
    // LastSeenRun < RunCounter - 1 means the signature skipped at least one
    // whole run and came back: a regression of a race that had gone quiet.
    bool CameBack = !FirstEver && R.LastSeenRun + 1 < RunCounter;
    R.Hits += E.Hits;
    R.Runs += 1;
    if (FirstEver) {
      R.FirstSeenRun = RunCounter;
      R.Exemplar = E.Exemplar;
    }
    R.LastSeenRun = RunCounter;
    if (R.Suppressed) {
      ++Out.SuppressedSignatures;
      R.LastStatus = RaceStatus::Suppressed;
    } else if (FirstEver) {
      ++Out.NewSignatures;
      Out.NewRaces.push_back(E);
      R.LastStatus = RaceStatus::New;
    } else if (CameBack) {
      ++Out.RegressedSignatures;
      Out.RegressedRaces.push_back(E);
      R.LastStatus = RaceStatus::Regressed;
    } else {
      ++Out.KnownSignatures;
      R.LastStatus = RaceStatus::Known;
    }
  }
  return Out;
}

void TriageStore::suppress(uint64_t Sig) { findOrCreate(Sig).Suppressed = true; }

bool TriageStore::isSuppressed(uint64_t Sig) const {
  const Record *R = find(Sig);
  return R && R->Suppressed;
}

bool TriageStore::loadSuppressionFile(const std::string &Path,
                                      std::string *Error) {
  std::ifstream Is(Path);
  if (!Is)
    return fail(Error, "cannot open suppression file '" + Path + "'");
  std::string Line;
  size_t LineNo = 0;
  while (std::getline(Is, Line)) {
    ++LineNo;
    // Strip a trailing comment and surrounding whitespace.
    size_t Hash = Line.find('#');
    if (Hash != std::string::npos)
      Line.resize(Hash);
    size_t B = Line.find_first_not_of(" \t\r");
    if (B == std::string::npos)
      continue;
    size_t E = Line.find_last_not_of(" \t\r");
    std::string Token = Line.substr(B, E - B + 1);
    std::optional<RaceSignature> Sig = RaceSignature::parseHex(Token);
    if (!Sig)
      return fail(Error, Path + ":" + std::to_string(LineNo) +
                             ": not a hex race signature: '" + Token + "'");
    suppress(Sig->Value);
  }
  return true;
}

std::vector<const TriageStore::Record *>
TriageStore::ranked(size_t TopN) const {
  std::vector<const Record *> Out;
  Out.reserve(Records.size());
  for (const Record &R : Records)
    Out.push_back(&R);
  std::stable_sort(Out.begin(), Out.end(),
                   [](const Record *A, const Record *B) {
                     if (A->Suppressed != B->Suppressed)
                       return !A->Suppressed; // Suppressed sort last.
                     if (A->Hits != B->Hits)
                       return A->Hits > B->Hits;
                     return A->Signature < B->Signature;
                   });
  if (TopN && Out.size() > TopN)
    Out.resize(TopN);
  return Out;
}

//===----------------------------------------------------------------------===//
// Persistence: compact little-endian binary, versioned with the signature
// scheme and checksummed so corruption is rejected, never loaded.
//
// Layout (format version 2):
//   "STTS"  magic
//   u32     format version
//   u64     FNV-1a checksum of the payload that follows
//   payload: u32 signature version | u32 run counter | u64 record count |
//            records
//
// deserialize() verifies, in order: magic, format version (a clear message
// for stores written by other versions), checksum (any truncation or bit
// flip past the header fails here), then parses the payload with exact
// length accounting (trailing garbage is an error) and validates every
// record's structural invariants. A failed load leaves the store
// untouched.
//
// All file I/O goes through support::FileSystem so the crash tests can
// fail any operation; this same byte image doubles as the TriageLog base
// segment. The bytes go through the warehouse's one codec
// (support/ByteCodec.h), and the record count is bounded by the bytes left
// before anything is reserved for it.
//===----------------------------------------------------------------------===//

namespace {

constexpr char Magic[4] = {'S', 'T', 'T', 'S'};
constexpr uint32_t FormatVersion = 2;
/// One record: u64 sig  u64 hits  u32 runs  u32 first  u32 last
/// u8 suppressed  u8 status  exemplar.
constexpr size_t RecordBytes = 30 + ExemplarBytes;

} // namespace

std::string TriageStore::serialize() const {
  // The payload first so the header can carry its checksum.
  std::string Payload;
  Payload.reserve(16 + Records.size() * RecordBytes);
  putU32(Payload, RaceSignature::Version);
  putU32(Payload, RunCounter);
  putU64(Payload, Records.size());
  for (const Record &R : Records) {
    putU64(Payload, R.Signature);
    putU64(Payload, R.Hits);
    putU32(Payload, R.Runs);
    putU32(Payload, R.FirstSeenRun);
    putU32(Payload, R.LastSeenRun);
    Payload.push_back(R.Suppressed ? 1 : 0);
    Payload.push_back(static_cast<char>(R.LastStatus));
    appendExemplar(Payload, R.Exemplar);
  }

  std::string Out;
  Out.reserve(16 + Payload.size());
  Out.append(Magic, 4);
  putU32(Out, FormatVersion);
  putU64(Out, fnv1a(Payload));
  Out += Payload;
  return Out;
}

bool TriageStore::save(support::FileSystem &Fs, const std::string &Path,
                       std::string *Error) const {
  std::string Image = serialize();

  // Crash-safe save: write a temp file in the same directory (rename is
  // only atomic within one filesystem), fsync its *contents*, then rename
  // over the target and fsync the directory entry. A reader — or a crash —
  // at any point sees either the old complete store or the new complete
  // store, never a torn one. The fsync before the rename matters: rename
  // alone orders only the name change, so a crash after it could leave the
  // durable name pointing at bytes that never reached stable storage.
  std::string TmpPath =
      Path + ".tmp." + std::to_string(static_cast<unsigned>(::getpid()));
  auto FailTmp = [&](const std::string &Msg) {
    Fs.remove(TmpPath);
    return fail(Error, Msg);
  };
  std::unique_ptr<support::WritableFile> Os =
      Fs.openWrite(TmpPath, /*Append=*/false);
  if (!Os)
    return fail(Error, "cannot write '" + TmpPath + "'");
  if (!support::writeAll(*Os, Image))
    return FailTmp("I/O error writing '" + TmpPath + "'");
  if (!Os->sync())
    return FailTmp("cannot fsync '" + TmpPath + "'");
  if (!Os->close())
    return FailTmp("cannot close '" + TmpPath + "'");
  if (!Fs.rename(TmpPath, Path))
    return FailTmp("cannot rename '" + TmpPath + "' over '" + Path + "'");
  // Make the rename itself durable. The store is already atomically in
  // place at this point, so a failure here (exotic filesystems refusing
  // directory fsync) downgrades durability but must not fail the save or
  // touch the now-live file.
  (void)Fs.syncDirectory(support::parentDirOf(Path));
  return true;
}

bool TriageStore::save(const std::string &Path, std::string *Error) const {
  return save(support::FileSystem::real(), Path, Error);
}

bool TriageStore::deserialize(const std::string &Image, std::string *Error) {
  ByteReader Rd(Image);
  if (!Rd.getMagic(Magic))
    return fail(Error, "not a triage store (bad magic)");
  uint32_t Fmt = 0;
  uint64_t Sum = 0;
  if (!Rd.getU32(Fmt) || !Rd.getU64(Sum))
    return fail(Error, "truncated header");
  if (Fmt != FormatVersion)
    return fail(Error, "unsupported store format version " +
                           std::to_string(Fmt) + " (this build reads version " +
                           std::to_string(FormatVersion) +
                           "); regenerate the store");

  // Verify the payload checksum before believing one byte of it: a chopped
  // file or a flipped bit anywhere past the header fails here instead of
  // parsing into garbage.
  if (fnv1a(Rd.rest()) != Sum)
    return fail(Error,
                "payload checksum mismatch (truncated or corrupted store)");

  uint32_t SigVer = 0, Runs = 0;
  uint64_t Count = 0;
  if (!Rd.getU32(SigVer) || !Rd.getU32(Runs))
    return fail(Error, "truncated header");
  if (SigVer != RaceSignature::Version)
    return fail(Error, "race-signature version mismatch; regenerate the store");
  if (!Rd.getCount(Count, RecordBytes))
    return fail(Error, "truncated store (record count exceeds the bytes "
                       "left)");
  std::vector<Record> Loaded;
  std::unordered_map<uint64_t, size_t> NewIndex;
  Loaded.reserve(Count);
  for (uint64_t I = 0; I < Count; ++I) {
    Record R;
    uint8_t Flag = 0, Status = 0;
    if (!Rd.getU64(R.Signature) || !Rd.getU64(R.Hits) ||
        !Rd.getU32(R.Runs) || !Rd.getU32(R.FirstSeenRun) ||
        !Rd.getU32(R.LastSeenRun) || !Rd.getByte(Flag) ||
        !Rd.getByte(Status) || !readExemplar(Rd, R.Exemplar))
      return fail(Error, "truncated record");
    if (R.Exemplar.Kind > OpKind::AcquireLoad)
      return fail(Error, "corrupt record (bad op kind)");
    if (Status > static_cast<uint8_t>(RaceStatus::Suppressed))
      return fail(Error, "corrupt record (bad status)");
    R.Suppressed = Flag != 0;
    R.LastStatus = static_cast<RaceStatus>(Status);
    // Structural invariants every mergeRun-produced record satisfies.
    if (R.Runs == 0) {
      // Only a pre-suppression placeholder has no sighting history.
      if (!R.Suppressed || R.Hits != 0 || R.FirstSeenRun != 0 ||
          R.LastSeenRun != 0)
        return fail(Error, "corrupt record (history on an unseen signature)");
    } else {
      if (R.FirstSeenRun == 0 || R.FirstSeenRun > R.LastSeenRun ||
          R.LastSeenRun > Runs)
        return fail(Error, "corrupt record (sighting runs out of range)");
      if (R.Runs > R.LastSeenRun - R.FirstSeenRun + 1 || R.Hits < R.Runs)
        return fail(Error, "corrupt record (inconsistent sighting counts)");
    }
    if (!NewIndex.emplace(R.Signature, Loaded.size()).second)
      return fail(Error, "corrupt store (duplicate signature)");
    Loaded.push_back(R);
  }
  if (!Rd.exhausted())
    return fail(Error, "trailing garbage after the last record");
  RunCounter = Runs;
  Records = std::move(Loaded);
  Index = std::move(NewIndex);
  return true;
}

bool TriageStore::load(support::FileSystem &Fs, const std::string &Path,
                       std::string *Error) {
  std::string Image;
  std::string Err;
  if (!Fs.readFile(Path, Image, Error))
    return false;
  if (!deserialize(Image, &Err))
    return fail(Error, "'" + Path + "': " + Err);
  return true;
}

bool TriageStore::load(const std::string &Path, std::string *Error) {
  return load(support::FileSystem::real(), Path, Error);
}

bool TriageStore::loadIfExists(support::FileSystem &Fs,
                               const std::string &Path, std::string *Error) {
  if (!Fs.exists(Path)) {
    RunCounter = 0;
    Records.clear();
    Index.clear();
    return true; // Fresh store.
  }
  return load(Fs, Path, Error);
}

bool TriageStore::loadIfExists(const std::string &Path, std::string *Error) {
  return loadIfExists(support::FileSystem::real(), Path, Error);
}
