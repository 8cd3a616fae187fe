//===- triage/TriageLog.cpp - Log-structured store --------------------------=//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/triage/TriageLog.h"

#include "sampletrack/support/ByteCodec.h"
#include "sampletrack/triage/RaceSignature.h"

#include <algorithm>

using namespace sampletrack;
using namespace sampletrack::support;
using namespace sampletrack::triage;

//===----------------------------------------------------------------------===//
// Journal framing ("STTJ"), in the warehouse's one byte codec
// (support/ByteCodec.h). The payload's tail is the summary body
// (triage::appendSummaryBody) an STSG upload carries, byte for byte.
//
//   header := "STTJ" u32(version=1) u64 fnv1a(tail)
//             tail := u32 sigVersion  u64 baseRuns
//   record := u32 len  u64 fnv1a(payload)  payload[len]
//   payload:= u32 runIndex  u8 content  u16 runIdLen  runId
//             u64 declared  u64 dropped  u8 capped  u64 count
//             count * { u64 sig  u64 hits
//                       u64 exemplarEvent u32 exemplarTid
//                       u64 exemplarVar  u8 exemplarKind }
//
// `runIndex` is the store run counter the record advances the store *to*;
// records must be contiguous from baseRuns+1. The 12-byte record preamble
// is the torn-tail detector: a final record with fewer bytes than `len`
// promises is the crash window and gets truncated; any complete record
// failing its checksum or structure is corruption and rejects the open.
//===----------------------------------------------------------------------===//

namespace {

constexpr char JournalMagic[4] = {'S', 'T', 'T', 'J'};
constexpr uint32_t JournalVersion = 1;
constexpr size_t JournalHeaderSize = 28;
constexpr size_t RecordPreambleSize = 12; // u32 len + u64 checksum
constexpr size_t MaxRunIdBytes = 256;

std::string journalHeader(uint64_t BaseRuns) {
  std::string Tail;
  putU32(Tail, RaceSignature::Version);
  putU64(Tail, BaseRuns);
  std::string Out;
  Out.reserve(JournalHeaderSize);
  Out.append(JournalMagic, 4);
  putU32(Out, JournalVersion);
  putU64(Out, fnv1a(Tail));
  Out += Tail;
  return Out;
}

std::string encodeRecord(uint32_t RunIndex, uint8_t Content,
                         const std::string &RunId, const TriageSummary &S) {
  std::string Payload;
  Payload.reserve(32 + RunId.size() + S.Entries.size() * SummaryEntryBytes);
  putU32(Payload, RunIndex);
  Payload.push_back(static_cast<char>(Content));
  putU16(Payload, static_cast<uint16_t>(RunId.size()));
  Payload += RunId;
  appendSummaryBody(Payload, S);
  std::string Out;
  Out.reserve(RecordPreambleSize + Payload.size());
  putU32(Out, static_cast<uint32_t>(Payload.size()));
  putU64(Out, fnv1a(Payload));
  Out += Payload;
  return Out;
}

/// Parses one verified record payload back into (RunInfo-sans-Merge,
/// TriageSummary). The summary body gets readSummaryBody's checks, the
/// same an upload gets: the journal stores exactly what was merged, so
/// corruption must not deserialize into a mergeable summary.
bool decodeRecordPayload(std::string_view Payload, uint32_t ExpectedRun,
                         TriageLog::RunInfo &Info, TriageSummary &S,
                         std::string *Error) {
  ByteReader Rd(Payload);
  uint32_t RunIndex = 0;
  uint8_t Content = 0;
  uint16_t RunIdLen = 0;
  if (!Rd.getU32(RunIndex) || !Rd.getByte(Content) || !Rd.getU16(RunIdLen))
    return fail(Error, "truncated record header");
  if (RunIndex != ExpectedRun)
    return fail(Error, "run index " + std::to_string(RunIndex) +
                           " out of sequence (expected " +
                           std::to_string(ExpectedRun) + ")");
  if (RunIdLen > MaxRunIdBytes)
    return fail(Error, "oversized run id (" + std::to_string(RunIdLen) +
                           " bytes)");
  std::string RunId;
  if (!Rd.getBytes(RunId, RunIdLen))
    return fail(Error, "truncated run id");
  if (!readSummaryBody(Rd, S, Error))
    return false;
  Info.Run = RunIndex;
  Info.RunId = std::move(RunId);
  Info.Content = Content;
  Info.Declared = S.RacesDeclared;
  Info.Dropped = S.DroppedDeclarations;
  Info.Capped = S.Capped;
  Info.Distinct = S.Entries.size();
  return true;
}

/// Writes \p Bytes to \p Path (truncating) and fsyncs it. The name itself
/// becomes durable only at the caller's syncDirectory.
bool writeFileSynced(support::FileSystem &Fs, const std::string &Path,
                     std::string_view Bytes, std::string *Error) {
  std::unique_ptr<support::WritableFile> Os =
      Fs.openWrite(Path, /*Append=*/false);
  if (!Os)
    return fail(Error, "cannot write '" + Path + "'");
  if (!support::writeAll(*Os, Bytes) || !Os->sync() || !Os->close()) {
    Os->close();
    Fs.remove(Path);
    return fail(Error, "I/O error writing '" + Path + "'");
  }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

TriageLog::~TriageLog() {
  if (Journal)
    Journal->close();
}

support::FileSystem &TriageLog::fs() const {
  return Opts.Fs ? *Opts.Fs : support::FileSystem::real();
}

std::string TriageLog::basePath(uint64_t G) const {
  return Dir + "/base-" + std::to_string(G) + ".seg";
}

std::string TriageLog::journalPath(uint64_t G) const {
  return Dir + "/journal-" + std::to_string(G) + ".log";
}

bool TriageLog::open(const std::string &StoreDir, const Options &O,
                     std::string *Error) {
  // Reset so open() on a reused object starts clean.
  if (Journal)
    Journal->close();
  Journal.reset();
  Dir = StoreDir;
  Opts = O;
  Store = TriageStore();
  Runs.clear();
  Gen = 0;
  JournalSize = BaseSize = 0;
  BaseRunsAtOpen = 0;
  Poisoned = false;
  RecoveryNote.clear();

  if (Dir.empty())
    return fail(Error, "empty store directory path");

  support::FileSystem &F = fs();
  if (F.exists(Dir) && !F.isDirectory(Dir)) {
    // A legacy single-file "STTS" store: it becomes the first base segment
    // of a fresh directory.
    if (!migrateLegacyFile(Error))
      return false;
  } else if (!F.exists(Dir)) {
    if (F.isDirectory(Dir + ".migrate")) {
      // Crashed between "legacy file moved aside" and "directory moved
      // into place": the .migrate directory is complete and synced (that
      // ordering is the migration protocol), so finish the swap.
      if (!F.rename(Dir + ".migrate", Dir) ||
          !F.syncDirectory(support::parentDirOf(Dir)))
        return fail(Error, "cannot finish interrupted migration of '" + Dir +
                               "'");
      RecoveryNote = "finished interrupted legacy migration";
    } else {
      if (!initializeFresh(Error))
        return false;
    }
  }
  return openDirectory(O, Error);
}

bool TriageLog::initializeFresh(std::string *Error) {
  support::FileSystem &F = fs();
  // Build a fully-populated directory under a temp name, then rename it
  // into place: "the store directory exists" is then equivalent to "the
  // store directory is completely initialized", and a crash mid-create
  // leaves only a .init leftover that the next open discards here.
  const std::string Tmp = Dir + ".init";
  destroyTree(Tmp);
  if (!F.mkdir(Tmp))
    return fail(Error, "cannot create '" + Tmp + "'");
  TriageStore Empty;
  if (!writeFileSynced(F, Tmp + "/base-1.seg", Empty.serialize(), Error) ||
      !writeFileSynced(F, Tmp + "/journal-1.log", journalHeader(0), Error) ||
      !writeFileSynced(F, Tmp + "/CURRENT", "1\n", Error))
    return false;
  if (!F.syncDirectory(Tmp) || !F.rename(Tmp, Dir) ||
      !F.syncDirectory(support::parentDirOf(Dir)))
    return fail(Error, "cannot commit new store directory '" + Dir + "'");
  return true;
}

bool TriageLog::migrateLegacyFile(std::string *Error) {
  support::FileSystem &F = fs();
  TriageStore Legacy;
  if (!Legacy.load(F, Dir, Error))
    return false;

  // Same create-aside-then-swap shape as initializeFresh, with one extra
  // step: the legacy file must vacate the directory's name first. Order:
  //   1. build <dir>.migrate completely, fsync everything in it
  //   2. rename <dir> -> <dir>.legacy          (point of no return)
  //   3. rename <dir>.migrate -> <dir>
  // A crash after 2 leaves no <dir> but a complete .migrate — open()
  // finishes step 3. The .legacy file is kept as an operator rollback
  // (delete it once the new directory has proven itself).
  const std::string Mig = Dir + ".migrate";
  destroyTree(Mig);
  if (!F.mkdir(Mig))
    return fail(Error, "cannot create '" + Mig + "'");
  if (!writeFileSynced(F, Mig + "/base-1.seg", Legacy.serialize(), Error) ||
      !writeFileSynced(F, Mig + "/journal-1.log",
                       journalHeader(Legacy.runCount()), Error) ||
      !writeFileSynced(F, Mig + "/CURRENT", "1\n", Error))
    return false;
  const std::string Parent = support::parentDirOf(Dir);
  if (!F.syncDirectory(Mig) || !F.rename(Dir, Dir + ".legacy") ||
      !F.syncDirectory(Parent) || !F.rename(Mig, Dir) ||
      !F.syncDirectory(Parent))
    return fail(Error, "cannot commit migration of legacy store '" + Dir +
                           "'");
  RecoveryNote = "migrated legacy single-file store (kept as '" + Dir +
                 ".legacy')";
  return true;
}

bool TriageLog::openDirectory(const Options &, std::string *Error) {
  support::FileSystem &F = fs();

  // CURRENT names the live generation. The directory is only ever created
  // fully populated, so a missing or garbled CURRENT is real corruption.
  std::string Cur;
  if (!F.readFile(Dir + "/CURRENT", Cur, Error))
    return fail(Error, "'" + Dir + "': store directory has no readable "
                                   "CURRENT pointer (corrupt store?)");
  while (!Cur.empty() && (Cur.back() == '\n' || Cur.back() == '\r'))
    Cur.pop_back();
  uint64_t G = 0;
  if (Cur.empty() || Cur.size() > 19)
    return fail(Error, "'" + Dir + "': corrupt CURRENT pointer");
  for (char C : Cur) {
    if (C < '0' || C > '9')
      return fail(Error, "'" + Dir + "': corrupt CURRENT pointer");
    G = G * 10 + static_cast<uint64_t>(C - '0');
  }
  if (G == 0)
    return fail(Error, "'" + Dir + "': corrupt CURRENT pointer");
  Gen = G;

  // Base segment: a complete single-file store image, fully validated.
  if (!Store.load(F, basePath(Gen), Error))
    return false;
  if (!F.fileSize(basePath(Gen), BaseSize))
    return fail(Error, "'" + basePath(Gen) + "': cannot stat base segment");
  BaseRunsAtOpen = Store.runCount();

  // Suppressions apply between the base and the journal — the same point
  // the server applied them at ingest time, so the replayed classification
  // of every journaled run matches the original byte for byte. (The
  // suppression list is operator config, not store state: it reads from
  // the real filesystem even under an injected one.)
  if (!Opts.SuppressionFile.empty() &&
      !Store.loadSuppressionFile(Opts.SuppressionFile, Error))
    return false;

  // Replay the journal.
  std::string Bytes;
  if (!F.readFile(journalPath(Gen), Bytes, Error))
    return false;
  // The journal header is written and fsynced before the generation
  // becomes CURRENT, so a live generation always has a complete header;
  // anything less is corruption, not a tear.
  if (Bytes.size() < JournalHeaderSize)
    return fail(Error, "'" + journalPath(Gen) + "': truncated journal header");
  ByteReader Hd(Bytes);
  uint32_t Ver = 0, SigVer = 0;
  uint64_t Sum = 0, BaseRuns = 0;
  if (!Hd.getMagic(JournalMagic))
    return fail(Error, "'" + journalPath(Gen) +
                           "': not a triage journal (bad magic)");
  if (!Hd.getU32(Ver) || !Hd.getU64(Sum) || !Hd.getU32(SigVer) ||
      !Hd.getU64(BaseRuns))
    return fail(Error, "'" + journalPath(Gen) + "': truncated journal "
                                                "header");
  if (Ver != JournalVersion)
    return fail(Error, "'" + journalPath(Gen) +
                           "': unsupported journal version " +
                           std::to_string(Ver) + " (this build speaks " +
                           std::to_string(JournalVersion) + ")");
  if (fnv1a(std::string_view(Bytes).substr(16, 12)) != Sum)
    return fail(Error, "'" + journalPath(Gen) + "': journal header checksum "
                                                "mismatch");
  if (SigVer != RaceSignature::Version)
    return fail(Error, "'" + journalPath(Gen) +
                           "': race-signature version mismatch (journal has "
                           "v" + std::to_string(SigVer) +
                           ", this build speaks v" +
                           std::to_string(RaceSignature::Version) + ")");
  if (BaseRuns != BaseRunsAtOpen)
    return fail(Error, "'" + journalPath(Gen) + "': journal expects a base "
                                                "of " +
                           std::to_string(BaseRuns) + " runs but '" +
                           basePath(Gen) + "' has " +
                           std::to_string(BaseRunsAtOpen));

  size_t Pos = JournalHeaderSize;
  while (Pos < Bytes.size()) {
    ByteReader Rd(std::string_view(Bytes).substr(Pos));
    uint32_t Len = 0;
    uint64_t RecSum = 0;
    if (!Rd.getU32(Len) || !Rd.getU64(RecSum) || Rd.remaining() < Len) {
      // A record with fewer bytes on disk than its preamble promises can
      // only be the final, interrupted append (fsync-before-ack means
      // everything earlier is complete). Cut it off and continue; the run
      // it would have been was never acknowledged.
      if (!F.truncate(journalPath(Gen), Pos))
        return fail(Error, "'" + journalPath(Gen) +
                               "': cannot truncate torn journal tail");
      RecoveryNote = "truncated torn journal tail (" +
                     std::to_string(Bytes.size() - Pos) + " bytes)";
      Bytes.resize(Pos);
      break;
    }
    std::string_view Payload = Rd.rest().substr(0, Len);
    if (fnv1a(Payload) != RecSum)
      return fail(Error, "'" + journalPath(Gen) + "': journal record at "
                                                  "offset " +
                             std::to_string(Pos) +
                             " checksum mismatch (corrupt journal)");
    RunInfo Info;
    TriageSummary S;
    std::string Err;
    if (!decodeRecordPayload(Payload, Store.runCount() + 1, Info, S, &Err))
      return fail(Error, "'" + journalPath(Gen) + "': corrupt journal "
                                                  "record at offset " +
                             std::to_string(Pos) + ": " + Err);
    Info.Merge = Store.mergeRun(S);
    Runs.push_back(std::move(Info));
    Pos += RecordPreambleSize + Len;
  }
  JournalSize = Bytes.size();

  removeStaleFiles();

  Journal = F.openWrite(journalPath(Gen), /*Append=*/true, Error);
  if (!Journal)
    return fail(Error, "'" + journalPath(Gen) + "': cannot open journal for "
                                                "append");
  return true;
}

void TriageLog::destroyTree(const std::string &D) {
  support::FileSystem &F = fs();
  if (!F.isDirectory(D)) {
    if (F.exists(D))
      F.remove(D);
    return;
  }
  std::vector<std::string> Names;
  if (F.list(D, Names))
    for (const std::string &N : Names) {
      const std::string Child = D + "/" + N;
      if (F.isDirectory(Child))
        destroyTree(Child);
      else
        F.remove(Child);
    }
  F.removeDir(D);
}

void TriageLog::removeStaleFiles() {
  // Leftovers from interrupted compactions or saves (other generations'
  // segments and journals, CURRENT.tmp, *.tmp.<pid>) are dead weight once
  // a generation is open: CURRENT is the only commit point, so anything it
  // does not reference can go. Best-effort — failing to clean is not an
  // open failure.
  support::FileSystem &F = fs();
  std::vector<std::string> Names;
  if (!F.list(Dir, Names))
    return;
  const std::string KeepBase = "base-" + std::to_string(Gen) + ".seg";
  const std::string KeepJournal = "journal-" + std::to_string(Gen) + ".log";
  for (const std::string &N : Names) {
    if (N == "CURRENT" || N == KeepBase || N == KeepJournal)
      continue;
    const std::string Child = Dir + "/" + N;
    if (F.isDirectory(Child))
      destroyTree(Child);
    else
      F.remove(Child);
  }
}

//===----------------------------------------------------------------------===//
// Ingest
//===----------------------------------------------------------------------===//

bool TriageLog::appendRun(const TriageSummary &S, const std::string &RunId,
                          uint8_t Content, TriageStore::MergeResult &Out,
                          std::string *Error) {
  if (RunId.size() > MaxRunIdBytes)
    return fail(Error, "run id exceeds " + std::to_string(MaxRunIdBytes) +
                           " bytes");
  if (inMemory()) {
    RunInfo Info;
    Info.Run = Store.runCount() + 1;
    Info.RunId = RunId;
    Info.Content = Content;
    Info.Declared = S.RacesDeclared;
    Info.Dropped = S.DroppedDeclarations;
    Info.Capped = S.Capped;
    Info.Distinct = S.Entries.size();
    Out = Store.mergeRun(S);
    Info.Merge = Out;
    Runs.push_back(std::move(Info));
    return true;
  }
  if (Poisoned)
    return fail(Error, "store is poisoned by an earlier append failure; "
                       "restart to recover");
  if (!Journal)
    return fail(Error, "store is not open");

  const uint32_t RunIndex = Store.runCount() + 1;
  const std::string Record = encodeRecord(RunIndex, Content, RunId, S);
  // fsync-before-ack: the record must be durable before the merge becomes
  // visible (and before the caller acknowledges the upload). If either
  // step fails, a torn record may sit on disk — poison the log so no
  // further append writes after it; a reopen truncates the tear.
  if (!support::writeAll(*Journal, Record) || !Journal->sync()) {
    Poisoned = true;
    return fail(Error, "I/O error appending to '" + journalPath(Gen) +
                           "' (store poisoned until reopen)");
  }
  JournalSize += Record.size();
  BytesAppended += Record.size();

  RunInfo Info;
  Info.Run = RunIndex;
  Info.RunId = RunId;
  Info.Content = Content;
  Info.Declared = S.RacesDeclared;
  Info.Dropped = S.DroppedDeclarations;
  Info.Capped = S.Capped;
  Info.Distinct = S.Entries.size();
  Out = Store.mergeRun(S);
  Info.Merge = Out;
  Runs.push_back(std::move(Info));
  return true;
}

//===----------------------------------------------------------------------===//
// Compaction
//===----------------------------------------------------------------------===//

bool TriageLog::needsCompaction() const {
  if (inMemory() || Poisoned)
    return false;
  const uint64_t LiveJournal =
      JournalSize > JournalHeaderSize ? JournalSize - JournalHeaderSize : 0;
  return LiveJournal >= Opts.MinCompactionBytes &&
         static_cast<double>(LiveJournal) >
             Opts.CompactionRatio * static_cast<double>(BaseSize);
}

bool TriageLog::beginCompaction(CompactionPlan &P) {
  if (inMemory() || Poisoned || !Journal)
    return false;
  P.Snapshot = Store;
  P.JournalOffset = JournalSize;
  P.Generation = Gen;
  P.Prepared = false;
  return true;
}

bool TriageLog::prepareCompaction(CompactionPlan &P, std::string *Error) {
  // Writes only generation G+1 files; appends keep landing in journal-G,
  // so this O(store) step is safe without the caller's writer lock.
  if (!P.Snapshot.save(fs(), basePath(P.Generation + 1), Error))
    return false;
  P.Prepared = true;
  return true;
}

bool TriageLog::commitCompaction(CompactionPlan &P, std::string *Error) {
  if (!P.Prepared)
    return fail(Error, "compaction plan was not prepared");
  if (P.Generation != Gen || Poisoned)
    return fail(Error, "compaction plan is stale");

  support::FileSystem &F = fs();
  const uint64_t NewGen = P.Generation + 1;

  // Records appended while the plan was being prepared carry over into the
  // new generation's journal verbatim (their run indices already continue
  // from the snapshot's run count).
  std::string Old;
  if (!F.readFile(journalPath(Gen), Old, Error))
    return false;
  if (Old.size() < P.JournalOffset)
    return fail(Error, "journal shrank during compaction");
  std::string NewJournal = journalHeader(P.Snapshot.runCount());
  NewJournal.append(Old, P.JournalOffset, std::string::npos);
  if (!writeFileSynced(F, journalPath(NewGen), NewJournal, Error))
    return false;
  // Make both new files' names durable before CURRENT can point at them.
  if (!F.syncDirectory(Dir))
    return fail(Error, "cannot sync '" + Dir + "'");

  // The commit point: CURRENT flips via the temp+fsync+rename dance. Until
  // the directory sync lands, a crash recovers the old generation; after
  // it, the new one. Never a mix.
  if (!writeFileSynced(F, Dir + "/CURRENT.tmp",
                       std::to_string(NewGen) + "\n", Error) ||
      !F.rename(Dir + "/CURRENT.tmp", Dir + "/CURRENT") ||
      !F.syncDirectory(Dir))
    return fail(Error, "cannot commit CURRENT pointer in '" + Dir + "'");

  Gen = NewGen;
  JournalSize = NewJournal.size();
  if (!F.fileSize(basePath(Gen), BaseSize))
    BaseSize = P.Snapshot.serialize().size();
  BytesCompacted += BaseSize + NewJournal.size();
  ++Compactions;
  // Runs folded into the new base no longer replay individually.
  const uint32_t Sealed = P.Snapshot.runCount();
  Runs.erase(std::remove_if(Runs.begin(), Runs.end(),
                            [&](const RunInfo &R) { return R.Run <= Sealed; }),
             Runs.end());

  // Re-point the append handle at the new journal. Failure here poisons:
  // the commit is durable, but we cannot append to the dead generation.
  if (Journal)
    Journal->close();
  Journal = F.openWrite(journalPath(Gen), /*Append=*/true);
  if (!Journal) {
    Poisoned = true;
    return fail(Error, "compaction committed but cannot reopen '" +
                           journalPath(Gen) + "' (store poisoned until "
                                              "reopen)");
  }

  // Old generation: dead weight now, gone best-effort.
  F.remove(basePath(P.Generation));
  F.remove(journalPath(P.Generation));
  return true;
}

bool TriageLog::compact(std::string *Error) {
  CompactionPlan P;
  if (!beginCompaction(P))
    return fail(Error, "store is in-memory, poisoned, or not open");
  if (!prepareCompaction(P, Error))
    return false;
  return commitCompaction(P, Error);
}
