//===- tests/TriageLogTest.cpp - Log-structured store tests ----------------==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
// The TriageLog directory format against an in-memory fault-injection
// filesystem: fresh creation, O(run) appends and byte-exact replay on
// reopen, legacy single-file migration, torn-tail truncation, the
// chop-every-prefix / flip-every-byte corruption sweeps over the journal,
// compaction (inline and three-phase, with concurrent appends carried
// across the generation swap), and append-failure poisoning. The
// crash-schedule sweeps (a fault at *every* operation index) live in
// CrashRecoveryTest. The golden-bytes case pins every warehouse encoder
// (STSG summary, STWF frame, STTS store image, STTJ journal) to fixed
// byte strings, so an encoder and decoder changed in step cannot slip a
// format change past the round-trip cases.
//
//===----------------------------------------------------------------------===//

#include "sampletrack/support/FaultInjectionFs.h"
#include "sampletrack/triage/RaceSink.h"
#include "sampletrack/triage/TriageLog.h"
#include "sampletrack/triage/TriageStore.h"
#include "sampletrack/triaged/Wire.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace sampletrack;
using namespace sampletrack::triage;
using support::FaultInjectionFs;

namespace {

/// A deduplicated one-run summary with the given per-var hit counts.
TriageSummary runWith(
    std::initializer_list<std::pair<VarId, uint64_t>> VarHits) {
  RaceSink Sink;
  uint64_t Pos = 0;
  for (auto [Var, N] : VarHits)
    for (uint64_t I = 0; I < N; ++I)
      Sink.insert(RaceReport{Pos++, 1, Var, OpKind::Write});
  return Sink.summary();
}

/// A deterministic R-run ingest sequence with cross-run overlap (shared
/// var 7) so classification varies: New on first sight, Known while
/// consecutive, Regressed after a gap.
std::vector<TriageSummary> ingestSequence(size_t R) {
  std::vector<TriageSummary> Runs;
  for (size_t I = 0; I < R; ++I) {
    if (I % 3 == 2)
      Runs.push_back(runWith({{200, 1}})); // Var 7 goes quiet: a gap.
    else
      Runs.push_back(runWith({{static_cast<VarId>(100 + I * 10),
                               static_cast<uint64_t>(I) + 1},
                              {7, 2}}));
  }
  return Runs;
}

TriageLog::Options opts(FaultInjectionFs &Fs) {
  TriageLog::Options O;
  O.Fs = &Fs;
  return O;
}

} // namespace

TEST(TriageLog, FreshOpenCreatesAWellFormedDirectory) {
  FaultInjectionFs Fs;
  TriageLog L;
  std::string Err;
  ASSERT_TRUE(L.open("store", opts(Fs), &Err)) << Err;
  EXPECT_FALSE(L.inMemory());
  EXPECT_FALSE(L.poisoned());
  EXPECT_TRUE(L.recoveryNote().empty());
  EXPECT_EQ(L.generation(), 1u);
  EXPECT_EQ(L.store().runCount(), 0u);
  EXPECT_EQ(L.baseRunsAtOpen(), 0u);

  std::vector<std::string> Expected = {"store/CURRENT", "store/base-1.seg",
                                       "store/journal-1.log"};
  EXPECT_EQ(Fs.allFiles(), Expected);

  // Creation is durable: a power cut right after open loses nothing.
  Fs.powerCut();
  EXPECT_EQ(Fs.allFiles(), Expected);
  TriageLog Back;
  ASSERT_TRUE(Back.open("store", opts(Fs), &Err)) << Err;
  EXPECT_EQ(Back.store().runCount(), 0u);
}

TEST(TriageLog, AppendsMergeAndReopenReplaysByteIdentically) {
  FaultInjectionFs Fs;
  std::vector<TriageSummary> Runs = ingestSequence(6);

  TriageLog L;
  std::string Err;
  ASSERT_TRUE(L.open("store", opts(Fs), &Err)) << Err;

  // Reference: the same summaries merged into a plain store.
  TriageStore Ref;
  for (size_t I = 0; I < Runs.size(); ++I) {
    TriageStore::MergeResult Expected = Ref.mergeRun(Runs[I]);
    TriageStore::MergeResult Got;
    ASSERT_TRUE(L.appendRun(Runs[I], "run-" + std::to_string(I), 1, Got,
                            &Err))
        << "run " << I << ": " << Err;
    EXPECT_EQ(Got.NewSignatures, Expected.NewSignatures) << "run " << I;
    EXPECT_EQ(Got.KnownSignatures, Expected.KnownSignatures) << "run " << I;
    EXPECT_EQ(Got.RegressedSignatures, Expected.RegressedSignatures)
        << "run " << I;
  }
  EXPECT_TRUE(L.store() == Ref);
  EXPECT_GT(L.bytesAppended(), 0u);

  // Reopen (same directory, fresh object): the journal replay must rebuild
  // the identical store and the per-run metadata.
  TriageLog Back;
  ASSERT_TRUE(Back.open("store", opts(Fs), &Err)) << Err;
  EXPECT_TRUE(Back.recoveryNote().empty());
  EXPECT_TRUE(Back.store() == Ref);
  EXPECT_EQ(Back.store().serialize(), Ref.serialize());
  ASSERT_EQ(Back.journalRuns().size(), Runs.size());
  for (size_t I = 0; I < Runs.size(); ++I) {
    const TriageLog::RunInfo &Info = Back.journalRuns()[I];
    EXPECT_EQ(Info.Run, I + 1);
    EXPECT_EQ(Info.RunId, "run-" + std::to_string(I));
    EXPECT_EQ(Info.Content, 1);
    EXPECT_EQ(Info.Declared, Runs[I].RacesDeclared);
  }

  // And the replay classification matches the original merges.
  TriageStore Replay;
  for (size_t I = 0; I < Runs.size(); ++I) {
    TriageStore::MergeResult M = Replay.mergeRun(Runs[I]);
    EXPECT_EQ(Back.journalRuns()[I].Merge.NewSignatures, M.NewSignatures);
    EXPECT_EQ(Back.journalRuns()[I].Merge.RegressedSignatures,
              M.RegressedSignatures);
  }
}

TEST(TriageLog, InMemoryModeMergesWithoutAnyIo) {
  TriageLog L;
  EXPECT_TRUE(L.inMemory());
  TriageStore::MergeResult M;
  std::string Err;
  ASSERT_TRUE(L.appendRun(runWith({{10, 2}}), "id-1", 0, M, &Err)) << Err;
  EXPECT_EQ(M.NewSignatures, 1u);
  EXPECT_EQ(L.store().runCount(), 1u);
  EXPECT_EQ(L.bytesAppended(), 0u);
  EXPECT_FALSE(L.needsCompaction());
}

TEST(TriageLog, LegacySingleFileStoreMigratesInPlace) {
  FaultInjectionFs Fs;
  std::vector<TriageSummary> Runs = ingestSequence(4);
  TriageStore Legacy;
  for (const TriageSummary &S : Runs)
    Legacy.mergeRun(S);
  std::string Err;
  ASSERT_TRUE(Legacy.save(Fs, "store", &Err)) << Err;

  // Opening the file path as a TriageLog migrates: the file becomes the
  // first base segment, the original is kept as store.legacy.
  TriageLog L;
  ASSERT_TRUE(L.open("store", opts(Fs), &Err)) << Err;
  EXPECT_TRUE(L.store() == Legacy);
  EXPECT_EQ(L.baseRunsAtOpen(), Legacy.runCount());
  EXPECT_TRUE(L.journalRuns().empty());
  std::vector<std::string> Files = Fs.allFiles();
  EXPECT_NE(std::find(Files.begin(), Files.end(), "store.legacy"),
            Files.end())
      << "the pre-migration store was not preserved";
  EXPECT_NE(std::find(Files.begin(), Files.end(), "store/CURRENT"),
            Files.end());

  // The migrated store keeps ingesting and surviving reopens.
  TriageStore::MergeResult M;
  ASSERT_TRUE(L.appendRun(runWith({{7, 1}}), "post-migrate", 0, M, &Err))
      << Err;
  TriageLog Back;
  ASSERT_TRUE(Back.open("store", opts(Fs), &Err)) << Err;
  EXPECT_TRUE(Back.store() == L.store());
  EXPECT_EQ(Back.store().runCount(), Legacy.runCount() + 1);
}

TEST(TriageLog, TornTailIsTruncatedAndHealedOnReopen) {
  FaultInjectionFs Fs;
  std::vector<TriageSummary> Runs = ingestSequence(3);
  std::string Err;
  std::string JournalPath;
  {
    TriageLog L;
    ASSERT_TRUE(L.open("store", opts(Fs), &Err)) << Err;
    TriageStore::MergeResult M;
    for (size_t I = 0; I < Runs.size(); ++I)
      ASSERT_TRUE(L.appendRun(Runs[I], {}, 0, M, &Err)) << Err;
    JournalPath = "store/journal-" + std::to_string(L.generation()) + ".log";
  }

  // Chop bytes off the last record: the canonical torn append.
  uint64_t Full = 0;
  ASSERT_TRUE(Fs.fileSize(JournalPath, Full));
  ASSERT_TRUE(Fs.truncate(JournalPath, Full - 3));

  TriageLog Back;
  ASSERT_TRUE(Back.open("store", opts(Fs), &Err)) << Err;
  EXPECT_FALSE(Back.recoveryNote().empty());
  EXPECT_EQ(Back.store().runCount(), 2u) << "torn run not truncated";
  TriageStore Ref;
  Ref.mergeRun(Runs[0]);
  Ref.mergeRun(Runs[1]);
  EXPECT_TRUE(Back.store() == Ref);

  // The truncation healed the file: appends work and the next reopen is
  // clean.
  TriageStore::MergeResult M;
  ASSERT_TRUE(Back.appendRun(Runs[2], {}, 0, M, &Err)) << Err;
  TriageLog Again;
  ASSERT_TRUE(Again.open("store", opts(Fs), &Err)) << Err;
  EXPECT_TRUE(Again.recoveryNote().empty());
  EXPECT_EQ(Again.store().runCount(), 3u);
}

TEST(TriageLog, EveryJournalPrefixRecoversToARunPrefix) {
  // Chop-every-prefix over the journal: any length must either refuse to
  // open (impossible after a real crash — the header is fsynced at
  // creation) or recover to an exact prefix of the runs. Never garbage.
  FaultInjectionFs Fs;
  std::vector<TriageSummary> Runs = ingestSequence(4);
  std::string Err;
  std::string JournalPath = "store/journal-1.log";
  {
    TriageLog L;
    ASSERT_TRUE(L.open("store", opts(Fs), &Err)) << Err;
    TriageStore::MergeResult M;
    for (const TriageSummary &S : Runs)
      ASSERT_TRUE(L.appendRun(S, {}, 0, M, &Err)) << Err;
  }
  std::string FullJournal;
  ASSERT_TRUE(Fs.readFile(JournalPath, FullJournal));

  std::vector<TriageStore> Prefixes(Runs.size() + 1);
  for (size_t I = 0; I < Runs.size(); ++I) {
    Prefixes[I + 1] = Prefixes[I];
    Prefixes[I + 1].mergeRun(Runs[I]);
  }

  for (size_t Len = 0; Len < FullJournal.size(); ++Len) {
    auto F = Fs.openWrite(JournalPath, /*Append=*/false);
    ASSERT_NE(F, nullptr);
    ASSERT_TRUE(support::writeAll(*F, FullJournal.substr(0, Len)));
    F.reset();

    TriageLog L;
    if (!L.open("store", opts(Fs), &Err))
      continue; // A chopped header refuses loudly: acceptable.
    uint32_t Count = L.store().runCount();
    ASSERT_LE(Count, Runs.size()) << "prefix of " << Len << " bytes";
    EXPECT_TRUE(L.store() == Prefixes[Count])
        << "prefix of " << Len << " bytes recovered to a non-prefix store";
  }
}

TEST(TriageLog, EveryJournalByteFlipIsRejectedOrTruncatesToAPrefix) {
  // Flip-every-byte over the whole journal. A flip is either *detected* —
  // open fails (checksum, structural invariant) — or indistinguishable
  // from a torn append (a corrupted final length prefix), in which case
  // recovery must fall back to an exact run prefix. What it may never do
  // is serve silently wrong data.
  FaultInjectionFs Fs;
  std::vector<TriageSummary> Runs = ingestSequence(3);
  std::string Err;
  std::string JournalPath = "store/journal-1.log";
  {
    TriageLog L;
    ASSERT_TRUE(L.open("store", opts(Fs), &Err)) << Err;
    TriageStore::MergeResult M;
    for (const TriageSummary &S : Runs)
      ASSERT_TRUE(L.appendRun(S, {}, 0, M, &Err)) << Err;
  }
  std::string FullJournal;
  ASSERT_TRUE(Fs.readFile(JournalPath, FullJournal));

  std::vector<TriageStore> Prefixes(Runs.size() + 1);
  for (size_t I = 0; I < Runs.size(); ++I) {
    Prefixes[I + 1] = Prefixes[I];
    Prefixes[I + 1].mergeRun(Runs[I]);
  }

  size_t Rejected = 0;
  for (size_t I = 0; I < FullJournal.size(); ++I) {
    std::string Corrupt = FullJournal;
    Corrupt[I] ^= 0x01;
    auto F = Fs.openWrite(JournalPath, /*Append=*/false);
    ASSERT_NE(F, nullptr);
    ASSERT_TRUE(support::writeAll(*F, Corrupt));

    TriageLog L;
    if (!L.open("store", opts(Fs), &Err)) {
      ++Rejected;
      continue;
    }
    uint32_t Count = L.store().runCount();
    ASSERT_LT(Count, Runs.size())
        << "flip at byte " << I << " went completely unnoticed";
    EXPECT_TRUE(L.store() == Prefixes[Count])
        << "flip at byte " << I << " recovered to a non-prefix store";
  }
  EXPECT_GT(Rejected, 0u) << "no flip was ever detected as corruption";
}

TEST(TriageLog, CompactionFoldsTheJournalIntoANewGeneration) {
  FaultInjectionFs Fs;
  std::vector<TriageSummary> Runs = ingestSequence(5);
  TriageLog::Options O = opts(Fs);
  O.CompactionRatio = 0.25;
  O.MinCompactionBytes = 1;

  TriageLog L;
  std::string Err;
  ASSERT_TRUE(L.open("store", O, &Err)) << Err;
  TriageStore::MergeResult M;
  for (const TriageSummary &S : Runs)
    ASSERT_TRUE(L.appendRun(S, {}, 0, M, &Err)) << Err;
  EXPECT_TRUE(L.needsCompaction());
  TriageStore Before = L.store();

  ASSERT_TRUE(L.compact(&Err)) << Err;
  EXPECT_EQ(L.generation(), 2u);
  EXPECT_TRUE(L.store() == Before) << "compaction changed the warehouse";
  EXPECT_TRUE(L.journalRuns().empty());
  EXPECT_EQ(L.compactions(), 1u);
  EXPECT_GT(L.bytesCompacted(), 0u);
  EXPECT_FALSE(L.needsCompaction()) << "a fresh journal retriggered";

  // The old generation's files are gone; the new one is complete.
  std::vector<std::string> Expected = {"store/CURRENT", "store/base-2.seg",
                                       "store/journal-2.log"};
  EXPECT_EQ(Fs.allFiles(), Expected);

  // The swap is durable and the compacted store replays identically.
  Fs.powerCut();
  TriageLog Back;
  ASSERT_TRUE(Back.open("store", O, &Err)) << Err;
  EXPECT_EQ(Back.generation(), 2u);
  EXPECT_TRUE(Back.store() == Before);
  EXPECT_EQ(Back.baseRunsAtOpen(), Before.runCount());

  // Ingest continues on the new generation.
  ASSERT_TRUE(Back.appendRun(runWith({{7, 1}}), {}, 0, M, &Err)) << Err;
  EXPECT_EQ(Back.store().runCount(), Before.runCount() + 1);
}

TEST(TriageLog, ThreePhaseCompactionCarriesConcurrentAppends) {
  FaultInjectionFs Fs;
  std::vector<TriageSummary> Runs = ingestSequence(6);
  TriageLog L;
  std::string Err;
  ASSERT_TRUE(L.open("store", opts(Fs), &Err)) << Err;
  TriageStore::MergeResult M;
  for (size_t I = 0; I < 4; ++I)
    ASSERT_TRUE(L.appendRun(Runs[I], "pre-" + std::to_string(I), 0, M,
                            &Err))
        << Err;

  // begin snapshots runs 1-4; two more land while prepare writes the new
  // base (the off-critical-path window the server uses).
  TriageLog::CompactionPlan P;
  ASSERT_TRUE(L.beginCompaction(P));
  ASSERT_TRUE(L.appendRun(Runs[4], "during-1", 0, M, &Err)) << Err;
  ASSERT_TRUE(L.prepareCompaction(P, &Err)) << Err;
  ASSERT_TRUE(L.appendRun(Runs[5], "during-2", 0, M, &Err)) << Err;
  ASSERT_TRUE(L.commitCompaction(P, &Err)) << Err;

  // The two concurrent appends survived the generation swap, still
  // individually replayable.
  EXPECT_EQ(L.generation(), 2u);
  ASSERT_EQ(L.journalRuns().size(), 2u);
  EXPECT_EQ(L.journalRuns()[0].RunId, "during-1");
  EXPECT_EQ(L.journalRuns()[1].RunId, "during-2");

  TriageStore Ref;
  for (const TriageSummary &S : Runs)
    Ref.mergeRun(S);
  EXPECT_TRUE(L.store() == Ref);

  TriageLog Back;
  ASSERT_TRUE(Back.open("store", opts(Fs), &Err)) << Err;
  EXPECT_TRUE(Back.store() == Ref);
  EXPECT_EQ(Back.baseRunsAtOpen(), 4u);
  ASSERT_EQ(Back.journalRuns().size(), 2u);
  EXPECT_EQ(Back.journalRuns()[0].RunId, "during-1");
}

TEST(TriageLog, AppendFailurePoisonsUntilReopenHeals) {
  FaultInjectionFs Fs;
  TriageLog L;
  std::string Err;
  ASSERT_TRUE(L.open("store", opts(Fs), &Err)) << Err;
  TriageStore::MergeResult M;
  ASSERT_TRUE(L.appendRun(runWith({{10, 1}}), "ok-1", 0, M, &Err)) << Err;

  // The next fallible operation dies (transiently — the *filesystem*
  // recovers, but the log must not trust its own tail anymore).
  FaultInjectionFs::FaultConfig C;
  C.FailAtOp = Fs.opCount() + 1;
  C.StayDown = false;
  C.TornWriteBytes = 5; // The failed append leaves a torn record behind.
  Fs.setFaults(C);
  EXPECT_FALSE(L.appendRun(runWith({{20, 1}}), "lost", 0, M, &Err));
  EXPECT_TRUE(L.poisoned());
  EXPECT_EQ(L.store().runCount(), 1u) << "failed append reached the store";

  // Poisoned means poisoned: even with the disk healthy again, appends
  // are refused until a reopen truncates the torn tail.
  Fs.clearFaults();
  EXPECT_FALSE(L.appendRun(runWith({{30, 1}}), "refused", 0, M, &Err));

  TriageLog Back;
  ASSERT_TRUE(Back.open("store", opts(Fs), &Err)) << Err;
  EXPECT_FALSE(Back.recoveryNote().empty()) << "torn record not healed";
  EXPECT_EQ(Back.store().runCount(), 1u);
  ASSERT_TRUE(Back.appendRun(runWith({{30, 1}}), "ok-2", 0, M, &Err))
      << Err;
  EXPECT_EQ(Back.store().runCount(), 2u);
}

TEST(TriageLog, OversizedRunIdIsRejectedWithoutPoisoning) {
  FaultInjectionFs Fs;
  TriageLog L;
  std::string Err;
  ASSERT_TRUE(L.open("store", opts(Fs), &Err)) << Err;
  TriageStore::MergeResult M;
  EXPECT_FALSE(L.appendRun(runWith({{10, 1}}), std::string(300, 'x'), 0, M,
                           &Err));
  EXPECT_FALSE(L.poisoned()) << "validation failure must not poison";
  ASSERT_TRUE(L.appendRun(runWith({{10, 1}}), std::string(256, 'x'), 0, M,
                          &Err))
      << Err;
  EXPECT_EQ(L.store().runCount(), 1u);
}

TEST(TriageLog, MidLogCorruptionOfTheBaseSegmentFailsOpen) {
  FaultInjectionFs Fs;
  TriageLog L;
  std::string Err;
  ASSERT_TRUE(L.open("store", opts(Fs), &Err)) << Err;
  TriageStore::MergeResult M;
  ASSERT_TRUE(L.appendRun(runWith({{10, 3}}), {}, 0, M, &Err)) << Err;
  ASSERT_TRUE(L.compact(&Err)) << Err; // Put real data into the base.

  std::string Base;
  ASSERT_TRUE(Fs.readFile("store/base-2.seg", Base));
  Base[Base.size() / 2] ^= 0x40;
  auto F = Fs.openWrite("store/base-2.seg", /*Append=*/false);
  ASSERT_NE(F, nullptr);
  ASSERT_TRUE(support::writeAll(*F, Base));

  TriageLog Back;
  EXPECT_FALSE(Back.open("store", opts(Fs), &Err))
      << "a corrupt base segment must fail open, not serve garbage";
  EXPECT_FALSE(Err.empty());
}

//===----------------------------------------------------------------------===//
// Golden bytes
//===----------------------------------------------------------------------===//

namespace {

std::string toHex(std::string_view Bytes) {
  static constexpr char Digits[] = "0123456789abcdef";
  std::string Out;
  for (char C : Bytes) {
    Out += Digits[static_cast<unsigned char>(C) >> 4];
    Out += Digits[static_cast<unsigned char>(C) & 0xf];
  }
  return Out;
}

std::string fromHex(std::string_view Hex) {
  std::string Out;
  for (size_t I = 0; I + 1 < Hex.size(); I += 2)
    Out.push_back(static_cast<char>(
        std::stoi(std::string(Hex.substr(I, 2)), nullptr, 16)));
  return Out;
}

/// Two entries with distinct exemplar fields in every slot, and a capped
/// run (dropped declarations) so the flag and both counters are nonzero.
TriageSummary goldenSummary() {
  TriageSummary S;
  S.Entries.push_back(TriageEntry{0x1122334455667788ULL, 3,
                                  RaceReport{5, 1, 42, OpKind::Write}});
  S.Entries.push_back(TriageEntry{0x99aabbccddeeff00ULL, 1,
                                  RaceReport{9, 2, 7, OpKind::Read}});
  S.RacesDeclared = 6;
  S.DroppedDeclarations = 2;
  S.Capped = true;
  return S;
}

// The four formats' bytes for goldenSummary(). A change here is a format
// break and must bump that format's version.
constexpr const char *GoldenSummaryHex =
    "5354534701000000960912b124b13d0e01000000060000000000000002000000"
    "0000000001020000000000000088776655443322110300000000000000050000"
    "0000000000010000002a000000000000000100ffeeddccbbaa99010000000000"
    "0000090000000000000002000000070000000000000000";
constexpr const char *GoldenFrameHex =
    "5354574601000000017700000000000000d6bcd3e27abe5cf253545347010000"
    "00960912b124b13d0e0100000006000000000000000200000000000000010200"
    "0000000000008877665544332211030000000000000005000000000000000100"
    "00002a000000000000000100ffeeddccbbaa9901000000000000000900000000"
    "00000002000000070000000000000000";
constexpr const char *GoldenStoreHex =
    "53545453020000003672645177eccbd101000000010000000200000000000000"
    "8877665544332211030000000000000001000000010000000100000000000500"
    "000000000000010000002a000000000000000100ffeeddccbbaa990100000000"
    "0000000100000001000000010000000000090000000000000002000000070000"
    "000000000000";
constexpr const char *GoldenJournalHex =
    "5354544a01000000e42b42c2392d245f0100000000000000000000006f000000"
    "d95eae853eb220620100000001050072756e2d31060000000000000002000000"
    "0000000001020000000000000088776655443322110300000000000000050000"
    "0000000000010000002a000000000000000100ffeeddccbbaa99010000000000"
    "0000090000000000000002000000070000000000000000";

} // namespace

TEST(WarehouseFormats, GoldenBytesPinEveryEncoder) {
  const TriageSummary S = goldenSummary();

  // STSG summary and the STWF frame around it.
  const std::string Summary = triaged::encodeSummary(S);
  EXPECT_EQ(toHex(Summary), GoldenSummaryHex);
  EXPECT_EQ(toHex(triaged::frame(triaged::WireContent::SignatureSummary,
                                 Summary)),
            GoldenFrameHex);

  // STTS store image after merging the summary as run 1.
  TriageStore Store;
  Store.mergeRun(S);
  EXPECT_EQ(toHex(Store.serialize()), GoldenStoreHex);

  // STTJ journal: the 28-byte header, then one record for run 1.
  FaultInjectionFs Fs;
  std::string Err;
  {
    TriageLog L;
    ASSERT_TRUE(L.open("store", opts(Fs), &Err)) << Err;
    TriageStore::MergeResult M;
    ASSERT_TRUE(L.appendRun(S, "run-1", 1, M, &Err)) << Err;
  }
  std::string Journal;
  ASSERT_TRUE(Fs.readFile("store/journal-1.log", Journal));
  EXPECT_EQ(toHex(Journal), GoldenJournalHex);

  // And every decoder reads the golden bytes back to the same content.
  TriageSummary Back;
  ASSERT_TRUE(triaged::decodeSummary(fromHex(GoldenSummaryHex), Back, &Err))
      << Err;
  EXPECT_TRUE(Back == S);
  const std::string FrameBytes = fromHex(GoldenFrameHex);
  triaged::WireFrame Frame;
  ASSERT_TRUE(triaged::parseFrame(FrameBytes, Frame, &Err)) << Err;
  EXPECT_EQ(Frame.Content, triaged::WireContent::SignatureSummary);
  EXPECT_EQ(Frame.Payload, Summary);
  TriageStore StoreBack;
  ASSERT_TRUE(StoreBack.deserialize(fromHex(GoldenStoreHex), &Err)) << Err;
  EXPECT_TRUE(StoreBack == Store);
  TriageLog Reopened;
  ASSERT_TRUE(Reopened.open("store", opts(Fs), &Err)) << Err;
  EXPECT_TRUE(Reopened.store() == Store);
  ASSERT_EQ(Reopened.journalRuns().size(), 1u);
  EXPECT_EQ(Reopened.journalRuns()[0].RunId, "run-1");
}
