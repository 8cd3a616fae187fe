//===- tests/TriageTest.cpp - Race warehouse subsystem tests ---------------==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
// The triage subsystem end to end: signature stability (golden values —
// changing them is a persisted-format break), sink dedup/capacity/merge
// semantics, the allocation-free warm hot path, store round-trips,
// suppression, new/known/regressed classification, the exporters, and the
// api::runTriage workflow driven by SessionConfig knobs.
//
//===----------------------------------------------------------------------===//

#include "sampletrack/api/AnalysisSession.h"
#include "sampletrack/api/Report.h"
#include "sampletrack/runtime/Runtime.h"
#include "sampletrack/support/FaultInjectionFs.h"
#include "sampletrack/trace/TraceGen.h"
#include "sampletrack/triage/Exporters.h"
#include "sampletrack/triage/TriageLog.h"
#include "sampletrack/triage/TriageStore.h"
#include "sampletrack/triaged/Wire.h"

#include "AllocCounter.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <unistd.h>

using namespace sampletrack;
using namespace sampletrack::triage;

namespace {

RaceReport report(uint64_t Event, ThreadId Tid, VarId Var, OpKind K) {
  return RaceReport{Event, Tid, Var, K};
}

/// A temp-file path unique to this test binary run.
std::string tmpPath(const char *Name) {
  return std::string("/tmp/sampletrack_triagetest_") + Name + "_" +
         std::to_string(::getpid());
}

} // namespace

//===----------------------------------------------------------------------===//
// RaceSignature
//===----------------------------------------------------------------------===//

TEST(RaceSignature, GoldenValuesPinThePersistedFormat) {
  // These exact values are written into stores and suppression files; a
  // change here is a format break and must bump RaceSignature::Version.
  EXPECT_EQ(RaceSignature::of(/*Var=*/0, OpKind::Read, /*Tid=*/0).Value,
            0xa55bdf37c08724b5ULL);
  EXPECT_EQ(RaceSignature::of(/*Var=*/0, OpKind::Write, /*Tid=*/0).Value,
            0x549d43472c0c8480ULL);
  EXPECT_EQ(RaceSignature::of(/*Var=*/7, OpKind::Write, /*Tid=*/1).Value,
            0x629a1338e77c71d2ULL);
  EXPECT_EQ(RaceSignature::of(/*Var=*/123456789, OpKind::Read, /*Tid=*/3)
                .Value,
            0x808fe172cea267e1ULL);
}

TEST(RaceSignature, NormalizesThreadRoleNotThreadId) {
  // Two workers tripping the same racy pair dedup; main-vs-worker stays
  // distinct; position never matters.
  RaceSignature W1 = RaceSignature::of(report(10, 1, 42, OpKind::Write));
  RaceSignature W2 = RaceSignature::of(report(99999, 7, 42, OpKind::Write));
  RaceSignature Main = RaceSignature::of(report(10, 0, 42, OpKind::Write));
  EXPECT_EQ(W1, W2);
  EXPECT_FALSE(W1 == Main);

  // Distinct locations and distinct op kinds stay distinct.
  EXPECT_FALSE(W1 == RaceSignature::of(report(10, 1, 43, OpKind::Write)));
  EXPECT_FALSE(W1 == RaceSignature::of(report(10, 1, 42, OpKind::Read)));
}

TEST(RaceSignature, HexRoundTrips) {
  RaceSignature S = RaceSignature::of(7, OpKind::Write, 1);
  std::optional<RaceSignature> Back = RaceSignature::parseHex(S.hex());
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->Value, S.Value);
  EXPECT_EQ(RaceSignature::parseHex("0x" + S.hex())->Value, S.Value);
  EXPECT_FALSE(RaceSignature::parseHex("").has_value());
  EXPECT_FALSE(RaceSignature::parseHex("xyz").has_value());
  EXPECT_FALSE(RaceSignature::parseHex("123456789012345678").has_value());
}

//===----------------------------------------------------------------------===//
// RaceSink
//===----------------------------------------------------------------------===//

TEST(RaceSink, DedupsBySignatureKeepingFirstExemplar) {
  RaceSink Sink;
  EXPECT_TRUE(Sink.insert(report(5, 1, 42, OpKind::Write)));
  EXPECT_FALSE(Sink.insert(report(9, 2, 42, OpKind::Write))); // Same sig.
  EXPECT_TRUE(Sink.insert(report(11, 1, 43, OpKind::Write)));
  EXPECT_FALSE(Sink.insert(report(20, 3, 42, OpKind::Write)));

  EXPECT_EQ(Sink.distinct(), 2u);
  EXPECT_EQ(Sink.totalDeclared(), 4u);
  EXPECT_FALSE(Sink.capped());
  ASSERT_EQ(Sink.exemplars().size(), 2u);
  // First occurrence wins, in first-seen order.
  EXPECT_EQ(Sink.exemplars()[0], report(5, 1, 42, OpKind::Write));
  EXPECT_EQ(Sink.exemplars()[1], report(11, 1, 43, OpKind::Write));
  EXPECT_EQ(Sink.hitsAt(0), 3u);
  EXPECT_EQ(Sink.hitsAt(1), 1u);
  uint64_t Sig = RaceSignature::of(report(5, 1, 42, OpKind::Write)).Value;
  EXPECT_EQ(Sink.hitsFor(Sig), 3u);
  EXPECT_EQ(Sink.hitsFor(~Sig), 0u);
}

TEST(RaceSink, CapsDistinctSignaturesNotDuplicates) {
  RaceSink Sink(4);
  for (VarId V = 0; V < 10; ++V)
    Sink.insert(report(V, 1, V, OpKind::Write));
  EXPECT_EQ(Sink.distinct(), 4u);
  EXPECT_TRUE(Sink.capped());
  EXPECT_EQ(Sink.droppedDeclarations(), 6u);
  EXPECT_EQ(Sink.totalDeclared(), 10u);

  // Duplicates of stored signatures still count, never drop.
  for (int I = 0; I < 100; ++I)
    Sink.insert(report(100 + I, 2, 0, OpKind::Write));
  EXPECT_EQ(Sink.hitsAt(0), 101u);
  EXPECT_EQ(Sink.droppedDeclarations(), 6u);
}

TEST(RaceSink, WarmSinkInsertsDoNotAllocate) {
  // The acceptance criterion: after warm-up (every distinct signature seen
  // once), the declareRace hot path performs zero allocations.
  RaceSink Sink(1 << 10);
  for (VarId V = 0; V < 100; ++V)
    Sink.insert(report(V, 1, V, OpKind::Write));

  uint64_t Before = GAllocCount.load(std::memory_order_relaxed);
  for (int Round = 0; Round < 1000; ++Round)
    for (VarId V = 0; V < 100; ++V)
      Sink.insert(report(12345 + Round, 2, V, OpKind::Write));
  EXPECT_EQ(GAllocCount.load(std::memory_order_relaxed), Before)
      << "warm RaceSink::insert allocated";
  EXPECT_EQ(Sink.totalDeclared(), 100u + 100000u);
}

TEST(RaceSink, WarmDetectorDeclareRaceDoesNotAllocate) {
  // Same contract one layer up, through a real engine: run a racy pattern
  // once to warm the sink (and the detector's lazy var state), then replay
  // the same accesses and require zero allocations from the whole
  // processBatch path. FastTrack keeps racing on every conflicting access,
  // so the second half re-declares the same signatures continuously.
  Trace Warm(3, 0, 8);
  for (int Round = 0; Round < 2; ++Round)
    for (VarId V = 0; V < 8; ++V) {
      Warm.write(1, V, /*Marked=*/true);
      Warm.write(2, V, /*Marked=*/true);
    }

  std::unique_ptr<Detector> D =
      createDetector(EngineKind::FastTrack, Warm.numThreads());
  std::vector<uint8_t> Ds(Warm.size(), 1);
  D->processBatch(std::span<const Event>(Warm.events()),
                  std::span<const uint8_t>(Ds));
  uint64_t DeclaredWarm = D->metrics().RacesDeclared;
  ASSERT_GT(DeclaredWarm, 0u);

  uint64_t Before = GAllocCount.load(std::memory_order_relaxed);
  D->processBatch(std::span<const Event>(Warm.events()),
                  std::span<const uint8_t>(Ds));
  EXPECT_EQ(GAllocCount.load(std::memory_order_relaxed), Before)
      << "warm declareRace path allocated";
  EXPECT_GT(D->metrics().RacesDeclared, DeclaredWarm);
}

TEST(RaceSink, AbsorbMergesShardsDeterministically) {
  RaceSink A, B;
  A.insert(report(1, 1, 10, OpKind::Write));
  A.insert(report(2, 1, 10, OpKind::Write));
  A.insert(report(3, 1, 11, OpKind::Read));
  B.insert(report(7, 2, 10, OpKind::Write)); // Same sig as A's first.
  B.insert(report(8, 2, 12, OpKind::Write));

  A.absorb(B);
  EXPECT_EQ(A.distinct(), 3u);
  EXPECT_EQ(A.totalDeclared(), 5u);
  uint64_t Sig10 = RaceSignature::of(10, OpKind::Write, 1).Value;
  EXPECT_EQ(A.hitsFor(Sig10), 3u);
  // A's exemplar (the first one absorbed) wins over B's.
  EXPECT_EQ(A.exemplars()[0], report(1, 1, 10, OpKind::Write));
}

TEST(RaceSink, SummariesMergeInOrder) {
  RaceSink A, B;
  A.insert(report(1, 1, 10, OpKind::Write));
  B.insert(report(2, 2, 10, OpKind::Write));
  B.insert(report(3, 2, 20, OpKind::Write));

  TriageSummary S = mergeSummaries({A.summary(), B.summary()});
  EXPECT_EQ(S.distinct(), 2u);
  EXPECT_EQ(S.RacesDeclared, 3u);
  EXPECT_EQ(S.Entries[0].Hits, 2u);
  EXPECT_EQ(S.Entries[0].Exemplar, report(1, 1, 10, OpKind::Write));
  EXPECT_EQ(S.Entries[1].Hits, 1u);
}

//===----------------------------------------------------------------------===//
// TriageStore
//===----------------------------------------------------------------------===//

namespace {

/// A one-signature summary with \p Hits declarations on \p Var.
TriageSummary runWith(std::initializer_list<std::pair<VarId, uint64_t>>
                          VarHits) {
  RaceSink Sink;
  uint64_t Pos = 0;
  for (auto [Var, N] : VarHits)
    for (uint64_t I = 0; I < N; ++I)
      Sink.insert(report(Pos++, 1, Var, OpKind::Write));
  return Sink.summary();
}

uint64_t sigOfVar(VarId Var) {
  return RaceSignature::of(Var, OpKind::Write, 1).Value;
}

} // namespace

TEST(TriageStore, ClassifiesNewKnownRegressed) {
  TriageStore Store;

  // Run 1: two races, both new.
  TriageStore::MergeResult R1 = Store.mergeRun(runWith({{10, 5}, {20, 2}}));
  EXPECT_EQ(R1.NewSignatures, 2u);
  EXPECT_EQ(R1.KnownSignatures, 0u);
  EXPECT_EQ(R1.RegressedSignatures, 0u);
  ASSERT_EQ(R1.NewRaces.size(), 2u);

  // Run 2: var 10 persists (known), var 20 goes quiet.
  TriageStore::MergeResult R2 = Store.mergeRun(runWith({{10, 3}}));
  EXPECT_EQ(R2.NewSignatures, 0u);
  EXPECT_EQ(R2.KnownSignatures, 1u);
  EXPECT_EQ(R2.RegressedSignatures, 0u);

  // Run 3: var 20 comes back after a whole quiet run — regressed — and a
  // brand-new var 30 appears.
  TriageStore::MergeResult R3 =
      Store.mergeRun(runWith({{20, 1}, {30, 4}}));
  EXPECT_EQ(R3.NewSignatures, 1u);
  EXPECT_EQ(R3.RegressedSignatures, 1u);
  ASSERT_EQ(R3.RegressedRaces.size(), 1u);
  EXPECT_EQ(R3.RegressedRaces[0].Signature, sigOfVar(20));
  ASSERT_EQ(R3.NewRaces.size(), 1u);
  EXPECT_EQ(R3.NewRaces[0].Signature, sigOfVar(30));

  // Accumulated bookkeeping, including the last-sighting classification
  // the ranked report prints.
  const TriageStore::Record *V10 = Store.find(sigOfVar(10));
  ASSERT_NE(V10, nullptr);
  EXPECT_EQ(V10->Hits, 8u);
  EXPECT_EQ(V10->Runs, 2u);
  EXPECT_EQ(V10->FirstSeenRun, 1u);
  EXPECT_EQ(V10->LastSeenRun, 2u);
  EXPECT_EQ(V10->LastStatus, RaceStatus::Known);
  EXPECT_EQ(Store.find(sigOfVar(20))->LastStatus, RaceStatus::Regressed);
  EXPECT_EQ(Store.find(sigOfVar(30))->LastStatus, RaceStatus::New);
  EXPECT_EQ(Store.runCount(), 3u);
}

TEST(TriageStore, SaveLoadRoundTripsEverything) {
  TriageStore Store;
  Store.mergeRun(runWith({{10, 5}, {20, 2}}));
  Store.mergeRun(runWith({{10, 1}, {30, 9}}));
  Store.suppress(sigOfVar(20));

  std::string Path = tmpPath("store");
  std::string Err;
  ASSERT_TRUE(Store.save(Path, &Err)) << Err;

  TriageStore Back;
  ASSERT_TRUE(Back.load(Path, &Err)) << Err;
  EXPECT_TRUE(Back == Store);
  EXPECT_EQ(Back.runCount(), 2u);
  EXPECT_TRUE(Back.isSuppressed(sigOfVar(20)));
  // The index survives the round-trip (find goes through it).
  ASSERT_NE(Back.find(sigOfVar(30)), nullptr);
  EXPECT_EQ(Back.find(sigOfVar(30))->Hits, 9u);
  std::remove(Path.c_str());

  // Corrupt and missing files are errors for load, and loadIfExists treats
  // only the missing file as a fresh store.
  TriageStore Fresh;
  EXPECT_FALSE(Fresh.load(Path, &Err));
  EXPECT_TRUE(Fresh.loadIfExists(Path, &Err)) << Err;
  EXPECT_TRUE(Fresh.empty());
  ASSERT_TRUE(api::writeFile(Path, "not a store"));
  EXPECT_FALSE(Fresh.loadIfExists(Path, &Err));
  EXPECT_NE(Err.find("magic"), std::string::npos);
  std::remove(Path.c_str());
}

namespace {

/// Slurps a file written by TriageStore::save.
std::string readFileBytes(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  EXPECT_NE(F, nullptr) << Path;
  std::string Out;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  std::fclose(F);
  return Out;
}

/// The store format's payload checksum (FNV-1a 64) — duplicated here on
/// purpose: the negative tests below craft corrupt-but-checksummed files to
/// prove the *structural* validation fires even when the checksum passes.
uint64_t fnv1a(const std::string &Bytes) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (char C : Bytes) {
    H ^= static_cast<unsigned char>(C);
    H *= 0x100000001b3ULL;
  }
  return H;
}

void putLeU32(std::string &S, size_t At, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    S[At + I] = static_cast<char>((V >> (8 * I)) & 0xff);
}

void putLeU64(std::string &S, size_t At, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    S[At + I] = static_cast<char>((V >> (8 * I)) & 0xff);
}

/// Rewrites the container checksum to match a (tampered) payload, so the
/// tamper reaches the structural checks.
std::string refreshChecksum(std::string File) {
  putLeU64(File, 8, fnv1a(File.substr(16)));
  return File;
}

/// A saved multi-record store plus its bytes, shared by the negative tests.
std::string savedStoreBytes(const std::string &Path) {
  TriageStore Store;
  Store.mergeRun(runWith({{10, 5}, {20, 2}}));
  Store.mergeRun(runWith({{10, 1}, {30, 9}}));
  Store.suppress(sigOfVar(40));
  std::string Err;
  EXPECT_TRUE(Store.save(Path, &Err)) << Err;
  return readFileBytes(Path);
}

/// Expects load() to reject \p Bytes and to leave preexisting content
/// untouched.
void expectRejected(const std::string &Path, const std::string &Bytes,
                    const char *Why) {
  ASSERT_TRUE(api::writeFile(Path, Bytes));
  TriageStore Probe;
  Probe.mergeRun(runWith({{99, 1}}));
  std::string Err;
  EXPECT_FALSE(Probe.load(Path, &Err)) << Why;
  EXPECT_FALSE(Err.empty()) << Why;
  // A failed load is atomic: the store still holds what it held.
  EXPECT_EQ(Probe.runCount(), 1u) << Why;
  EXPECT_NE(Probe.find(sigOfVar(99)), nullptr) << Why;
}

} // namespace

TEST(TriageStore, LoadRejectsByteChoppedStores) {
  std::string Path = tmpPath("chopped");
  std::string Bytes = savedStoreBytes(Path);
  ASSERT_GT(Bytes.size(), 16u);
  // Every proper prefix — header cuts, mid-record cuts, missing trailing
  // records — must be rejected, never silently parsed into garbage.
  for (size_t Len = 0; Len < Bytes.size(); ++Len)
    expectRejected(Path, Bytes.substr(0, Len),
                   ("chopped to " + std::to_string(Len)).c_str());
  std::remove(Path.c_str());
}

TEST(TriageStore, LoadRejectsBitFlippedStores) {
  std::string Path = tmpPath("bitflip");
  std::string Bytes = savedStoreBytes(Path);
  // One flipped bit per byte, rotating through bit positions so sign bits,
  // low bits and flag bytes all get hit: magic flips fail the magic check,
  // header flips the version/checksum checks, payload flips the checksum.
  for (size_t I = 0; I < Bytes.size(); ++I) {
    std::string Bad = Bytes;
    Bad[I] = static_cast<char>(Bad[I] ^ (1u << (I % 8)));
    expectRejected(Path, Bad, ("bit flip in byte " + std::to_string(I)).c_str());
  }
  std::remove(Path.c_str());
}

TEST(TriageStore, LoadRejectsWrongVersionsAndCraftedCorruption) {
  std::string Path = tmpPath("crafted");
  std::string Bytes = savedStoreBytes(Path);
  std::string Err;
  TriageStore Probe;

  // A version-1-era store (no checksum field) reports the version, not a
  // parse explosion.
  {
    std::string V1 = Bytes;
    putLeU32(V1, 4, 1);
    ASSERT_TRUE(api::writeFile(Path, V1));
    EXPECT_FALSE(Probe.load(Path, &Err));
    EXPECT_NE(Err.find("unsupported store format version 1"),
              std::string::npos)
        << Err;
  }

  // Trailing garbage with a *matching* checksum still fails: the record
  // count bounds the payload exactly.
  {
    std::string Padded = refreshChecksum(Bytes + std::string(1, '\0'));
    ASSERT_TRUE(api::writeFile(Path, Padded));
    EXPECT_FALSE(Probe.load(Path, &Err));
    EXPECT_NE(Err.find("trailing garbage"), std::string::npos) << Err;
  }

  // Payload layout: 16-byte container header, then a 16-byte payload
  // header (sigver u32, runs u32, count u64), then 51-byte records
  // starting with the u64 signature.
  const size_t Rec0 = 16 + 16, RecSize = 51;

  // Two records with the same signature (a merge invariant violation).
  {
    std::string Dup = Bytes;
    uint64_t Sig0 = sigOfVar(10);
    putLeU64(Dup, Rec0 + RecSize, Sig0); // Record 1's signature := record 0's.
    ASSERT_TRUE(api::writeFile(Path, refreshChecksum(Dup)));
    EXPECT_FALSE(Probe.load(Path, &Err));
    EXPECT_NE(Err.find("duplicate signature"), std::string::npos) << Err;
  }

  // A sighting window beyond the store's run counter.
  {
    std::string Late = Bytes;
    putLeU32(Late, Rec0 + 24, 7); // LastSeenRun := 7 > RunCounter (2).
    ASSERT_TRUE(api::writeFile(Path, refreshChecksum(Late)));
    EXPECT_FALSE(Probe.load(Path, &Err));
    EXPECT_NE(Err.find("sighting runs out of range"), std::string::npos)
        << Err;
  }
  std::remove(Path.c_str());
}

TEST(WarehouseCodec, HostileEntryCountsAreRejectedBeforeAllocating) {
  // Checksum-valid inputs whose entry count claims 2^40 entries in a few
  // dozen bytes: each decoder must refuse the count against the bytes
  // left before it reserves anything for it.
  constexpr uint64_t Hostile = uint64_t(1) << 40;
  constexpr uint64_t Budget = 64 << 10;
  std::string Err;

  // STSG upload: 16-byte header, then sigver u32, declared u64, dropped
  // u64, capped u8, count u64 (at payload offset 21).
  std::string Summary = triaged::encodeSummary(TriageSummary{});
  ASSERT_EQ(Summary.size(), 45u);
  putLeU64(Summary, 16 + 21, Hostile);
  Summary = refreshChecksum(Summary);
  TriageSummary Decoded;
  bool Ok = true;
  uint64_t Bytes = bytesAllocatedBy(
      [&] { Ok = triaged::decodeSummary(Summary, Decoded, &Err); });
  EXPECT_FALSE(Ok);
  EXPECT_LT(Bytes, Budget) << "STSG decode allocated " << Bytes << " bytes";
  EXPECT_NE(Err.find("truncated"), std::string::npos) << Err;

  // STTS store image: 16-byte header, then sigver u32, runs u32, count u64
  // (at payload offset 8).
  std::string Image = TriageStore().serialize();
  ASSERT_EQ(Image.size(), 32u);
  putLeU64(Image, 16 + 8, Hostile);
  Image = refreshChecksum(Image);
  TriageStore Store;
  Bytes = bytesAllocatedBy([&] { Ok = Store.deserialize(Image, &Err); });
  EXPECT_FALSE(Ok);
  EXPECT_LT(Bytes, Budget) << "STTS decode allocated " << Bytes << " bytes";
  EXPECT_NE(Err.find("truncated"), std::string::npos) << Err;

  // STTJ record replayed at open: 28-byte journal header, the record's
  // u32 len and u64 checksum, then run u32, content u8, runIdLen u16 (0)
  // and the summary body, whose count sits at body offset 17.
  support::FaultInjectionFs Fs;
  TriageLog::Options Opts;
  Opts.Fs = &Fs;
  {
    TriageLog L;
    TriageStore::MergeResult M;
    ASSERT_TRUE(L.open("store", Opts, &Err)) << Err;
    ASSERT_TRUE(L.appendRun(TriageSummary{}, "", 0, M, &Err)) << Err;
  }
  const std::string Path = "store/journal-1.log";
  std::string Journal;
  ASSERT_TRUE(Fs.readFile(Path, Journal));
  ASSERT_EQ(Journal.size(), 28u + 12u + 32u);
  putLeU64(Journal, 28 + 12 + 7 + 17, Hostile);
  putLeU64(Journal, 28 + 4, fnv1a(Journal.substr(28 + 12)));
  {
    auto F = Fs.openWrite(Path, /*Append=*/false);
    ASSERT_NE(F, nullptr);
    ASSERT_TRUE(support::writeAll(*F, Journal));
  }
  TriageLog Reopened;
  Bytes = bytesAllocatedBy([&] { Ok = Reopened.open("store", Opts, &Err); });
  EXPECT_FALSE(Ok);
  EXPECT_LT(Bytes, Budget) << "STTJ replay allocated " << Bytes << " bytes";
  EXPECT_NE(Err.find("truncated"), std::string::npos) << Err;
}

TEST(WarehouseCodec, HitTotalsPastTwoToThe64AreInconsistent) {
  // Summed modulo 2^64, two entries of 2^63 hits total 0 and agree with
  // RacesDeclared = 0; so do 2^64 - 1 drops plus one hit. The checked sums
  // exceed every declared count.
  auto Entry = [](uint64_t Signature, uint64_t Hits) {
    TriageEntry E;
    E.Signature = Signature;
    E.Hits = Hits;
    return E;
  };
  TriageSummary HitsWrap;
  HitsWrap.Entries = {Entry(1, uint64_t(1) << 63), Entry(2, uint64_t(1) << 63)};
  TriageSummary DropsWrap;
  DropsWrap.Entries = {Entry(1, 1)};
  DropsWrap.DroppedDeclarations = ~uint64_t(0);
  DropsWrap.Capped = true;
  for (const TriageSummary *S : {&HitsWrap, &DropsWrap}) {
    std::string Err;
    TriageSummary Decoded;
    EXPECT_FALSE(
        triaged::decodeSummary(triaged::encodeSummary(*S), Decoded, &Err));
    EXPECT_NE(Err.find("declaration counts inconsistent"), std::string::npos)
        << Err;
  }
}

TEST(TriageStore, SuppressionsSilenceNewRaces) {
  TriageStore Store;
  Store.suppress(sigOfVar(10)); // Suppression predating first occurrence.

  TriageStore::MergeResult R = Store.mergeRun(runWith({{10, 5}, {20, 1}}));
  EXPECT_EQ(R.SuppressedSignatures, 1u);
  EXPECT_EQ(R.NewSignatures, 1u);
  ASSERT_EQ(R.NewRaces.size(), 1u);
  EXPECT_EQ(R.NewRaces[0].Signature, sigOfVar(20));

  // Suppression files: hex lines, comments, blanks; bad lines fail.
  std::string Path = tmpPath("supp");
  ASSERT_TRUE(api::writeFile(
      Path, "# suppressions\n\n  " + RaceSignature{sigOfVar(30)}.hex() +
                "  # trailing comment\n"));
  std::string Err;
  ASSERT_TRUE(Store.loadSuppressionFile(Path, &Err)) << Err;
  EXPECT_TRUE(Store.isSuppressed(sigOfVar(30)));
  ASSERT_TRUE(api::writeFile(Path, "zz-not-hex\n"));
  EXPECT_FALSE(Store.loadSuppressionFile(Path, &Err));
  EXPECT_NE(Err.find("not a hex race signature"), std::string::npos);
  std::remove(Path.c_str());
}

TEST(TriageStore, RankingIsByHitsThenSignatureWithSuppressedLast) {
  TriageStore Store;
  Store.mergeRun(runWith({{10, 5}, {20, 9}, {30, 9}, {40, 1}}));
  Store.suppress(sigOfVar(20));

  std::vector<const TriageStore::Record *> All = Store.ranked();
  ASSERT_EQ(All.size(), 4u);
  EXPECT_EQ(All[0]->Signature, sigOfVar(30)); // 9 hits, unsuppressed.
  EXPECT_EQ(All[1]->Signature, sigOfVar(10)); // 5 hits.
  EXPECT_EQ(All[2]->Signature, sigOfVar(40)); // 1 hit.
  EXPECT_TRUE(All[3]->Suppressed);

  EXPECT_EQ(Store.ranked(2).size(), 2u);
}

//===----------------------------------------------------------------------===//
// Exporters
//===----------------------------------------------------------------------===//

TEST(Exporters, TextJsonAndSarifCarryTheWarehouse) {
  TriageStore Store;
  Store.mergeRun(runWith({{10, 5}, {20, 2}}));
  Store.suppress(sigOfVar(20));

  std::string Text = toText(Store, 10);
  EXPECT_NE(Text.find("2 distinct signature(s)"), std::string::npos);
  EXPECT_NE(Text.find(RaceSignature{sigOfVar(10)}.hex()), std::string::npos);
  EXPECT_NE(Text.find("suppressed"), std::string::npos);

  std::string Json = triage::toJson(Store);
  EXPECT_NE(Json.find("\"distinctSignatures\": 2"), std::string::npos);
  EXPECT_NE(Json.find("\"suppressed\": true"), std::string::npos);
  EXPECT_NE(Json.find("\"status\": \"new\""), std::string::npos);
  EXPECT_NE(Json.find("\"hits\": 5"), std::string::npos);

  // Cross-run statuses surface in the ranked text: a regressed signature
  // prints "regressed", one absent from the latest run prints "quiet".
  TriageStore Runs;
  Runs.mergeRun(runWith({{10, 1}, {20, 1}}));
  Runs.mergeRun(runWith({{10, 1}}));
  Runs.mergeRun(runWith({{20, 1}}));
  std::string RunsText = toText(Runs, 10);
  EXPECT_NE(RunsText.find("regressed"), std::string::npos); // var 20.
  EXPECT_NE(RunsText.find("quiet"), std::string::npos);     // var 10.

  std::string Sarif = toSarif(Store);
  EXPECT_NE(Sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(Sarif.find("sarif-schema-2.1.0.json"), std::string::npos);
  EXPECT_NE(Sarif.find("sampletrack/data-race"), std::string::npos);
  EXPECT_NE(Sarif.find("\"raceSignature/v1\": \"" +
                       RaceSignature{sigOfVar(10)}.hex() + "\""),
            std::string::npos);
  // Suppressed records stay out of SARIF results.
  EXPECT_EQ(Sarif.find(RaceSignature{sigOfVar(20)}.hex()),
            std::string::npos);
  EXPECT_NE(Sarif.find("\"fullyQualifiedName\": \"var:10\""),
            std::string::npos);
}

TEST(Exporters, GoldenSarifDocumentIsPinned) {
  // One warehouse, rendered to one byte-exact SARIF 2.1.0 document: any
  // exporter change — schema fields, fingerprint key, message wording,
  // whitespace — shows up as a golden diff here instead of a surprise in a
  // consumer's code-scanning UI. The suppressed var-20 record must stay out
  // of the results.
  TriageStore Store;
  Store.mergeRun(runWith({{10, 5}, {20, 2}}));
  Store.suppress(sigOfVar(20));

  const char *Expected = R"sarif({
  "$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
  "version": "2.1.0",
  "runs": [
    {
      "tool": {
        "driver": {
          "name": "SampleTrack",
          "version": "1.2.3",
          "rules": [
            {
              "id": "sampletrack/data-race",
              "name": "DataRace",
              "shortDescription": {"text": "Data race detected by sampling-based happens-before analysis"}
            }
          ]
        }
      },
      "results": [
        {
          "ruleId": "sampletrack/data-race",
          "level": "warning",
          "message": {"text": "write race on V10 by worker thread: 5 declaration(s) across 1 run(s)"},
          "partialFingerprints": {"raceSignature/v1": "4b621cf676431f58"},
          "locations": [
            {"logicalLocations": [{"fullyQualifiedName": "var:10", "kind": "variable"}]}
          ],
          "properties": {"hits": 5, "runs": 1, "firstSeenRun": 1, "lastSeenRun": 1, "threadRole": "worker", "op": "w"}
        }
      ]
    }
  ]
}
)sarif";
  EXPECT_EQ(toSarif(Store, "1.2.3"), Expected);
  // The pinned fingerprint is the real signature, not a frozen accident.
  EXPECT_EQ(RaceSignature{sigOfVar(10)}.hex(), "4b621cf676431f58");
}

//===----------------------------------------------------------------------===//
// Session + runtime integration
//===----------------------------------------------------------------------===//

namespace {

/// A deterministic racy trace shared by the integration tests.
Trace racyTrace(uint64_t Seed) {
  GenConfig C;
  C.NumThreads = 4;
  C.NumLocks = 3;
  C.NumVars = 32;
  C.NumEvents = 2000;
  C.UnprotectedFraction = 0.1;
  C.RacyVars = 4;
  C.Seed = Seed;
  return generateWorkload(C);
}

} // namespace

TEST(TriageSession, SessionSummaryMergesLanesAndFeedsTheStoreWorkflow) {
  Trace T = racyTrace(3);

  api::SessionConfig Cfg;
  Cfg.Engines = {EngineKind::FastTrack, EngineKind::SamplingO};
  Cfg.Sampling = api::SamplerKind::Always;
  Cfg.TriageStorePath = tmpPath("workflow");
  api::SessionResult R1 = api::AnalysisSession(Cfg).run(T);
  ASSERT_GT(R1.Triage.distinct(), 0u);

  // The merged summary covers both lanes: each lane's distinct set is a
  // subset, and hits accumulate across lanes.
  uint64_t LaneDeclared = 0;
  for (const api::EngineRun &E : R1.Engines) {
    EXPECT_LE(E.DistinctRaces, R1.Triage.distinct());
    LaneDeclared += E.NumRaces;
  }
  EXPECT_EQ(R1.Triage.RacesDeclared, LaneDeclared);

  // Day 1: everything is new; the store persists.
  api::TriageOutcome Day1;
  std::string Err;
  ASSERT_TRUE(api::runTriage(Cfg, R1, Day1, &Err)) << Err;
  EXPECT_EQ(Day1.Merge.NewSignatures, R1.Triage.distinct());

  // Day 2: the same deployment re-analyzed — zero new races.
  api::SessionResult R2 = api::AnalysisSession(Cfg).run(T);
  api::TriageOutcome Day2;
  ASSERT_TRUE(api::runTriage(Cfg, R2, Day2, &Err)) << Err;
  EXPECT_EQ(Day2.Merge.NewSignatures, 0u);
  EXPECT_EQ(Day2.Merge.KnownSignatures, R1.Triage.distinct());
  EXPECT_EQ(Day2.Store.runCount(), 2u);

  // Day 3: one injected racy pair on a fresh location — exactly one new.
  Trace Patched = T;
  Patched.write(1, 1000, /*Marked=*/true);
  Patched.write(2, 1000, /*Marked=*/true);
  api::SessionResult R3 = api::AnalysisSession(Cfg).run(Patched);
  api::TriageOutcome Day3;
  ASSERT_TRUE(api::runTriage(Cfg, R3, Day3, &Err)) << Err;
  EXPECT_EQ(Day3.Merge.NewSignatures, 1u);

  std::remove(Cfg.TriageStorePath.c_str());
}

TEST(TriageSession, SarifExportOfASessionResult) {
  Trace T = racyTrace(5);
  api::SessionConfig Cfg;
  Cfg.Engines = {EngineKind::FastTrack};
  Cfg.Sampling = api::SamplerKind::Always;
  api::SessionResult R = api::AnalysisSession(Cfg).run(T);
  ASSERT_GT(R.Triage.distinct(), 0u);

  std::string Sarif = api::toSarif(R);
  EXPECT_NE(Sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(Sarif.find(
                RaceSignature{R.Triage.Entries[0].Signature}.hex()),
            std::string::npos);
}

TEST(TriageRuntime, OnlineShardsMergeIntoOneSummary) {
  // Drive the online runtime single-threadedly (deterministic) with races
  // from two registered threads on a shared address.
  rt::Config C;
  C.AnalysisMode = rt::Mode::FT;
  C.MaxThreads = 8;
  rt::Runtime Rt(C);
  ThreadId T1 = Rt.registerThread();
  ThreadId T2 = Rt.registerThread();
  for (int I = 0; I < 50; ++I) {
    Rt.onWrite(T1, 0x1000);
    Rt.onWrite(T2, 0x1000);
  }
  ASSERT_GT(Rt.raceCount(), 0u);

  TriageSummary S = Rt.triageSummary();
  EXPECT_EQ(S.RacesDeclared, Rt.raceCount());
  EXPECT_EQ(S.distinct(), Rt.distinctRaceCount());
  // Both threads are workers writing the same cell: one signature.
  EXPECT_EQ(S.distinct(), 1u);
  EXPECT_FALSE(S.Capped);
}
