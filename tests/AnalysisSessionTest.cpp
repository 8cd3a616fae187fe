//===- tests/AnalysisSessionTest.cpp - Pipeline API tests ------------------==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
// The engine-equivalence golden tests: a K-engine AnalysisSession fan-out
// over a single trace traversal must be bit-identical — metrics, race
// lists, sample sets — to K one-lane sessions, each with its own detector
// and a fresh sampler on the same seed. Plus coverage for the batched/shim
// ingestion paths, streamed sources, live hooks, truncation surfacing and
// the reporters.
//
//===----------------------------------------------------------------------===//

#include "sampletrack/api/AnalysisSession.h"

#include "sampletrack/api/Report.h"
#include "sampletrack/trace/SuiteGen.h"
#include "sampletrack/trace/TraceGen.h"
#include "sampletrack/trace/TraceIO.h"

#include "AllocCounter.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <unistd.h>

using namespace sampletrack;

namespace {

/// A mid-sized suite trace with plenty of real races and all event kinds.
Trace goldenTrace() { return generateSuiteTrace("bufwriter", 0.25, 3); }

const EngineKind FanOutKinds[] = {
    EngineKind::Djit, EngineKind::FastTrack, EngineKind::SamplingNaive,
    EngineKind::SamplingU, EngineKind::SamplingO};

/// Runs kind \p K alone: a one-lane session over a borrowed detector and a
/// fresh Bernoulli stream. Returns (result, race list).
std::pair<api::EngineRun, std::vector<RaceReport>>
oneLaneRun(const Trace &T, EngineKind K, double Rate, uint64_t Seed) {
  std::unique_ptr<Detector> D = createDetector(K, T.numThreads());
  BernoulliSampler S(Rate, Seed);
  api::SessionResult R =
      api::AnalysisSession().addDetector(*D).withSampler(S).run(T);
  return {R.Engines.front(), D->races()};
}

/// 14 bytes: a header that declares 200,000 threads, then one read by T0.
/// Streamed, the header sizes the session: T^2 clocks per engine.
const std::string ManyThreadsHeader("STRC\x01\xc0\x9a\x0c\x00\x01\x01"
                                    "\x00\x00\x00",
                                    14);
/// 16 bytes: the same header, then one read by thread 199,999. Loaded whole,
/// the largest thread id sizes the trace's universe.
const std::string FarThreadRead("STRC\x01\xc0\x9a\x0c\x00\x01\x01"
                                "\x00\xbf\x9a\x0c\x00",
                                16);

} // namespace

TEST(AnalysisSession, FanOutMatchesOneLaneSessionsBitForBit) {
  Trace T = goldenTrace();
  const double Rate = 0.03;
  const uint64_t Seed = 7;

  api::SessionConfig Cfg;
  Cfg.Engines.assign(std::begin(FanOutKinds), std::end(FanOutKinds));
  Cfg.Sampling = api::SamplerKind::Bernoulli;
  Cfg.SamplingRate = Rate;
  Cfg.Seed = Seed;
  api::SessionResult Fan = api::AnalysisSession(Cfg).run(T);

  ASSERT_EQ(Fan.Engines.size(), std::size(FanOutKinds));
  EXPECT_EQ(Fan.EventsProcessed, T.size());

  for (size_t I = 0; I < std::size(FanOutKinds); ++I) {
    SCOPED_TRACE(engineKindName(FanOutKinds[I]));
    auto [Alone, AloneRaces] = oneLaneRun(T, FanOutKinds[I], Rate, Seed);
    const api::EngineRun &Lane = Fan.Engines[I];

    EXPECT_EQ(Lane.Engine, Alone.Engine);
    // Bit-identical sample set: every lane shares one decision stream that
    // equals what a standalone Bernoulli sampler with the same seed draws.
    EXPECT_EQ(Lane.SampleSize, Alone.SampleSize);
    EXPECT_EQ(Lane.Stats, Alone.Stats);
    EXPECT_EQ(Lane.NumRaces, Alone.NumRaces);
    EXPECT_EQ(Lane.NumRacyLocations, Alone.NumRacyLocations);
    EXPECT_EQ(Lane.Races, AloneRaces);
    EXPECT_EQ(Lane.RacesTruncated, Alone.RacesTruncated);
    // Each lane's own counters agree with the session-level fields.
    EXPECT_EQ(Lane.Stats.Events, T.size());
    EXPECT_EQ(Lane.Stats.SampledAccesses, Lane.SampleSize);
    EXPECT_EQ(Lane.NumRaces, Lane.Stats.RacesDeclared);
    EXPECT_LE(Lane.NumRacyLocations, Lane.NumRaces);
    EXPECT_GT(Lane.WallNanos, 0u);
  }

  // The fan-out actually found work to disagree about: the full engines
  // and sampling engines see different race universes.
  EXPECT_GT(Fan.Engines[1].NumRaces, 0u); // FT, full detection on samples.
}

TEST(AnalysisSession, StreamedBinarySourceIsReadOnceAndMatchesInMemory) {
  Trace T = goldenTrace();
  markTrace(T, 0.05, 11);

  api::SessionConfig Cfg;
  Cfg.Engines = {EngineKind::SamplingNaive, EngineKind::SamplingU,
                 EngineKind::SamplingO};
  Cfg.Sampling = api::SamplerKind::Marked;
  Cfg.BatchSize = 512; // Force many small batches through the decoder.
  api::SessionResult InMemory = api::AnalysisSession(Cfg).run(T);

  // A stringstream is consumable exactly once: if any lane triggered a
  // second traversal, decoding would fail and the run would error out.
  std::ostringstream Bin;
  writeTraceBinary(Bin, T);
  std::istringstream Is(Bin.str());
  api::SessionResult Streamed;
  std::string Err;
  ASSERT_TRUE(api::AnalysisSession(Cfg).run(Is, Streamed, &Err)) << Err;

  ASSERT_EQ(Streamed.Engines.size(), InMemory.Engines.size());
  EXPECT_EQ(Streamed.EventsProcessed, InMemory.EventsProcessed);
  EXPECT_EQ(Streamed.NumThreads, InMemory.NumThreads);
  for (size_t I = 0; I < Streamed.Engines.size(); ++I) {
    EXPECT_EQ(Streamed.Engines[I].Stats, InMemory.Engines[I].Stats);
    EXPECT_EQ(Streamed.Engines[I].Races, InMemory.Engines[I].Races);
    EXPECT_EQ(Streamed.Engines[I].SampleSize, InMemory.Engines[I].SampleSize);
  }
}

TEST(AnalysisSession, BatchedIngestionEqualsPerEventShim) {
  Trace T = goldenTrace();
  markTrace(T, 0.1, 5);

  api::SessionConfig Cfg;
  Cfg.Engines = {EngineKind::SamplingO};
  Cfg.Sampling = api::SamplerKind::Marked;

  api::AnalysisSession Batched(Cfg);
  ASSERT_TRUE(Batched.begin(T.numThreads()));
  Batched.process(std::span<const Event>(T.events()));
  api::SessionResult A = Batched.finish();

  api::AnalysisSession Shimmed(Cfg);
  ASSERT_TRUE(Shimmed.begin(T.numThreads()));
  for (const Event &E : T)
    Shimmed.process(E);
  api::SessionResult B = Shimmed.finish();

  ASSERT_EQ(A.Engines.size(), 1u);
  ASSERT_EQ(B.Engines.size(), 1u);
  EXPECT_EQ(A.Engines[0].Stats, B.Engines[0].Stats);
  EXPECT_EQ(A.Engines[0].Races, B.Engines[0].Races);
  EXPECT_EQ(A.EventsProcessed, B.EventsProcessed);
}

TEST(AnalysisSession, LiveHooksMatchEquivalentTrace) {
  // The same execution, fed once through live hooks and once as a trace:
  //   t0: acq(l) w(x) rel(l) w(y)   t1: acq(l) w(x) rel(l) w(y)
  api::SessionConfig Cfg;
  Cfg.Engines = {EngineKind::FastTrack};
  Cfg.Sampling = api::SamplerKind::Always;
  Cfg.MaxThreads = 4;

  api::AnalysisSession Live(Cfg);
  ASSERT_TRUE(Live.begin());
  api::SessionHooks Hooks(Live);
  ThreadId T1 = Hooks.registerThread();
  SyncId L = Hooks.registerSync();
  Hooks.onAcquire(0, L);
  Hooks.onWrite(0, 0);
  Hooks.onRelease(0, L);
  Hooks.onWrite(0, 1);
  Hooks.onAcquire(T1, L);
  Hooks.onWrite(T1, 0);
  Hooks.onRelease(T1, L);
  Hooks.onWrite(T1, 1);
  api::SessionResult FromHooks = Live.finish();

  Trace T(4, 1, 2);
  T.acquire(0, 0);
  T.write(0, 0);
  T.release(0, 0);
  T.write(0, 1);
  T.acquire(1, 0);
  T.write(1, 0);
  T.release(1, 0);
  T.write(1, 1);
  Cfg.NumThreads = 4;
  api::SessionResult FromTrace = api::AnalysisSession(Cfg).run(T);

  ASSERT_EQ(FromHooks.Engines.size(), 1u);
  ASSERT_EQ(FromTrace.Engines.size(), 1u);
  EXPECT_EQ(FromHooks.Engines[0].Stats, FromTrace.Engines[0].Stats);
  EXPECT_EQ(FromHooks.Engines[0].Races, FromTrace.Engines[0].Races);
  EXPECT_EQ(FromHooks.Engines[0].NumRaces, 1u); // The unprotected w(y) pair.
}

TEST(AnalysisSession, LiveHooksDropThreadsOutsideTheUniverse) {
  // A two-thread universe: registerThread hands out thread 1, then
  // NoThread. Hooks naming NoThread or an id past the universe (as the
  // acting thread or as a fork/join child) index past every detector's
  // per-thread tables, so they must be dropped — the run has to equal the
  // same hook sequence without them.
  api::SessionConfig Cfg;
  Cfg.Engines.assign(std::begin(FanOutKinds), std::end(FanOutKinds));
  Cfg.Sampling = api::SamplerKind::Always;
  Cfg.NumThreads = 2;

  auto Drive = [&](bool WithStrays) {
    api::AnalysisSession Live(Cfg);
    EXPECT_TRUE(Live.begin());
    api::SessionHooks Hooks(Live);
    ThreadId T1 = Hooks.registerThread();
    EXPECT_EQ(T1, 1u);
    SyncId L = Hooks.registerSync();
    auto Strays = [&] {
      if (!WithStrays)
        return;
      ThreadId Over = Hooks.registerThread();
      EXPECT_EQ(Over, NoThread);
      for (ThreadId B : {Over, ThreadId(2), ThreadId(1000)}) {
        Hooks.onRead(B, 0);
        Hooks.onWrite(B, 1);
        Hooks.onAcquire(B, L);
        Hooks.onRelease(B, L);
        Hooks.onReleaseStore(B, L);
        Hooks.onReleaseJoin(B, L);
        Hooks.onAcquireLoad(B, L);
        Hooks.onFork(B, T1);
        Hooks.onJoin(B, T1);
        Hooks.onFork(0, B);
        Hooks.onJoin(T1, B);
      }
    };
    Strays();
    Hooks.onFork(0, T1);
    Hooks.onAcquire(0, L);
    Hooks.onWrite(0, 0);
    Hooks.onRelease(0, L);
    Hooks.onWrite(0, 1);
    Strays();
    Hooks.onAcquire(T1, L);
    Hooks.onWrite(T1, 0);
    Hooks.onRelease(T1, L);
    Hooks.onWrite(T1, 1);
    Hooks.onRead(T1, 2);
    Strays();
    Hooks.onJoin(0, T1);
    Hooks.onRead(0, 2);
    return api::stripTiming(Live.finish());
  };

  api::SessionResult Clean = Drive(false);
  api::SessionResult WithStrays = Drive(true);
  EXPECT_EQ(Clean.EventsProcessed, 12u);
  ASSERT_NE(Clean.find("FT"), nullptr);
  EXPECT_EQ(Clean.find("FT")->NumRaces, 1u); // The unprotected w(y) pair.
  EXPECT_EQ(WithStrays, Clean);
}

TEST(AnalysisSession, DuplicateDeclarationsDedupWithoutTruncation) {
  // Two threads alternating unsynchronized writes to one location: every
  // access after the first declares a race — historically this overflowed
  // the stored-race cap; the warehouse sink dedups all of it into one
  // signature with a hit count instead, and truncation stays off.
  constexpr size_t NumEvents = 1 << 16;
  Trace T(3, 0, 1);
  for (size_t I = 0; I < NumEvents; ++I)
    T.write(1 + I % 2, 0, /*Marked=*/true); // Two worker threads: one role,
                                            // one signature.

  api::SessionConfig Cfg;
  Cfg.Engines = {EngineKind::FastTrack};
  Cfg.Sampling = api::SamplerKind::Marked;
  api::SessionResult R = api::AnalysisSession(Cfg).run(T);

  const api::EngineRun &Ft = R.Engines.front();
  EXPECT_GT(Ft.NumRaces, NumEvents / 2); // Nearly every write races.
  EXPECT_EQ(Ft.DistinctRaces, 1u);
  EXPECT_EQ(Ft.Races.size(), 1u);
  EXPECT_FALSE(Ft.RacesTruncated);
  EXPECT_EQ(R.Triage.distinct(), 1u);
  EXPECT_EQ(R.Triage.Entries[0].Hits, Ft.NumRaces);
  EXPECT_NE(api::toJson(R).find("\"distinctRaces\": 1"), std::string::npos);
}

TEST(AnalysisSession, RaceSinkTruncationIsSurfaced) {
  // Truncation now means "distinct signatures exceeded the sink capacity":
  // 96 distinct racy locations against a 64-signature sink. Two worker
  // threads (same role) write each location back-to-back, so every
  // location contributes exactly one signature.
  constexpr size_t NumVars = 96, Cap = 64;
  Trace T(3, 0, NumVars);
  for (size_t V = 0; V < NumVars; ++V) {
    T.write(1, V, /*Marked=*/true);
    T.write(2, V, /*Marked=*/true);
  }

  api::SessionConfig Cfg;
  Cfg.Engines = {EngineKind::FastTrack};
  Cfg.Sampling = api::SamplerKind::Marked;
  Cfg.TriageCapacity = Cap;
  api::SessionResult R = api::AnalysisSession(Cfg).run(T);

  const api::EngineRun &Ft = R.Engines.front();
  EXPECT_EQ(Ft.NumRaces, NumVars);
  EXPECT_EQ(Ft.DistinctRaces, Cap);
  EXPECT_EQ(Ft.Races.size(), Cap);
  EXPECT_TRUE(Ft.RacesTruncated);
  EXPECT_TRUE(R.Triage.Capped);
  EXPECT_EQ(R.Triage.DroppedDeclarations, NumVars - Cap);

  // The truncation flag travels through both reporters, and distinct-vs-
  // declared makes a capped run distinguishable from a deduplicated one.
  EXPECT_NE(api::toJson(R).find("\"racesTruncated\": true"),
            std::string::npos);
  EXPECT_NE(api::toJson(R).find("\"distinctRaces\": 64"), std::string::npos);
  EXPECT_NE(api::toCsv(R).find(",1,"), std::string::npos);

  // An uncapped run over the same trace: everything distinct, no
  // truncation, and a Bernoulli session at full rate agrees. A rate >= 1.0
  // runs the "always" sampler, so every access is in S.
  Cfg.TriageCapacity = 0;
  api::SessionResult Full = api::AnalysisSession(Cfg).run(T);
  EXPECT_EQ(Full.Engines.front().DistinctRaces, NumVars);
  EXPECT_FALSE(Full.Engines.front().RacesTruncated);
  api::SessionConfig Bern = Cfg;
  Bern.Sampling = api::SamplerKind::Bernoulli;
  Bern.SamplingRate = 1.0;
  api::SessionResult AtFullRate = api::AnalysisSession(Bern).run(T);
  const api::EngineRun &FullRate = AtFullRate.Engines.front();
  EXPECT_EQ(FullRate.SamplerName, "always");
  EXPECT_EQ(FullRate.SampleSize, 2 * NumVars);
  EXPECT_FALSE(FullRate.RacesTruncated);
  EXPECT_EQ(FullRate.DistinctRaces, NumVars);

  // And stays off when nothing was dropped.
  api::SessionResult Small = api::AnalysisSession(Cfg).run(goldenTrace());
  EXPECT_FALSE(Small.Engines.front().RacesTruncated);
  EXPECT_NE(api::toJson(Small).find("\"racesTruncated\": false"),
            std::string::npos);
}

TEST(AnalysisSession, ReportersCarryEveryLane) {
  Trace T = goldenTrace();
  api::SessionConfig Cfg;
  Cfg.Engines = {EngineKind::SamplingNaive, EngineKind::SamplingO};
  Cfg.SamplingRate = 0.05;
  api::SessionResult R = api::AnalysisSession(Cfg).run(T);

  std::string Json = api::toJson(R, /*MaxRaces=*/4);
  EXPECT_NE(Json.find("\"engine\": \"ST\""), std::string::npos);
  EXPECT_NE(Json.find("\"engine\": \"SO\""), std::string::npos);
  EXPECT_NE(Json.find("\"raceReports\""), std::string::npos);
  EXPECT_NE(Json.find("\"sampler\": \"bernoulli(5%)\""), std::string::npos);

  std::string Csv = api::toCsv(R);
  // Header plus one row per engine.
  EXPECT_EQ(std::count(Csv.begin(), Csv.end(), '\n'), 3);
  EXPECT_NE(Csv.find("ST,"), std::string::npos);
  EXPECT_NE(Csv.find("SO,"), std::string::npos);

  // Lane lookup helper.
  ASSERT_NE(R.find("SO"), nullptr);
  EXPECT_EQ(R.find("SO")->Engine, "SO");
  EXPECT_EQ(R.find("nope"), nullptr);
}

TEST(DetectorFactory, ParseIsCaseInsensitiveAndRoundTrips) {
  for (EngineKind K : allEngineKinds()) {
    std::string Name = engineKindName(K);
    SCOPED_TRACE(Name);
    // Round-trip: the printed name parses back to the same kind.
    ASSERT_TRUE(parseEngineKind(Name).has_value());
    EXPECT_EQ(*parseEngineKind(Name), K);
    // Case-insensitively.
    std::string Upper = Name, Lower = Name;
    for (char &C : Upper)
      C = static_cast<char>(std::toupper(static_cast<unsigned char>(C)));
    for (char &C : Lower)
      C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
    ASSERT_TRUE(parseEngineKind(Upper).has_value());
    EXPECT_EQ(*parseEngineKind(Upper), K);
    ASSERT_TRUE(parseEngineKind(Lower).has_value());
    EXPECT_EQ(*parseEngineKind(Lower), K);
  }
  EXPECT_EQ(parseEngineKind("fasttrack"), EngineKind::FastTrack);
  EXPECT_EQ(parseEngineKind("DJIT"), EngineKind::Djit);
  EXPECT_EQ(parseEngineKind("TreeClock"), EngineKind::TreeClockFull);
  EXPECT_EQ(parseEngineKind("so-NOEPOCH"), EngineKind::SamplingONoEpochOpt);
  EXPECT_FALSE(parseEngineKind("warp-drive").has_value());
}

TEST(DetectorFactory, CreateDetectorsPreservesPresentationOrder) {
  std::vector<EngineKind> Kinds = allEngineKinds();
  std::vector<std::unique_ptr<Detector>> Ds = createDetectors(Kinds, 8);
  ASSERT_EQ(Ds.size(), Kinds.size());
  for (size_t I = 0; I < Ds.size(); ++I) {
    ASSERT_NE(Ds[I], nullptr);
    EXPECT_EQ(Ds[I]->numThreads(), 8u);
    // The factory's printed names and the detectors' self-reported names
    // agree up to the ablation variants that share an engine.
    std::optional<EngineKind> Parsed = parseEngineKind(Ds[I]->name());
    ASSERT_TRUE(Parsed.has_value()) << Ds[I]->name();
  }
}

TEST(AnalysisSession, RefusesAThreadUniverseItsClocksCannotHold) {
  // Both inputs once made every engine allocate 200,000 clocks of 200,000
  // entries and died of std::bad_alloc. begin() now refuses the universe,
  // with a reason, before it sizes anything.
  api::SessionConfig Cfg;
  Cfg.Engines = {EngineKind::FastTrack, EngineKind::SamplingO};
  const std::string Reason = "thread universe of 200000 threads refused";

  for (const std::string *Bytes : {&ManyThreadsHeader, &FarThreadRead}) {
    std::istringstream Is(*Bytes);
    api::SessionResult R;
    std::string Err;
    EXPECT_FALSE(api::AnalysisSession(Cfg).run(Is, R, &Err));
    EXPECT_NE(Err.find(Reason), std::string::npos) << Err;
  }

  std::string Path = "/tmp/sampletrack_session_many_threads_" +
                     std::to_string(::getpid()) + ".trace";
  std::ofstream(Path, std::ios::binary) << ManyThreadsHeader;
  api::SessionResult R;
  std::string Err;
  EXPECT_FALSE(api::AnalysisSession(Cfg).runFile(Path, R, &Err));
  EXPECT_NE(Err.find(Reason), std::string::npos) << Err;
  std::remove(Path.c_str());

  Trace Far;
  ASSERT_TRUE(readTraceBinary(FarThreadRead, Far, &Err)) << Err;
  ASSERT_EQ(Far.numThreads(), 200000u);
  api::AnalysisSession Session(Cfg);
  EXPECT_FALSE(Session.run(Far, R, &Err));
  EXPECT_NE(Err.find(Reason), std::string::npos) << Err;
  EXPECT_TRUE(Session.run(Far).Engines.empty());

  // The refusal leaves the session reusable, and the same header's one
  // event analyzes fine once loaded whole: its universe is one thread.
  Trace One;
  ASSERT_TRUE(readTraceBinary(ManyThreadsHeader, One, &Err)) << Err;
  ASSERT_EQ(One.numThreads(), 1u);
  ASSERT_TRUE(Session.run(One, R, &Err)) << Err;
  EXPECT_EQ(R.EventsProcessed, 1u);
  EXPECT_EQ(R.Engines.size(), 2u);
}

TEST(AnalysisSession, RefusesSyncAndVariableUniversesItsTablesCannotHold) {
  // A two-line text trace on lock 4,000,000,000 once made the sync table
  // grow to 4e9 records and died of std::bad_alloc; so did a binary trace
  // whose header declares 4e9 + 1 syncs. begin() now refuses both, with a
  // reason, before any table is sized.
  api::SessionConfig Cfg;
  Cfg.Engines = {EngineKind::FastTrack, EngineKind::SamplingO};
  const std::string SyncReason =
      "sync universe of 4000000001 sync objects refused";
  const std::string FarLockText = "T0|acq(L4000000000)\nT0|rel(L4000000000)\n";
  Trace FarLock;
  FarLock.acquire(0, 4000000000u);
  FarLock.release(0, 4000000000u);
  std::ostringstream Os(std::ios::binary);
  writeTraceBinary(Os, FarLock);
  const std::string FarLockBin = Os.str();
  ASSERT_EQ(FarLock.numSyncs(), 4000000001u);

  api::AnalysisSession Session(Cfg);
  api::SessionResult R;
  std::string Err;
  for (const std::string *Bytes : {&FarLockText, &FarLockBin}) {
    std::istringstream Is(*Bytes);
    uint64_t Allocated =
        bytesAllocatedBy([&] { EXPECT_FALSE(Session.run(Is, R, &Err)); });
    EXPECT_NE(Err.find(SyncReason), std::string::npos) << Err;
    EXPECT_LT(Allocated, uint64_t(1) << 20);
  }
  Trace Loaded;
  ASSERT_TRUE(readTraceBinary(FarLockBin, Loaded, &Err)) << Err;
  EXPECT_FALSE(Session.run(Loaded, R, &Err));
  EXPECT_NE(Err.find(SyncReason), std::string::npos) << Err;
  EXPECT_TRUE(Session.run(Loaded).Engines.empty());

  Trace FarVar;
  FarVar.write(0, 9000000000u, /*Marked=*/true);
  EXPECT_FALSE(Session.run(FarVar, R, &Err));
  EXPECT_NE(Err.find("variable universe of 9000000001 variables refused"),
            std::string::npos)
      << Err;

  // The largest admitted universes pass, and the session stays usable.
  EXPECT_TRUE(api::admitUniverse(Cfg, 1, api::MaxSyncsPerEngine,
                                 api::MaxVarsPerEngine, &Err))
      << Err;
  EXPECT_FALSE(api::admitUniverse(Cfg, 1, api::MaxSyncsPerEngine + 1, 1));
  EXPECT_FALSE(api::admitUniverse(Cfg, 1, 1, api::MaxVarsPerEngine + 1));
  Trace Near;
  Near.acquire(0, 7);
  Near.write(0, 11, /*Marked=*/true);
  Near.release(0, 7);
  ASSERT_TRUE(Session.run(Near, R, &Err)) << Err;
  EXPECT_EQ(R.EventsProcessed, 3u);
}

TEST(AnalysisSession, TableLimitsCountWhatEnginesAllocate) {
  // The sync and variable limits assume at most MaxClockBytesPerEngine / 2
  // / limit bytes per record (the tables double as they grow, so they may
  // hold twice the universe). Each engine's handlers, taking one lock id or
  // one variable id N - 1 on a fresh detector, size a table of exactly N
  // records, so they must allocate at most N such records, plus the few
  // words one clock over one thread takes.
  constexpr uint32_t N = 4096;
  const uint64_t SyncRecord =
      api::MaxClockBytesPerEngine / 2 / api::MaxSyncsPerEngine;
  const uint64_t VarRecord =
      api::MaxClockBytesPerEngine / 2 / api::MaxVarsPerEngine;
  Trace FarLock, FarVar;
  FarLock.acquire(0, N - 1);
  FarLock.release(0, N - 1);
  FarVar.write(0, N - 1, /*Marked=*/true);
  const std::vector<uint8_t> Sampled(2, 1);
  for (EngineKind K : allEngineKinds()) {
    for (auto [T, Record] : {std::pair<const Trace *, uint64_t>{&FarLock,
                                                                 SyncRecord},
                             {&FarVar, VarRecord}}) {
      std::unique_ptr<Detector> D = createDetector(K, 1);
      uint64_t Allocated = bytesAllocatedBy([&] {
        D->processBatch(T->events(), std::span(Sampled).first(T->size()));
      });
      EXPECT_LE(Allocated, N * Record + 256) << engineKindName(K);
    }
  }
}

TEST(AnalysisSession, ThreadCapHoldsEachEnginesClocksToTheLimit) {
  // The largest universe each engine admits: floor(sqrt(limit / bytes per
  // component)). One thread more is refused before anything is sized.
  const std::pair<EngineKind, size_t> Largest[] = {
      {EngineKind::Djit, 11585},
      {EngineKind::FastTrack, 11585},
      {EngineKind::SamplingNaive, 11585},
      {EngineKind::SamplingU, 8192},
      {EngineKind::SamplingO, 6688},
      {EngineKind::SamplingONoEpochOpt, 6688},
      {EngineKind::TreeClockFull, 5181},
  };
  ASSERT_EQ(std::size(Largest), allEngineKinds().size());
  for (auto [K, T] : Largest) {
    uint64_t Bytes = clockBytesPerComponent(K);
    EXPECT_LE(T * T * Bytes, api::MaxClockBytesPerEngine) << engineKindName(K);
    EXPECT_GT((T + 1) * (T + 1) * Bytes, api::MaxClockBytesPerEngine)
        << engineKindName(K);
    api::SessionConfig Cfg;
    Cfg.Engines = {K};
    api::AnalysisSession Session(Cfg);
    std::string Err;
    uint64_t Allocated =
        bytesAllocatedBy([&] { EXPECT_FALSE(Session.begin(T + 1, &Err)); });
    EXPECT_EQ(Err.find("thread universe of " + std::to_string(T + 1) +
                       " threads refused"),
              0u)
        << engineKindName(K) << ": " << Err;
    EXPECT_LT(Allocated, uint64_t(1) << 20) << engineKindName(K);
  }

  // The widest lane sets the bound: FT alone admits 6,689 threads, FT+SO
  // does not.
  api::SessionConfig Cfg;
  Cfg.Engines = {EngineKind::FastTrack, EngineKind::SamplingO};
  std::string Err;
  EXPECT_FALSE(api::AnalysisSession(Cfg).begin(6689, &Err));
  EXPECT_NE(Err.find("thread universe of 6689 threads refused"),
            std::string::npos)
      << Err;
}

TEST(AnalysisSession, ClockBytesPerComponentCountWhatEnginesAllocate) {
  // The cap is only as good as these per-component sizes: each engine's
  // construction over T threads must allocate at least T * T of them, and
  // its thread clocks must be most of what it allocates.
  constexpr size_t T = 256;
  for (EngineKind K : allEngineKinds()) {
    std::unique_ptr<Detector> D;
    uint64_t Allocated = bytesAllocatedBy([&] { D = createDetector(K, T); });
    uint64_t Clocks = T * T * clockBytesPerComponent(K);
    EXPECT_GE(Allocated, Clocks) << engineKindName(K);
    EXPECT_LT(Allocated, 2 * Clocks) << engineKindName(K);
  }
}
