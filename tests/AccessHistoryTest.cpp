//===- tests/AccessHistoryTest.cpp - Algorithm 2's histories as epochs ----==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sampling engines store Algorithm 2's access histories in constant
/// space: Cw_x as the last sampled write's epoch, Cr_x as one read epoch
/// that is promoted to a read vector clock when two unordered reads meet
/// (engine::AccessHistory in EngineCore.h). These hand-built traces pin
/// each transition of that representation, and check event for event that
/// ST, SU, SO and SO-noepoch still declare exactly what the Lemma 4 oracle
/// declares.
/// ST pays exactly one full-clock operation per synchronization event, so
/// its FullClockOps minus the trace's synchronization events is the access
/// handlers' O(T) work: one per read promotion and one per write checked
/// against a promoted read history.
///
//===----------------------------------------------------------------------===//

#include "sampletrack/detectors/DetectorFactory.h"
#include "sampletrack/detectors/HBClosureOracle.h"
#include "sampletrack/sampling/Sampler.h"

#include <gtest/gtest.h>

using namespace sampletrack;

namespace {

constexpr VarId X = 0;

/// Builds a trace whose accesses are all sampled, with lock hand-offs as
/// the only synchronization.
class TraceBuilder {
public:
  /// A sampled read; returns its event index.
  size_t read(ThreadId T) {
    Tr.read(T, X, /*Marked=*/true);
    return Tr.size() - 1;
  }
  /// A sampled write; returns its event index.
  size_t write(ThreadId T) {
    Tr.write(T, X, /*Marked=*/true);
    return Tr.size() - 1;
  }
  /// \p From's events so far happen-before \p To's next event, through a
  /// lock no other message uses.
  void message(ThreadId From, ThreadId To) {
    SyncId L = NextLock++;
    Tr.acquire(From, L);
    Tr.release(From, L);
    Tr.acquire(To, L);
    Tr.release(To, L);
    SyncEvents += 4;
  }

  Trace Tr;
  uint64_t SyncEvents = 0;

private:
  SyncId NextLock = 0;
};

struct EngineRun {
  std::vector<size_t> Declared;
  Metrics Stats;
};

/// Feeds \p T to engine \p K one event at a time and lists every event at
/// which a race is declared (the race sink would dedup re-declarations).
EngineRun runEngine(const Trace &T, EngineKind K) {
  std::unique_ptr<Detector> D = createDetector(K, T.numThreads());
  EngineRun R;
  for (size_t I = 0; I < T.size(); ++I) {
    uint64_t Before = D->metrics().RacesDeclared;
    uint8_t Sampled = T[I].Marked ? 1 : 0;
    D->processBatch(std::span<const Event>(&T[I], 1),
                    std::span<const uint8_t>(&Sampled, 1));
    if (D->metrics().RacesDeclared != Before)
      R.Declared.push_back(I);
  }
  R.Stats = D->metrics();
  return R;
}

/// Checks every sampling engine against the oracle and against the
/// hand-derived declarations \p Expected, and ST's access-side full-clock
/// operations against \p AccessClockOps.
void checkTrace(const TraceBuilder &B, const std::vector<size_t> &Expected,
                uint64_t AccessClockOps) {
  ASSERT_TRUE(B.Tr.validate());
  HBClosureOracle Oracle(B.Tr);
  ASSERT_EQ(Oracle.declaredRaces(/*MarkedOnly=*/true), Expected);

  uint64_t Accesses = B.Tr.size() - B.SyncEvents;
  for (EngineKind K : {EngineKind::SamplingNaive, EngineKind::SamplingU,
                       EngineKind::SamplingO,
                       EngineKind::SamplingONoEpochOpt}) {
    EngineRun R = runEngine(B.Tr, K);
    EXPECT_EQ(R.Declared, Expected) << engineKindName(K);
    // No fast path: every sampled access is checked.
    EXPECT_EQ(R.Stats.RaceChecks, Accesses) << engineKindName(K);
    if (K == EngineKind::SamplingNaive) {
      EXPECT_EQ(R.Stats.FullClockOps - B.SyncEvents, AccessClockOps);
    }
  }
}

} // namespace

TEST(AccessHistory, ExclusiveReadsReplaceTheEpoch) {
  // Reads each ordered after the stored one replace it: the read epoch
  // keeps only the latest. A write ordered after that read is ordered
  // after every dropped one too, so it is race-free; a write that heard
  // from a dropped read but not from the kept one races.
  TraceBuilder B;
  B.write(0);
  B.message(0, 1);
  B.read(1);
  B.message(1, 2);
  B.read(2); // Replaces 1's read.
  B.message(2, 3);
  B.read(3); // Replaces 2's read.
  B.message(3, 4);
  B.write(4); // Ordered after all three reads.
  B.message(4, 1);
  B.read(1); // Replaces 3's read.
  B.message(1, 2);
  B.read(2); // Replaces 1's read.
  B.message(1, 5);
  size_t Racy = B.write(5); // Ordered after 1's reads, not 2's last.
  checkTrace(B, {Racy}, /*AccessClockOps=*/0);
}

TEST(AccessHistory, ConcurrentReadsPromoteTheHistory) {
  TraceBuilder B;
  B.write(0);
  B.message(0, 1);
  B.message(0, 2);
  B.read(1);
  B.read(2); // Unordered with 1's read: promote (one clock op).
  B.read(1); // Promoted: a plain entry update.
  B.message(1, 3);
  B.message(2, 3);
  B.write(3); // Ordered after both readers: one promoted check.
  checkTrace(B, {}, /*AccessClockOps=*/2);
}

TEST(AccessHistory, WriteAfterOnlyOneOfTwoConcurrentReadsRaces) {
  TraceBuilder B;
  B.read(1);
  B.read(2); // Promote.
  B.message(1, 3);
  size_t Racy = B.write(3); // Unordered with 2's read.
  checkTrace(B, {Racy}, /*AccessClockOps=*/2);
}

TEST(AccessHistory, PromotedHistorySurvivesLaterWrites) {
  // FastTrack would demote the reads at 3's write. Algorithm 2 keeps Cr_x,
  // so 4's write, ordered after 3's write and 1's read but not 2's read,
  // races again.
  TraceBuilder B;
  B.read(1);
  B.read(2); // Promote.
  B.message(1, 3);
  size_t First = B.write(3); // Races with 2's read.
  B.message(3, 4);
  size_t Second = B.write(4); // Still races with 2's read.
  B.message(2, 5);
  B.message(4, 5);
  B.write(5); // Ordered after everything.
  checkTrace(B, {First, Second}, /*AccessClockOps=*/4);
}

TEST(AccessHistory, SameThreadRereadInOneEpochIsStillChecked) {
  // No release separates 2's reads, so both carry the same epoch; FastTrack
  // would skip the second. Algorithm 2 checks it, and it races too.
  TraceBuilder B;
  B.write(1);
  size_t First = B.read(2);
  size_t Second = B.read(2);
  checkTrace(B, {First, Second}, /*AccessClockOps=*/0);
}

TEST(AccessHistory, LockProtectedAccessesDoNoFullClockWork) {
  // Every variable has its own lock, so every access to it is ordered
  // after the previous one: no read is ever promoted, and the access
  // handlers do no O(T) work whatever the sampling rate.
  constexpr size_t Threads = 8, Vars = 32;
  Trace T;
  for (size_t I = 0; I < 4000; ++I) {
    ThreadId Tid = static_cast<ThreadId>((I * 5 + I / 7) % Threads);
    VarId V = static_cast<VarId>((I * 11 + I / 3) % Vars);
    T.acquire(Tid, static_cast<SyncId>(V));
    T.read(Tid, V);
    if (I % 3 == 0)
      T.write(Tid, V);
    T.read(Tid, V);
    T.release(Tid, static_cast<SyncId>(V));
  }
  auto StMetrics = [&T](double Rate) {
    Trace Marked = T;
    markTrace(Marked, Rate, 9);
    EngineRun R = runEngine(Marked, EngineKind::SamplingNaive);
    EXPECT_TRUE(R.Declared.empty()) << "rate " << Rate;
    return R.Stats;
  };
  Metrics Full = StMetrics(1.0);
  Metrics None = StMetrics(0.0);
  ASSERT_GT(Full.RaceChecks, 8000u);
  EXPECT_EQ(Full.FullClockOps, None.FullClockOps);
}
