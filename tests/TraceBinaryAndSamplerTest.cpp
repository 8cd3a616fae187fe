//===- tests/TraceBinaryAndSamplerTest.cpp - Binary IO + samplers ----------==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/sampling/PeriodSamplers.h"
#include "sampletrack/sampling/Sampler.h"
#include "sampletrack/support/ByteCodec.h"
#include "sampletrack/support/Rng.h"
#include "sampletrack/trace/TraceGen.h"
#include "sampletrack/trace/TraceIO.h"

#include "AllocCounter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>

using namespace sampletrack;

namespace {

Trace sampleTrace(uint64_t Seed) {
  GenConfig C;
  C.NumThreads = 5;
  C.NumLocks = 6;
  C.NumEvents = 2000;
  C.Seed = Seed;
  Trace T = generateWorkload(C);
  for (size_t I = 0; I < T.size(); I += 5)
    if (isAccess(T[I].Kind))
      T[I].Marked = true;
  return T;
}

Event access(VarId X = 0) { return Event(0, OpKind::Read, X); }

Trace unmarkedTrace(uint64_t Seed) {
  GenConfig C;
  C.NumThreads = 4;
  C.NumLocks = 4;
  C.NumEvents = 5000;
  C.Seed = Seed;
  return generateWorkload(C);
}

std::string encode(const Trace &T) {
  std::ostringstream Os(std::ios::binary);
  writeTraceBinary(Os, T);
  return Os.str();
}

/// Every event kind with random ids of every varint length (1 to 10
/// bytes), marks on about half the accesses. Not a well-formed execution:
/// the codec does not care.
Trace randomTrace(uint64_t Seed, size_t N) {
  SplitMix64 Rng(Seed);
  auto Id = [&](unsigned MaxBits) {
    unsigned Bits = static_cast<unsigned>(Rng.nextBelow(MaxBits + 1));
    return Bits == 0 ? 0 : Rng.next() >> (64 - Bits);
  };
  Trace T;
  for (size_t I = 0; I < N; ++I) {
    OpKind K = static_cast<OpKind>(Rng.nextBelow(9));
    ThreadId Tid = static_cast<ThreadId>(Id(32));
    bool ForkJoin = K == OpKind::Fork || K == OpKind::Join;
    uint64_t Target = ForkJoin ? Id(32) : isAccess(K) ? Id(64) : Id(32);
    T.append(Event(Tid, K, Target, isAccess(K) && Rng.nextBelow(2)));
  }
  return T;
}

/// A stream buffer that hands out at most \p First bytes on its first
/// read and everything after: the reader's first buffer then ends at
/// byte \p First, and it must refill there.
class SplitBuf : public std::streambuf {
public:
  SplitBuf(std::string_view Bytes, size_t First)
      : Bytes(Bytes), First(First) {}

protected:
  std::streamsize xsgetn(char *S, std::streamsize N) override {
    size_t Want = std::min(static_cast<size_t>(N), Bytes.size() - Pos);
    if (Reads++ == 0)
      Want = std::min(Want, First);
    Bytes.copy(S, Want, Pos);
    Pos += Want;
    return static_cast<std::streamsize>(Want);
  }
  int_type underflow() override {
    return Pos < Bytes.size() ? traits_type::to_int_type(Bytes[Pos])
                              : traits_type::eof();
  }

private:
  std::string_view Bytes;
  size_t First, Pos = 0, Reads = 0;
};

/// The three decode paths' outcome on one input.
struct Decoded {
  bool Ok = false;
  std::string Err;
  std::vector<Event> Events;
  size_t Threads = 0, Syncs = 0, Vars = 0;
};

Decoded fromTrace(bool Ok, const std::string &Err, const Trace &T) {
  return {Ok, Err, T.events(), T.numThreads(), T.numSyncs(), T.numVars()};
}

/// readTraceBinary over the bytes in place.
Decoded viaSpan(std::string_view Bytes) {
  Trace T;
  std::string Err;
  bool Ok = readTraceBinary(Bytes, T, &Err);
  return fromTrace(Ok, Err, T);
}

/// The whole-trace stream loader, behind sniffBinaryTrace.
Decoded viaStream(const std::string &Bytes) {
  std::istringstream Is(Bytes, std::ios::binary);
  if (!sniffBinaryTrace(Is))
    return {false, "no magic", {}, 0, 0, 0};
  Trace T;
  std::string Err;
  bool Ok = readTraceBinary(Is, T, &Err);
  return fromTrace(Ok, Err, T);
}

/// BinaryTraceReader in batches of \p Max, its first stream read ending
/// \p First bytes after the magic. The universes are those \ref
/// Trace::append derives from the events, as the whole-trace loaders
/// report them.
Decoded viaReader(const std::string &Bytes, size_t Max = 4096,
                  size_t First = SIZE_MAX) {
  if (Bytes.compare(0, 5, "STRC\x01", 5) != 0)
    return {false, "no magic", {}, 0, 0, 0};
  SplitBuf Sb(std::string_view(Bytes).substr(5), First);
  std::istream Is(&Sb);
  BinaryTraceReader R;
  Trace T;
  std::string Err;
  if (!R.open(Is, &Err))
    return fromTrace(false, Err, T);
  std::vector<Event> Batch;
  while (!R.done()) {
    if (!R.read(Batch, Max, &Err))
      return fromTrace(false, Err, T);
    for (const Event &E : Batch)
      T.append(E);
  }
  return fromTrace(true, Err, T);
}

void expectSame(const Decoded &A, const Decoded &B, const std::string &Why) {
  ASSERT_EQ(A.Ok, B.Ok) << Why << ": '" << A.Err << "' vs '" << B.Err << "'";
  if (!A.Ok)
    return;
  ASSERT_EQ(A.Events, B.Events) << Why;
  EXPECT_EQ(A.Threads, B.Threads) << Why;
  EXPECT_EQ(A.Syncs, B.Syncs) << Why;
  EXPECT_EQ(A.Vars, B.Vars) << Why;
}

/// Every error text the binary decoders had before the span decoder, plus
/// the span overload's own magic check.
const std::set<std::string> DecodeErrors = {
    "truncated binary trace header", "truncated binary trace body",
    "invalid event kind",            "truncated event",
    "marked non-access event",       "binary trace header inconsistent "
                                     "with events",
    "not a binary trace"};

} // namespace

//===----------------------------------------------------------------------===//
// Binary trace format
//===----------------------------------------------------------------------===//

TEST(BinaryTrace, GoldenBytesPinTheFormat) {
  // Every OpKind, marked and unmarked accesses, and ids on both sides of
  // each varint length boundary that matters: 127/128 (1 -> 2 bytes),
  // 2^14 (3 bytes), 2^32 (5 bytes) and 2^63 (10 bytes). The bytes are
  // those the per-byte stream writer produced before the byte codec
  // replaced it; a change here is a format break.
  Trace T;
  T.fork(0, 1);
  T.read(0, 0);
  T.write(1, 127, true);
  T.read(127, 128);
  T.write(128, uint64_t(1) << 14, true);
  T.acquire(uint32_t(1) << 14, 127);
  T.release(uint32_t(1) << 14, 127);
  T.releaseStore(1, 128);
  T.releaseJoin(0, uint32_t(1) << 14);
  T.acquireLoad(127, 0);
  T.read(0, uint64_t(1) << 32, true);
  T.write(1, uint64_t(1) << 63);
  T.read(128, (uint64_t(1) << 63) + 127, true);
  T.join(0, 1);
  const unsigned char Golden[] = {
      0x53, 0x54, 0x52, 0x43, 0x01, 0x81, 0x80, 0x01, 0x81, 0x80, 0x01, 0x80,
      0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0x0e, 0x04, 0x00,
      0x01, 0x00, 0x00, 0x00, 0x11, 0x01, 0x7f, 0x00, 0x7f, 0x80, 0x01, 0x11,
      0x80, 0x01, 0x80, 0x80, 0x01, 0x02, 0x80, 0x80, 0x01, 0x7f, 0x03, 0x80,
      0x80, 0x01, 0x7f, 0x06, 0x01, 0x80, 0x01, 0x07, 0x00, 0x80, 0x80, 0x01,
      0x08, 0x7f, 0x00, 0x10, 0x00, 0x80, 0x80, 0x80, 0x80, 0x10, 0x01, 0x01,
      0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0x10, 0x80,
      0x01, 0xff, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0x05,
      0x00, 0x01};
  std::string Bytes = encode(T);
  ASSERT_EQ(Bytes, std::string(reinterpret_cast<const char *>(Golden),
                               sizeof(Golden)));

  Decoded Want = fromTrace(true, "", T);
  expectSame(viaSpan(Bytes), Want, "span");
  expectSame(viaStream(Bytes), Want, "stream");
  expectSame(viaReader(Bytes), Want, "reader");
}

TEST(BinaryTrace, SpanStreamAndReaderAgreeWithARefillAtEveryOffset) {
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    Trace T = randomTrace(Seed, 150);
    std::string Bytes = encode(T);
    Decoded Want = fromTrace(true, "", T);
    expectSame(viaSpan(Bytes), Want, "span");
    expectSame(viaStream(Bytes), Want, "stream");
    for (size_t Max : {size_t(1), size_t(7), size_t(4096)})
      expectSame(viaReader(Bytes, Max), Want, "reader");
    // The reader reports the header's universes, which the writer took
    // from the trace.
    std::istringstream Is(Bytes, std::ios::binary);
    BinaryTraceReader R;
    ASSERT_TRUE(sniffBinaryTrace(Is) && R.open(Is));
    EXPECT_EQ(R.numThreads(), T.numThreads());
    EXPECT_EQ(R.numSyncs(), T.numSyncs());
    EXPECT_EQ(R.numVars(), T.numVars());
    EXPECT_EQ(R.size(), T.size());
    // The reader's first buffer ends at every byte offset of the body in
    // turn, header included. (A first read of 0 bytes is the end of the
    // stream.)
    for (size_t First = 1; First + 5 <= Bytes.size(); ++First)
      expectSame(viaReader(Bytes, 64, First), Want,
                 "first read of " + std::to_string(First) + " bytes");
  }
  // A generated execution, past one 16 KiB reader buffer.
  Trace Big = unmarkedTrace(9);
  std::string Bytes = encode(Big);
  ASSERT_GT(Bytes.size(), size_t(16) << 10);
  Decoded Want = fromTrace(true, "", Big);
  expectSame(viaSpan(Bytes), Want, "span");
  expectSame(viaStream(Bytes), Want, "stream");
  expectSame(viaReader(Bytes), Want, "reader");
}

TEST(BinaryTrace, EachCheckFailsWithItsOwnTextOnAllThreePaths) {
  // Header 2 threads, 3 syncs, 4 vars, then Count events from Body.
  auto Bin = [](uint64_t Count, std::initializer_list<uint8_t> Body) {
    std::string B = "STRC\x01";
    for (uint64_t V : {uint64_t(2), uint64_t(3), uint64_t(4), Count})
      support::putVarint(B, V);
    for (uint8_t C : Body)
      B.push_back(static_cast<char>(C));
    return B;
  };
  const uint8_t Read = 0x00, Acq = 0x02, Fork = 0x04, Marked = 0x10;
  struct Case {
    std::string Bytes;
    const char *Err; // Null: decodes.
  } Cases[] = {
      {"STRC\x01\x02\x03", "truncated binary trace header"},
      {Bin(2, {Read, 1, 3}), "truncated binary trace body"},
      {Bin(1, {0x09, 0, 0}), "invalid event kind"},
      {Bin(1, {0x0f, 0, 0}), "invalid event kind"},
      {Bin(1, {Read, 0x80, 0x80}), "truncated event"},
      {Bin(1, {Read, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
               0x80, 0x00, 0x00}),
       "truncated event"}, // An 11-byte varint.
      {Bin(1, {Acq | Marked, 0, 0}), "marked non-access event"},
      {Bin(1, {Fork | Marked, 0, 1}), "marked non-access event"},
      {Bin(1, {Read | Marked, 1, 3}), nullptr},
      {Bin(1, {Read, 2, 0}), "binary trace header inconsistent with events"},
      {Bin(1, {Read, 0, 4}), "binary trace header inconsistent with events"},
      {Bin(1, {Acq, 0, 3}), "binary trace header inconsistent with events"},
      {Bin(1, {Acq, 0, 2}), nullptr},
      // Fork and join targets index the thread universe, not the syncs.
      {Bin(1, {Fork, 0, 2}), "binary trace header inconsistent with events"},
      {Bin(1, {Fork, 0, 1}), nullptr},
      // Bits 5-7 of the tag are ignored, as they always were.
      {Bin(1, {0xe0 | Read, 0, 0}), nullptr},
  };
  for (const Case &C : Cases) {
    std::string Why = "case " + std::to_string(&C - Cases);
    for (const Decoded &D :
         {viaSpan(C.Bytes), viaStream(C.Bytes), viaReader(C.Bytes)}) {
      if (C.Err) {
        EXPECT_FALSE(D.Ok) << Why;
        EXPECT_EQ(D.Err, C.Err) << Why;
      } else {
        EXPECT_TRUE(D.Ok) << Why << ": " << D.Err;
      }
    }
  }
}

TEST(BinaryTrace, EveryPrefixAndByteFlipFailsOrAgreesOnAllThreePaths) {
  Trace T = randomTrace(11, 40);
  std::string Bytes = encode(T);
  auto CheckFailure = [](const Decoded &D, const std::string &Why) {
    EXPECT_FALSE(D.Ok) << Why;
    EXPECT_TRUE(DecodeErrors.count(D.Err)) << Why << ": '" << D.Err << "'";
  };

  // Every strict prefix fails: the header promises more events.
  for (size_t Len = 0; Len < Bytes.size(); ++Len) {
    std::string Cut = Bytes.substr(0, Len);
    std::string Why = "prefix of " + std::to_string(Len);
    CheckFailure(viaSpan(Cut), Why + " (span)");
    if (Len < 5)
      continue; // The stream paths need the magic before they decode.
    CheckFailure(viaStream(Cut), Why + " (stream)");
    CheckFailure(viaReader(Cut), Why + " (reader)");
    CheckFailure(viaReader(Cut, 3, Len / 2), Why + " (reader, split)");
  }

  // A byte flip either breaks a check, and all three paths fail with a
  // known text, or it keeps every check (a changed id still in range, a
  // smaller event count: the format has no checksum), and all three decode
  // the same trace.
  size_t Failed = 0;
  for (size_t Pos = 0; Pos < Bytes.size(); ++Pos)
    for (uint8_t Mask : {0x01, 0x08, 0x10, 0x40, 0x80, 0xff}) {
      std::string Flip = Bytes;
      Flip[Pos] = static_cast<char>(Flip[Pos] ^ Mask);
      std::string Why = "byte " + std::to_string(Pos) + " ^ " +
                        std::to_string(Mask);
      Decoded Span = viaSpan(Flip);
      if (Pos < 5) {
        CheckFailure(Span, Why);
        continue;
      }
      Decoded Stream = viaStream(Flip), Reader = viaReader(Flip);
      expectSame(Span, Stream, Why + " (span vs stream)");
      expectSame(Span, Reader, Why + " (span vs reader)");
      if (!Span.Ok) {
        ++Failed;
        CheckFailure(Span, Why + " (span)");
        CheckFailure(Stream, Why + " (stream)");
        CheckFailure(Reader, Why + " (reader)");
      }
    }
  EXPECT_GT(Failed, Bytes.size()) << "most flips should break a check";
}

TEST(BinaryTrace, HostileEventCountIsRefusedBeforeAllocating) {
  // A valid header that claims 2^40 events, then one real event. The span
  // decoder and the stream loader refuse the count against the bytes left
  // before they reserve for it; the reader, which never sizes anything by
  // the count, stops at the end of the bytes.
  Trace One;
  One.read(0, 0);
  std::string Valid = encode(One); // Magic, 1, 0, 1, 1, then r(V0) by T0.
  ASSERT_EQ(Valid.size(), 12u);
  std::string Hostile = Valid.substr(0, 8);
  support::putVarint(Hostile, uint64_t(1) << 40);
  Hostile += Valid.substr(9);

  constexpr uint64_t Budget = 64 << 10;
  Decoded D;
  uint64_t Bytes = bytesAllocatedBy([&] { D = viaSpan(Hostile); });
  EXPECT_FALSE(D.Ok);
  EXPECT_EQ(D.Err, "truncated binary trace body");
  EXPECT_LT(Bytes, Budget) << "span decode allocated " << Bytes;

  Bytes = bytesAllocatedBy([&] { D = viaStream(Hostile); });
  EXPECT_FALSE(D.Ok);
  EXPECT_EQ(D.Err, "truncated binary trace body");
  EXPECT_LT(Bytes, Budget) << "stream loader allocated " << Bytes;

  Bytes = bytesAllocatedBy([&] { D = viaReader(Hostile); });
  EXPECT_FALSE(D.Ok);
  EXPECT_EQ(D.Err, "truncated binary trace body");
  EXPECT_LT(Bytes, Budget) << "reader allocated " << Bytes;
}

TEST(BinaryTrace, RoundTripPreservesEverything) {
  Trace T = sampleTrace(3);
  std::stringstream SS(std::ios::in | std::ios::out | std::ios::binary);
  writeTraceBinary(SS, T);

  ASSERT_TRUE(sniffBinaryTrace(SS));
  Trace Back;
  std::string Err;
  ASSERT_TRUE(readTraceBinary(SS, Back, &Err)) << Err;
  ASSERT_EQ(T.size(), Back.size());
  for (size_t I = 0; I < T.size(); ++I)
    ASSERT_EQ(T[I], Back[I]) << "event " << I;
  EXPECT_EQ(T.numThreads(), Back.numThreads());
  EXPECT_EQ(T.numSyncs(), Back.numSyncs());
  EXPECT_EQ(T.numVars(), Back.numVars());
}

TEST(BinaryTrace, RejectsTruncatedAndCorruptInput) {
  Trace T = sampleTrace(6);
  std::stringstream SS(std::ios::in | std::ios::out | std::ios::binary);
  writeTraceBinary(SS, T);
  std::string Bytes = SS.str();

  // Truncations at various points must fail cleanly.
  for (size_t Cut : {6ul, 12ul, Bytes.size() / 2, Bytes.size() - 1}) {
    std::stringstream Cutted(Bytes.substr(0, Cut),
                             std::ios::in | std::ios::binary);
    ASSERT_TRUE(sniffBinaryTrace(Cutted));
    Trace Out;
    EXPECT_FALSE(readTraceBinary(Cutted, Out)) << "cut at " << Cut;
  }

  // A corrupt kind nibble in the first event's tag must be rejected.
  std::string Header = "STRC\x01";
  for (uint64_t V : {uint64_t(T.numThreads()), uint64_t(T.numSyncs()),
                     uint64_t(T.numVars()), uint64_t(T.size())})
    support::putVarint(Header, V);
  ASSERT_EQ(Bytes.substr(0, Header.size()), Header);
  std::string Corrupt = Bytes;
  Corrupt[Header.size()] = '\x0f';
  std::stringstream CorruptSS(Corrupt, std::ios::in | std::ios::binary);
  ASSERT_TRUE(sniffBinaryTrace(CorruptSS));
  Trace Out;
  std::string Err;
  EXPECT_FALSE(readTraceBinary(CorruptSS, Out, &Err));
  EXPECT_EQ(Err, "invalid event kind");
}

TEST(BinaryTrace, IsMuchSmallerThanText) {
  Trace T = sampleTrace(4);
  std::stringstream Text, Bin(std::ios::in | std::ios::out |
                              std::ios::binary);
  writeTrace(Text, T);
  writeTraceBinary(Bin, T);
  EXPECT_LT(Bin.str().size() * 2, Text.str().size())
      << "binary should be at least 2x smaller";
}

TEST(BinaryTrace, FileAutoDetectionWorksForBothFormats) {
  Trace T = sampleTrace(5);
  std::string TextPath = "/tmp/sampletrack_io_test.txt";
  std::string BinPath = "/tmp/sampletrack_io_test.bin";
  ASSERT_TRUE(writeTraceFile(TextPath, T));
  ASSERT_TRUE(writeTraceFileBinary(BinPath, T));

  Trace A, B;
  std::string Err;
  ASSERT_TRUE(readTraceFile(TextPath, A, &Err)) << Err;
  ASSERT_TRUE(readTraceFile(BinPath, B, &Err)) << Err;
  EXPECT_EQ(A.size(), T.size());
  EXPECT_EQ(B.size(), T.size());
  for (size_t I = 0; I < T.size(); ++I) {
    ASSERT_EQ(T[I], A[I]);
    ASSERT_EQ(T[I], B[I]);
  }
  std::remove(TextPath.c_str());
  std::remove(BinPath.c_str());
}

//===----------------------------------------------------------------------===//
// Pacer / Budget / ColdRegion samplers
//===----------------------------------------------------------------------===//

TEST(PacerSampler, ProducesContiguousPeriods) {
  PacerSampler S(0.5, 10, 7);
  std::vector<bool> Decisions;
  for (int I = 0; I < 500; ++I)
    Decisions.push_back(S.shouldSample(access()));
  // Decisions must be constant within each aligned 10-event window.
  for (size_t W = 0; W < Decisions.size() / 10; ++W)
    for (size_t I = 1; I < 10; ++I)
      ASSERT_EQ(Decisions[W * 10], Decisions[W * 10 + I]) << "window " << W;
  // And roughly half the windows sample.
  size_t On = 0;
  for (size_t W = 0; W < 50; ++W)
    On += Decisions[W * 10];
  EXPECT_NEAR(static_cast<double>(On), 25.0, 12.0);
}

TEST(BudgetSampler, NeverExceedsBudget) {
  BudgetSampler S(25, 1000, 3);
  size_t Taken = 0;
  for (int I = 0; I < 100000; ++I)
    if (S.shouldSample(access()))
      ++Taken;
  EXPECT_LE(Taken, 25u);
  EXPECT_EQ(S.remaining(), 25u - Taken);
  EXPECT_GT(Taken, 10u) << "should spend most of the budget";
}

TEST(ColdRegionSampler, HotLocationsFadeColdStayHot) {
  ColdRegionSampler S(8, 0.01, 9);
  // Hot location: sampled heavily at first (backoff 8 keeps the first ~8
  // at 100%, the next ~8 at 50%, ...), rarely later.
  size_t EarlyHot = 0, LateHot = 0;
  for (int I = 0; I < 50; ++I)
    EarlyHot += S.shouldSample(access(1));
  for (int I = 0; I < 5000; ++I)
    S.shouldSample(access(1));
  for (int I = 0; I < 1000; ++I)
    LateHot += S.shouldSample(access(1));
  EXPECT_GT(EarlyHot, 18u);
  EXPECT_LT(LateHot, 200u);
  // A cold location sampled for the first time is (almost) always taken.
  size_t Cold = 0;
  for (VarId V = 100; V < 150; ++V)
    Cold += S.shouldSample(access(V));
  EXPECT_GT(Cold, 40u);
}

//===----------------------------------------------------------------------===//
// markTrace: the Marked bits MarkedSampler replays
//===----------------------------------------------------------------------===//

TEST(MarkTrace, IsDeterministicAndRateAccurate) {
  Trace A = unmarkedTrace(1), B = unmarkedTrace(1);
  markTrace(A, 0.1, 42);
  markTrace(B, 0.1, 42);
  ASSERT_EQ(A.countMarked(), B.countMarked());
  for (size_t I = 0; I < A.size(); ++I)
    ASSERT_EQ(A[I].Marked, B[I].Marked) << "event " << I;

  size_t Accesses = A.countKind(OpKind::Read) + A.countKind(OpKind::Write);
  double Observed = static_cast<double>(A.countMarked()) / Accesses;
  EXPECT_NEAR(Observed, 0.1, 0.03);

  Trace C = unmarkedTrace(1);
  markTrace(C, 0.1, 43);
  bool Differs = false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I].Marked != C[I].Marked)
      Differs = true;
  EXPECT_TRUE(Differs) << "different seeds must give different sample sets";
}

TEST(MarkTrace, AtFullRateMarksEveryAccess) {
  Trace T = unmarkedTrace(2);
  markTrace(T, 1.0, 0);
  for (const Event &E : T)
    EXPECT_EQ(E.Marked, isAccess(E.Kind));
}
