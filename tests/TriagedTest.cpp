//===- tests/TriagedTest.cpp - Fleet ingestion service tests ---------------==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
// The triaged subsystem end to end: the wire formats (signature summaries
// and upload frames, chop-every-prefix / flip-every-byte negative-tested),
// the incremental prefix-safe HTTP parser, a live server on an ephemeral
// loopback port exercised through the blocking client — every endpoint,
// malformed-upload rejection with the store untouched, the single-writer
// sequence-ordering determinism contract (N concurrent uploaders produce a
// store byte-identical to sequential local ingestion), a byte-pinned
// /v1/sarif against the exporter golden, suppressions round-tripping
// through the file loader, drain semantics, and the crash-safe atomic
// store save.
//
//===----------------------------------------------------------------------===//

#include "sampletrack/prof/ChromeTrace.h"
#include "sampletrack/prof/Profiler.h"
#include "sampletrack/support/Common.h"
#include "sampletrack/support/Json.h"
#include "sampletrack/trace/TraceGen.h"
#include "sampletrack/trace/TraceIO.h"
#include "sampletrack/triage/Exporters.h"
#include "sampletrack/triage/TriageLog.h"
#include "sampletrack/triage/TriageStore.h"
#include "sampletrack/triaged/Client.h"
#include "sampletrack/triaged/Http.h"
#include "sampletrack/triaged/Server.h"
#include "sampletrack/triaged/Wire.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

using namespace sampletrack;
using namespace sampletrack::triaged;

namespace {

RaceReport report(uint64_t Event, ThreadId Tid, VarId Var, OpKind K) {
  return RaceReport{Event, Tid, Var, K};
}

/// A deduplicated one-run summary with the given per-var hit counts, built
/// exactly like TriageTest's — worker-thread writes in insertion order.
triage::TriageSummary runWith(
    std::initializer_list<std::pair<VarId, uint64_t>> VarHits) {
  triage::RaceSink Sink;
  uint64_t Pos = 0;
  for (auto [Var, N] : VarHits)
    for (uint64_t I = 0; I < N; ++I)
      Sink.insert(report(Pos++, 1, Var, OpKind::Write));
  return Sink.summary();
}

uint64_t sigOfVar(VarId Var) {
  return triage::RaceSignature::of(Var, OpKind::Write, 1).Value;
}

std::string tmpPath(const char *Name) {
  return std::string("/tmp/sampletrack_triagedtest_") + Name + "_" +
         std::to_string(::getpid());
}

/// A raw TCP connection for the tests the blocking Client cannot express:
/// half-sent requests (deadline enforcement) and connections that just sit
/// in the queue (overload shedding).
struct RawConn {
  int Fd = -1;

  explicit RawConn(uint16_t Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(Port);
    ::inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
        0) {
      ::close(Fd);
      Fd = -1;
    }
  }
  ~RawConn() {
    if (Fd >= 0)
      ::close(Fd);
  }

  bool send(std::string_view Bytes) const {
    return Fd >= 0 &&
           ::send(Fd, Bytes.data(), Bytes.size(), MSG_NOSIGNAL) ==
               static_cast<ssize_t>(Bytes.size());
  }
  /// Reads until the peer closes (both shed and timed-out connections are
  /// closed by the server right after the response).
  std::string recvAll() const {
    std::string Out;
    char Buf[1024];
    ssize_t N;
    while (Fd >= 0 && (N = ::recv(Fd, Buf, sizeof(Buf), 0)) > 0)
      Out.append(Buf, static_cast<size_t>(N));
    return Out;
  }
};

/// A small deterministic racy trace for upload tests.
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

//===----------------------------------------------------------------------===//
// Wire: signature summaries
//===----------------------------------------------------------------------===//

TEST(WireSummary, RoundTripsEverythingIncludingOverflowAccounting) {
  triage::TriageSummary S = runWith({{10, 5}, {20, 2}, {30, 1}});
  S.RacesDeclared += 4; // Pretend 4 declarations were dropped at capacity.
  S.DroppedDeclarations = 4;
  S.Capped = true;

  std::string Bytes = encodeSummary(S);
  EXPECT_TRUE(sniffSummary(Bytes));
  EXPECT_FALSE(sniffSummary("STTS")); // The store magic is not a summary.
  EXPECT_FALSE(sniffSummary("ST"));

  triage::TriageSummary Back;
  std::string Err;
  ASSERT_TRUE(decodeSummary(Bytes, Back, &Err)) << Err;
  EXPECT_TRUE(Back == S);

  // The empty summary (a clean run) round-trips too.
  triage::TriageSummary Empty, EmptyBack;
  ASSERT_TRUE(decodeSummary(encodeSummary(Empty), EmptyBack, &Err)) << Err;
  EXPECT_TRUE(EmptyBack == Empty);
}

TEST(WireSummary, RejectsEveryPrefixAndEveryByteFlip) {
  std::string Bytes = encodeSummary(runWith({{10, 3}, {20, 1}}));

  // Every strict prefix must fail and leave the output untouched.
  for (size_t Len = 0; Len < Bytes.size(); ++Len) {
    triage::TriageSummary Out = runWith({{99, 1}});
    triage::TriageSummary Sentinel = Out;
    EXPECT_FALSE(decodeSummary(std::string_view(Bytes).substr(0, Len), Out))
        << "prefix of " << Len << " bytes decoded";
    EXPECT_TRUE(Out == Sentinel) << "failed decode mutated the output";
  }

  // Every single-byte corruption must fail: the header fields are
  // validated and the FNV-1a checksum covers the whole payload.
  for (size_t I = 0; I < Bytes.size(); ++I) {
    std::string Bad = Bytes;
    Bad[I] = static_cast<char>(Bad[I] ^ 0x20);
    triage::TriageSummary Out;
    EXPECT_FALSE(decodeSummary(Bad, Out)) << "flip at byte " << I;
  }

  // Trailing garbage after a valid document is corruption, not padding.
  triage::TriageSummary Out;
  EXPECT_FALSE(decodeSummary(Bytes + "x", Out));
}

TEST(WireSummary, RejectsSemanticCorruption) {
  // A structurally valid document with inconsistent content must not pass:
  // re-frame a tampered payload with a *correct* checksum.
  auto Reframe = [](std::string Payload) {
    std::string Frame = encodeSummary(triage::TriageSummary{});
    std::string Header = Frame.substr(0, 4 + 4); // magic + format version.
    // Recompute the checksum the same way the encoder does.
    Fnv1a H;
    H.bytes(Payload.data(), Payload.size());
    uint64_t Sum = H.value();
    for (int I = 0; I < 8; ++I)
      Header.push_back(static_cast<char>((Sum >> (8 * I)) & 0xff));
    return Header + Payload;
  };
  std::string Good = encodeSummary(runWith({{10, 2}}));
  std::string Payload = Good.substr(16);

  // Zero hit count on the entry (payload layout: 21-byte header + u64
  // count at 21, then sig at 29, hits at 37).
  std::string ZeroHits = Payload;
  for (int I = 0; I < 8; ++I)
    ZeroHits[37 + I] = 0;
  triage::TriageSummary Out;
  std::string Err;
  EXPECT_FALSE(decodeSummary(Reframe(ZeroHits), Out, &Err));
  EXPECT_NE(Err.find("zero hit count"), std::string::npos) << Err;

  // An op kind past the enum's end (last payload byte).
  std::string BadKind = Payload;
  BadKind.back() = 100;
  EXPECT_FALSE(decodeSummary(Reframe(BadKind), Out, &Err));
  EXPECT_NE(Err.find("bad op kind"), std::string::npos) << Err;

  // A capped flag with no dropped declarations is inconsistent.
  std::string BadCapped = Payload;
  BadCapped[20] = 1; // capped byte (after sigVersion + 2 u64 counters).
  EXPECT_FALSE(decodeSummary(Reframe(BadCapped), Out, &Err));
  EXPECT_NE(Err.find("capped flag"), std::string::npos) << Err;
}

TEST(WireSummary, FileRoundTripAndMissingFile) {
  std::string Path = tmpPath("summary");
  triage::TriageSummary S = runWith({{10, 5}, {20, 2}});
  std::string Err;
  ASSERT_TRUE(writeSummaryFile(Path, S, &Err)) << Err;
  triage::TriageSummary Back;
  ASSERT_TRUE(readSummaryFile(Path, Back, &Err)) << Err;
  EXPECT_TRUE(Back == S);
  std::remove(Path.c_str());

  EXPECT_FALSE(readSummaryFile(Path, Back, &Err));
  EXPECT_NE(Err.find("cannot open"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// Wire: upload frames
//===----------------------------------------------------------------------===//

TEST(WireFrame, RoundTripsBothContentKinds) {
  std::string Payload = "arbitrary payload bytes \x00\x01\xff";
  for (WireContent C :
       {WireContent::BinaryTrace, WireContent::SignatureSummary}) {
    std::string Framed = frame(C, Payload);
    WireFrame Out;
    std::string Err;
    ASSERT_TRUE(parseFrame(Framed, Out, &Err)) << Err;
    EXPECT_EQ(Out.Content, C);
    EXPECT_EQ(Out.Payload, Payload);
  }
  EXPECT_STREQ(wireContentName(WireContent::BinaryTrace), "binary-trace");
  EXPECT_STREQ(wireContentName(WireContent::SignatureSummary),
               "signature-summary");
}

TEST(WireFrame, RejectsCorruption) {
  std::string Framed = frame(WireContent::SignatureSummary, "payload");
  WireFrame Out;

  // Every strict prefix (truncation at any point).
  for (size_t Len = 0; Len < Framed.size(); ++Len)
    EXPECT_FALSE(
        parseFrame(std::string_view(Framed).substr(0, Len), Out))
        << "prefix of " << Len << " bytes parsed";

  // Every single-byte flip (magic, version, kind, length, checksum, body).
  for (size_t I = 0; I < Framed.size(); ++I) {
    std::string Bad = Framed;
    Bad[I] = static_cast<char>(Bad[I] ^ 0x04);
    EXPECT_FALSE(parseFrame(Bad, Out)) << "flip at byte " << I;
  }

  // Trailing garbage.
  std::string Err;
  EXPECT_FALSE(parseFrame(Framed + "z", Out, &Err));
  EXPECT_NE(Err.find("trailing garbage"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// HTTP parser
//===----------------------------------------------------------------------===//

namespace {

HttpParse parse(std::string_view Buf, HttpRequest &Out, size_t &Consumed,
                int &Status, const HttpLimits &Limits = HttpLimits{}) {
  return parseRequest(Buf, Limits, Out, Consumed, Status);
}

int statusOf(std::string_view Buf,
             const HttpLimits &Limits = HttpLimits{}) {
  HttpRequest R;
  size_t Consumed = 0;
  int Status = 0;
  EXPECT_EQ(parse(Buf, R, Consumed, Status, Limits), HttpParse::Bad)
      << Buf.substr(0, 40);
  return Status;
}

} // namespace

TEST(Http, ParsesPostWithHeadersQueryAndBody) {
  std::string Req = "POST /v1/runs?n=5&fast HTTP/1.1\r\n"
                    "Host: localhost\r\n"
                    "X-Sampletrack-Sequence:  7 \r\n"
                    "Content-Length: 5\r\n"
                    "\r\n"
                    "hello";
  HttpRequest R;
  size_t Consumed = 0;
  int Status = 0;
  ASSERT_EQ(parse(Req, R, Consumed, Status), HttpParse::Ok);
  EXPECT_EQ(Consumed, Req.size());
  EXPECT_EQ(R.Method, "POST");
  EXPECT_EQ(R.Path, "/v1/runs");
  EXPECT_EQ(R.Query, "n=5&fast");
  EXPECT_EQ(R.Version, "HTTP/1.1");
  EXPECT_EQ(R.Body, "hello");
  EXPECT_EQ(R.queryParam("n"), "5");
  EXPECT_EQ(R.queryParam("fast"), "");
  EXPECT_EQ(R.queryParam("absent"), "");
  // Case-insensitive header lookup, whitespace-trimmed values.
  ASSERT_NE(R.header("x-sampletrack-sequence"), nullptr);
  EXPECT_EQ(*R.header("X-SAMPLETRACK-SEQUENCE"), "7");
  EXPECT_EQ(R.header("nope"), nullptr);
}

TEST(Http, EveryStrictPrefixNeedsMore) {
  // The prefix-safety contract: any strict prefix of a valid request is
  // NeedMore — never a spurious Bad — so arbitrary socket chunking works.
  std::string Req = "POST /v1/runs HTTP/1.1\r\n"
                    "Content-Length: 3\r\n"
                    "Connection: close\r\n"
                    "\r\n"
                    "abc";
  for (size_t Len = 0; Len < Req.size(); ++Len) {
    HttpRequest R;
    size_t Consumed = 0;
    int Status = 0;
    EXPECT_EQ(parse(std::string_view(Req).substr(0, Len), R, Consumed,
                    Status),
              HttpParse::NeedMore)
        << "prefix of " << Len << " bytes";
  }
  HttpRequest R;
  size_t Consumed = 0;
  int Status = 0;
  EXPECT_EQ(parse(Req, R, Consumed, Status), HttpParse::Ok);
  EXPECT_TRUE(R.wantsClose());
}

TEST(Http, PipelinedRequestsConsumeExactly) {
  std::string First = "GET /healthz HTTP/1.1\r\n\r\n";
  std::string Second = "GET /v1/stats HTTP/1.1\r\n\r\n";
  std::string Buf = First + Second;
  HttpRequest R;
  size_t Consumed = 0;
  int Status = 0;
  ASSERT_EQ(parse(Buf, R, Consumed, Status), HttpParse::Ok);
  EXPECT_EQ(Consumed, First.size());
  EXPECT_EQ(R.Path, "/healthz");
  ASSERT_EQ(parse(std::string_view(Buf).substr(Consumed), R, Consumed,
                  Status),
            HttpParse::Ok);
  EXPECT_EQ(R.Path, "/v1/stats");
}

TEST(Http, KeepAliveSemantics) {
  HttpRequest R;
  size_t Consumed = 0;
  int Status = 0;
  ASSERT_EQ(parse("GET / HTTP/1.1\r\n\r\n", R, Consumed, Status),
            HttpParse::Ok);
  EXPECT_FALSE(R.wantsClose()); // 1.1 defaults to keep-alive.
  ASSERT_EQ(parse("GET / HTTP/1.0\r\n\r\n", R, Consumed, Status),
            HttpParse::Ok);
  EXPECT_TRUE(R.wantsClose()); // 1.0 defaults to close.
  ASSERT_EQ(parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", R,
                  Consumed, Status),
            HttpParse::Ok);
  EXPECT_FALSE(R.wantsClose());
  ASSERT_EQ(parse("GET / HTTP/1.1\r\nConnection: Close\r\n\r\n", R,
                  Consumed, Status),
            HttpParse::Ok);
  EXPECT_TRUE(R.wantsClose());
}

TEST(Http, RejectsMalformedRequestsWithTheRightStatus) {
  // Syntactically broken: 400.
  EXPECT_EQ(statusOf("GET /\r\n\r\n"), 400);            // No version.
  EXPECT_EQ(statusOf("GET / a b HTTP/1.1\r\n\r\n"), 400); // 4 words.
  EXPECT_EQ(statusOf("G(T / HTTP/1.1\r\n\r\n"), 400);   // Non-token method.
  EXPECT_EQ(statusOf("GET nopath HTTP/1.1\r\n\r\n"), 400);
  EXPECT_EQ(statusOf("GET / HTTP/1.1\r\nBad Header: x\r\n\r\n"), 400);
  EXPECT_EQ(statusOf("GET / HTTP/1.1\r\nNoColonHere\r\n\r\n"), 400);
  EXPECT_EQ(
      statusOf("POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n"), 400);
  EXPECT_EQ(statusOf("POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n"),
            400);

  // Duplicate Content-Length: the request-smuggling vector. Rejected even
  // when the copies agree — two parsers disagreeing on which value frames
  // the body disagree on where the next request starts.
  EXPECT_EQ(statusOf("POST / HTTP/1.1\r\nContent-Length: 2\r\n"
                     "Content-Length: 5\r\n\r\nhello"),
            400);
  EXPECT_EQ(statusOf("POST / HTTP/1.1\r\nContent-Length: 5\r\n"
                     "Content-Length: 5\r\n\r\nhello"),
            400);
  EXPECT_EQ(statusOf("POST / HTTP/1.1\r\nContent-Length: 5\r\n"
                     "content-length: 5\r\n\r\nhello"),
            400); // Case-insensitive field names still count as duplicates.
  // A single Content-Length stays fine (the negative's positive control).
  {
    HttpRequest R;
    size_t Consumed = 0;
    int St = 0;
    EXPECT_EQ(parse("POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello", R,
                    Consumed, St),
              HttpParse::Ok);
    EXPECT_EQ(R.Body, "hello");
  }

  // Unsupported-but-recognized: precise statuses.
  EXPECT_EQ(statusOf("GET / HTTP/2.0\r\n\r\n"), 505);
  EXPECT_EQ(statusOf("GET / SPDY/9\r\n\r\n"), 400); // Not even HTTP/.
  EXPECT_EQ(
      statusOf(
          "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
      501);

  // Limits: oversized body (413) and oversized header block (431).
  HttpLimits Small;
  Small.MaxHeaderBytes = 128;
  Small.MaxBodyBytes = 64;
  EXPECT_EQ(statusOf("POST / HTTP/1.1\r\nContent-Length: 65\r\n\r\n",
                     Small),
            413);
  std::string BigHeaders = "GET / HTTP/1.1\r\nX-Pad: " +
                           std::string(200, 'a'); // No terminator yet.
  EXPECT_EQ(statusOf(BigHeaders, Small), 431);
}

//===----------------------------------------------------------------------===//
// Server end to end (ephemeral loopback port, in-process)
//===----------------------------------------------------------------------===//

TEST(TriagedServer, ServesWarehouseEndpointsEndToEnd) {
  Server S({});
  std::string Err;
  ASSERT_TRUE(S.start(&Err)) << Err;
  ASSERT_NE(S.port(), 0);
  Client C("127.0.0.1", S.port());

  Client::Response Resp;
  ASSERT_TRUE(C.get("/healthz", Resp, &Err)) << Err;
  EXPECT_EQ(Resp.Status, 200);
  EXPECT_EQ(Resp.Body, "ok\n");

  // Upload a binary trace (analyzed server-side) then a summary.
  Trace T = racyTrace(7);
  UploadOutcome Up1, Up2;
  ASSERT_TRUE(C.uploadTrace(T, Up1, &Err)) << Err;
  EXPECT_EQ(Up1.Run, 1u);
  EXPECT_GT(Up1.Declared, 0u);
  EXPECT_GT(Up1.NewCount, 0u);

  ASSERT_TRUE(C.uploadSummary(runWith({{10, 5}}), Up2, &Err)) << Err;
  EXPECT_EQ(Up2.Run, 2u);
  EXPECT_EQ(Up2.NewCount, 1u);

  // The warehouse views come straight off the exporters.
  ASSERT_TRUE(C.get("/v1/ranked?n=5", Resp, &Err)) << Err;
  EXPECT_EQ(Resp.Status, 200);
  EXPECT_FALSE(Resp.Body.empty());

  ASSERT_TRUE(C.get("/v1/dashboard", Resp, &Err)) << Err;
  EXPECT_EQ(Resp.Status, 200);
  EXPECT_EQ(Resp.ContentType, "application/json");
  EXPECT_NE(
      Resp.Body.find(triage::RaceSignature{sigOfVar(10)}.hex()),
      std::string::npos);

  ASSERT_TRUE(C.get("/v1/sarif", Resp, &Err)) << Err;
  EXPECT_EQ(Resp.Status, 200);
  EXPECT_EQ(Resp.ContentType, "application/sarif+json");
  EXPECT_NE(Resp.Body.find("\"version\": \"2.1.0\""), std::string::npos);

  ASSERT_TRUE(C.get("/v1/stats", Resp, &Err)) << Err;
  EXPECT_EQ(Resp.Status, 200);
  EXPECT_NE(Resp.Body.find("\"uploadsAccepted\": 2"), std::string::npos)
      << Resp.Body;
  EXPECT_NE(Resp.Body.find("\"traceUploads\": 1"), std::string::npos);
  EXPECT_NE(Resp.Body.find("\"summaryUploads\": 1"), std::string::npos);

  // Per-run classification, after the fact.
  ASSERT_TRUE(C.get("/v1/runs/2/classified", Resp, &Err)) << Err;
  EXPECT_EQ(Resp.Status, 200);
  EXPECT_NE(Resp.Body.find("\"run\": 2"), std::string::npos);
  EXPECT_NE(Resp.Body.find("\"content\": \"signature-summary\""),
            std::string::npos);
  EXPECT_NE(Resp.Body.find("\"new\": 1"), std::string::npos);

  // Routing misses and method misuse.
  ASSERT_TRUE(C.get("/v1/runs/99/classified", Resp, &Err)) << Err;
  EXPECT_EQ(Resp.Status, 404);
  ASSERT_TRUE(C.get("/v1/nope", Resp, &Err)) << Err;
  EXPECT_EQ(Resp.Status, 404);
  ASSERT_TRUE(C.get("/v1/runs", Resp, &Err)) << Err; // GET on POST route.
  EXPECT_EQ(Resp.Status, 405);
  ASSERT_TRUE(C.post("/healthz", "text/plain", "x", Resp, &Err)) << Err;
  EXPECT_EQ(Resp.Status, 405);

  // The in-process snapshot agrees with what HTTP reported.
  triage::TriageStore Snap = S.snapshotStore();
  EXPECT_EQ(Snap.runCount(), 2u);
  EXPECT_TRUE(Snap.find(sigOfVar(10)) != nullptr);
  S.stop();
}

TEST(TriagedServer, EveryWorkerTreeExistsWhenStartReturns) {
  // start() makes every worker's profiler tree before it spawns the
  // workers, so the live profile names all of them at once, not only the
  // ones the scheduler has got round to running.
  ServerConfig Cfg;
  Cfg.NumWorkers = 3;
  Server S(Cfg);
  std::string Err;
  ASSERT_TRUE(S.start(&Err)) << Err;
  ASSERT_NE(S.profiler(), nullptr);
  std::vector<std::string> Names;
  for (const prof::Tree *T : S.profiler()->trees())
    Names.push_back(T->name());
  std::string Trace = prof::toChromeTrace(*S.profiler(), "triaged");
  S.stop();
  EXPECT_EQ(Names, (std::vector<std::string>{"http-worker-0", "http-worker-1",
                                             "http-worker-2"}));
  for (const std::string &Name : Names)
    EXPECT_NE(Trace.find(Name), std::string::npos) << Name;
}

TEST(TriagedServer, StatsCarryLatencyHistogramsAndSelfProfile) {
  Server S({});
  std::string Err;
  ASSERT_TRUE(S.start(&Err)) << Err;
  Client C("127.0.0.1", S.port());

  // Touch several routes so their histograms have data.
  Client::Response Resp;
  for (int I = 0; I < 3; ++I)
    ASSERT_TRUE(C.get("/healthz", Resp, &Err)) << Err;
  UploadOutcome Up;
  ASSERT_TRUE(C.uploadTrace(racyTrace(7), Up, &Err)) << Err;
  ASSERT_TRUE(C.get("/v1/stats", Resp, &Err)) << Err;
  ASSERT_EQ(Resp.Status, 200);

  support::JsonValue Stats;
  ASSERT_TRUE(support::JsonValue::parse(Resp.Body, Stats, &Err)) << Err;

  // Per-endpoint latency histograms: only routes that saw traffic appear,
  // each with the bounded-bucket quantile summary.
  const support::JsonValue *Latency = Stats.get("latency");
  ASSERT_NE(Latency, nullptr);
  ASSERT_TRUE(Latency->isObject());
  for (const char *Route : {"/healthz", "/v1/runs"}) {
    const support::JsonValue *R = Latency->get(Route);
    ASSERT_NE(R, nullptr) << Route << " missing from " << Resp.Body;
    EXPECT_GE(R->getNumber("count"), Route[1] == 'h' ? 3 : 1) << Route;
    // Quantiles are power-of-two bucket upper edges (ordered); the max is
    // the exact value, so p95's bucket edge may round past it.
    bool HasMax = false;
    double P50 = R->getNumber("p50Micros"), P95 = R->getNumber("p95Micros");
    R->getNumber("maxMicros", 0, &HasMax);
    EXPECT_LE(P50, P95) << Route;
    EXPECT_TRUE(HasMax) << Route;
  }
  // /v1/stats itself was hit only after the snapshot — absent or count>=0;
  // a route nobody touched must be absent.
  EXPECT_EQ(Latency->get("/v1/sarif"), nullptr);

  // The self-profile rides along: a flat span array covering the request
  // pipeline of the trace upload.
  const support::JsonValue *Profile = Stats.get("profile");
  ASSERT_NE(Profile, nullptr);
  ASSERT_TRUE(Profile->isArray());
  bool SawAnalyze = false;
  for (const support::JsonValue &Span : Profile->Array)
    if (Span.getString("path") == "request//v1/runs/analyze")
      SawAnalyze = true;
  EXPECT_TRUE(SawAnalyze) << Resp.Body;

  // The live profiler exports a chrome trace that parses and names the
  // worker threads.
  ASSERT_NE(S.profiler(), nullptr);
  std::string Trace = prof::toChromeTrace(*S.profiler(), "triaged");
  support::JsonValue Doc;
  ASSERT_TRUE(support::JsonValue::parse(Trace, Doc, &Err)) << Err;
  ASSERT_NE(Doc.get("traceEvents"), nullptr);
  EXPECT_NE(Trace.find("http-worker-0"), std::string::npos);
  S.stop();
}

TEST(TriagedServer, ProfilingCanBeDisabledPerConfig) {
  ServerConfig Cfg;
  Cfg.ProfilingEnabled = false;
  Server S(Cfg);
  std::string Err;
  ASSERT_TRUE(S.start(&Err)) << Err;
  Client C("127.0.0.1", S.port());

  Client::Response Resp;
  ASSERT_TRUE(C.get("/healthz", Resp, &Err)) << Err;
  ASSERT_TRUE(C.get("/v1/stats", Resp, &Err)) << Err;
  ASSERT_EQ(Resp.Status, 200);
  EXPECT_EQ(S.profiler(), nullptr);

  support::JsonValue Stats;
  ASSERT_TRUE(support::JsonValue::parse(Resp.Body, Stats, &Err)) << Err;
  const support::JsonValue *Profile = Stats.get("profile");
  ASSERT_NE(Profile, nullptr);
  EXPECT_TRUE(Profile->isArray());
  EXPECT_TRUE(Profile->Array.empty());
  // The latency histograms are gated with the profiler: no timing taken.
  const support::JsonValue *Latency = Stats.get("latency");
  ASSERT_NE(Latency, nullptr);
  EXPECT_TRUE(Latency->Object.empty()) << Resp.Body;
  S.stop();
}

TEST(TriagedServer, RejectsCorruptUploadsWithoutTouchingTheStore) {
  Server S({});
  std::string Err;
  ASSERT_TRUE(S.start(&Err)) << Err;
  Client C("127.0.0.1", S.port());
  Client::Response Resp;

  // Not a frame at all: 400 from parseFrame.
  ASSERT_TRUE(C.post("/v1/runs", "application/x-sampletrack-upload",
                     "definitely not a frame", Resp, &Err))
      << Err;
  EXPECT_EQ(Resp.Status, 400);

  // A checksum-corrupted frame: still 400, before any payload decoding.
  std::string Framed =
      frame(WireContent::SignatureSummary, encodeSummary(runWith({{1, 1}})));
  Framed[Framed.size() - 1] ^= 0x01;
  ASSERT_TRUE(C.post("/v1/runs", "application/x-sampletrack-upload", Framed,
                     Resp, &Err))
      << Err;
  EXPECT_EQ(Resp.Status, 400);

  // A valid frame whose payload is not what it claims: 422.
  ASSERT_TRUE(C.post("/v1/runs", "application/x-sampletrack-upload",
                     frame(WireContent::BinaryTrace, "junk"), Resp, &Err))
      << Err;
  EXPECT_EQ(Resp.Status, 422);
  ASSERT_TRUE(C.post("/v1/runs", "application/x-sampletrack-upload",
                     frame(WireContent::SignatureSummary, "junk"), Resp,
                     &Err))
      << Err;
  EXPECT_EQ(Resp.Status, 422);

  // A malformed sequence header: 400.
  ASSERT_TRUE(C.post("/v1/runs", "application/x-sampletrack-upload",
                     frame(WireContent::SignatureSummary,
                           encodeSummary(runWith({{1, 1}}))),
                     Resp, &Err, /*Sequence=*/0))
      << Err;
  EXPECT_EQ(Resp.Status, 200); // Sanity: the well-formed one lands.

  ServerStats St = S.stats();
  EXPECT_EQ(St.UploadsRejected, 4u);
  EXPECT_EQ(St.UploadsAccepted, 1u);
  EXPECT_EQ(S.snapshotStore().runCount(), 1u); // Rejections never merged.
  S.stop();
}

TEST(TriagedServer, RefusesAHostileThreadUniverseAndKeepsServing) {
  // A 16-byte binary trace whose one read names thread 199,999: analyzing
  // it would size 200,000 clocks of 200,000 entries per engine. The server
  // answers 422 with the session's reason and serves the next upload.
  Server S({});
  std::string Err;
  ASSERT_TRUE(S.start(&Err)) << Err;
  Client C("127.0.0.1", S.port());
  const std::string FarThreadRead("STRC\x01\xc0\x9a\x0c\x00\x01\x01"
                                  "\x00\xbf\x9a\x0c\x00",
                                  16);
  Client::Response Resp;
  ASSERT_TRUE(C.post("/v1/runs", "application/x-sampletrack-upload",
                     frame(WireContent::BinaryTrace, FarThreadRead), Resp,
                     &Err))
      << Err;
  EXPECT_EQ(Resp.Status, 422);
  EXPECT_NE(Resp.Body.find("thread universe of 200000 threads refused"),
            std::string::npos)
      << Resp.Body;

  // The widest lane sets the bound: 6,689 threads fit FT's clocks in 1 GiB
  // but not SO's, which take 24 bytes per component.
  Trace JustOver;
  JustOver.read(6688, 0);
  std::ostringstream Bin(std::ios::binary);
  writeTraceBinary(Bin, JustOver);
  ASSERT_TRUE(C.post("/v1/runs", "application/x-sampletrack-upload",
                     frame(WireContent::BinaryTrace, Bin.str()), Resp, &Err))
      << Err;
  EXPECT_EQ(Resp.Status, 422);
  EXPECT_NE(Resp.Body.find("thread universe of 6689 threads refused"),
            std::string::npos)
      << Resp.Body;

  UploadOutcome Up;
  ASSERT_TRUE(C.uploadTrace(racyTrace(3), Up, &Err)) << Err;
  EXPECT_EQ(Up.Run, 1u);
  EXPECT_GT(Up.Declared, 0u);
  ServerStats St = S.stats();
  EXPECT_EQ(St.UploadsRejected, 2u);
  EXPECT_EQ(St.UploadsAccepted, 1u);
  S.stop();
}

TEST(TriagedServer, RefusesAHostileSyncUniverseAndKeepsServing) {
  // A binary trace whose header declares 4e9 + 1 syncs and whose acquire
  // names lock 4,000,000,000: analyzing it would grow each engine's sync
  // table to 4e9 records. The server answers 422 with the session's reason
  // and serves the next upload.
  Server S({});
  std::string Err;
  ASSERT_TRUE(S.start(&Err)) << Err;
  Client C("127.0.0.1", S.port());
  Trace FarLock;
  FarLock.acquire(0, 4000000000u);
  FarLock.release(0, 4000000000u);
  std::ostringstream Bin(std::ios::binary);
  writeTraceBinary(Bin, FarLock);
  Client::Response Resp;
  ASSERT_TRUE(C.post("/v1/runs", "application/x-sampletrack-upload",
                     frame(WireContent::BinaryTrace, Bin.str()), Resp, &Err))
      << Err;
  EXPECT_EQ(Resp.Status, 422);
  EXPECT_NE(Resp.Body.find("sync universe of 4000000001 sync objects refused"),
            std::string::npos)
      << Resp.Body;

  UploadOutcome Up;
  ASSERT_TRUE(C.uploadTrace(racyTrace(3), Up, &Err)) << Err;
  EXPECT_EQ(Up.Run, 1u);
  EXPECT_GT(Up.Declared, 0u);
  ServerStats St = S.stats();
  EXPECT_EQ(St.UploadsRejected, 1u);
  EXPECT_EQ(St.UploadsAccepted, 1u);
  S.stop();
}

TEST(TriagedServer, SequenceGapTimesOutWith409) {
  ServerConfig Cfg;
  Cfg.SequenceTimeoutMillis = 200; // Fail fast; nothing will fill the gap.
  Server S(Cfg);
  std::string Err;
  ASSERT_TRUE(S.start(&Err)) << Err;
  Client C("127.0.0.1", S.port());

  std::string Body =
      frame(WireContent::SignatureSummary, encodeSummary(runWith({{1, 1}})));
  Client::Response Resp;
  ASSERT_TRUE(C.post("/v1/runs", "application/x-sampletrack-upload", Body,
                     Resp, &Err, /*Sequence=*/5))
      << Err;
  EXPECT_EQ(Resp.Status, 409);
  EXPECT_EQ(S.stats().SequenceTimeouts, 1u);
  EXPECT_EQ(S.snapshotStore().runCount(), 0u);

  // Sequence 1 is admitted immediately.
  UploadOutcome Up;
  ASSERT_TRUE(C.uploadSummary(runWith({{1, 1}}), Up, &Err, /*Sequence=*/1))
      << Err;
  EXPECT_EQ(Up.Run, 1u);
  S.stop();
}

TEST(TriagedServer, ConcurrentSequencedUploadsMatchSequentialIngest) {
  // THE determinism contract: N concurrent clients, each tagged with its
  // position in the fleet's ingest order, must leave the warehouse
  // byte-identical to merging the same summaries sequentially in-process.
  constexpr size_t N = 6;
  std::vector<triage::TriageSummary> Runs;
  for (size_t I = 0; I < N; ++I)
    // Overlapping signatures across runs (shared var 7) plus per-run fresh
    // ones, so classification actually varies with order.
    Runs.push_back(runWith({{100 + static_cast<VarId>(I) * 10,
                             static_cast<uint64_t>(I) + 1},
                            {7, 2}}));

  std::string ServerStorePath = tmpPath("concurrent_server");
  std::filesystem::remove_all(ServerStorePath);

  ServerConfig Cfg;
  Cfg.StorePath = ServerStorePath;
  Cfg.NumWorkers = N; // Every sequenced upload can hold a worker.
  Server S(Cfg);
  std::string Err;
  ASSERT_TRUE(S.start(&Err)) << Err;

  std::vector<UploadOutcome> Outcomes(N);
  std::vector<int> Ok(N, 0);
  std::vector<std::string> Errors(N);
  std::vector<std::thread> Uploaders;
  for (size_t I = 0; I < N; ++I)
    Uploaders.emplace_back([&, I] {
      // Reverse the arrival order: the highest sequence connects first and
      // must wait for every predecessor.
      std::this_thread::sleep_for(std::chrono::milliseconds((N - I) * 10));
      Client C("127.0.0.1", S.port());
      Ok[I] = C.uploadSummary(Runs[I], Outcomes[I], &Errors[I],
                              /*Sequence=*/I + 1);
    });
  for (std::thread &T : Uploaders)
    T.join();
  for (size_t I = 0; I < N; ++I) {
    ASSERT_TRUE(Ok[I]) << "upload " << I << ": " << Errors[I];
    EXPECT_EQ(Outcomes[I].Run, I + 1) << "sequence order violated";
  }
  S.stop();

  // The sequential reference: same summaries, same order, local mergeRun.
  triage::TriageStore Local;
  for (const triage::TriageSummary &R : Runs)
    Local.mergeRun(R);

  // The warehouse the server left behind — base segment plus replayed
  // journal — must serialize byte-identically to the sequential reference.
  triage::TriageLog Reopened;
  ASSERT_TRUE(Reopened.open(ServerStorePath, {}, &Err)) << Err;
  EXPECT_EQ(Reopened.store().serialize(), Local.serialize())
      << "concurrent sequenced ingest diverged from sequential ingest";

  // And the classification the clients saw matches a local replay.
  triage::TriageStore Replay;
  for (size_t I = 0; I < N; ++I) {
    triage::TriageStore::MergeResult M = Replay.mergeRun(Runs[I]);
    EXPECT_EQ(Outcomes[I].NewCount, M.NewSignatures) << "run " << I;
    EXPECT_EQ(Outcomes[I].KnownCount, M.KnownSignatures) << "run " << I;
    EXPECT_EQ(Outcomes[I].RegressedCount, M.RegressedSignatures)
        << "run " << I;
  }

  std::filesystem::remove_all(ServerStorePath);
}

TEST(TriagedServer, GoldenSarifOverHttpIsBytePinned) {
  // The same warehouse TriageTest's golden pins — built over the wire this
  // time — must render to the identical SARIF document byte for byte.
  std::string SuppPath = tmpPath("golden_supp");
  {
    std::ofstream Os(SuppPath);
    Os << "# suppress the flaky var-20 race\n"
       << triage::RaceSignature{sigOfVar(20)}.hex() << "\n";
  }

  ServerConfig Cfg;
  Cfg.ToolVersion = "1.2.3";
  Cfg.SuppressionFile = SuppPath;
  Server S(Cfg);
  std::string Err;
  ASSERT_TRUE(S.start(&Err)) << Err;
  Client C("127.0.0.1", S.port());

  UploadOutcome Up;
  ASSERT_TRUE(C.uploadSummary(runWith({{10, 5}, {20, 2}}), Up, &Err)) << Err;
  EXPECT_EQ(Up.NewCount, 1u);
  EXPECT_EQ(Up.SuppressedCount, 1u);

  Client::Response Resp;
  ASSERT_TRUE(C.get("/v1/sarif", Resp, &Err)) << Err;
  EXPECT_EQ(Resp.Status, 200);

  // Byte-for-byte the exporter's own rendering of the snapshot...
  EXPECT_EQ(Resp.Body, triage::toSarif(S.snapshotStore(), "1.2.3"));
  // ...and byte-for-byte the golden document TriageTest pins.
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
  EXPECT_EQ(Resp.Body, Expected);
  S.stop();
  std::remove(SuppPath.c_str());
}

TEST(TriagedServer, SuppressionsEndpointRoundTripsThroughTheLoader) {
  std::string SuppPath = tmpPath("supp_in");
  {
    std::ofstream Os(SuppPath);
    Os << triage::RaceSignature{sigOfVar(10)}.hex() << "\n"
       << triage::RaceSignature{sigOfVar(20)}.hex() << "\n";
  }
  ServerConfig Cfg;
  Cfg.SuppressionFile = SuppPath;
  Server S(Cfg);
  std::string Err;
  ASSERT_TRUE(S.start(&Err)) << Err;
  Client C("127.0.0.1", S.port());

  Client::Response Resp;
  ASSERT_TRUE(C.get("/v1/suppressions", Resp, &Err)) << Err;
  EXPECT_EQ(Resp.Status, 200);

  // What the endpoint serves is itself a valid suppression file.
  std::string OutPath = tmpPath("supp_out");
  {
    std::ofstream Os(OutPath);
    Os << Resp.Body;
  }
  triage::TriageStore Fresh;
  ASSERT_TRUE(Fresh.loadSuppressionFile(OutPath, &Err)) << Err;
  EXPECT_TRUE(Fresh.isSuppressed(sigOfVar(10)));
  EXPECT_TRUE(Fresh.isSuppressed(sigOfVar(20)));

  S.stop();
  std::remove(SuppPath.c_str());
  std::remove(OutPath.c_str());
}

TEST(TriagedServer, DrainStopsAcceptingAndPersistsTheStore) {
  std::string StorePath = tmpPath("drain_store");
  std::filesystem::remove_all(StorePath);
  ServerConfig Cfg;
  Cfg.StorePath = StorePath;
  Server S(Cfg);
  std::string Err;
  ASSERT_TRUE(S.start(&Err)) << Err;
  uint16_t Port = S.port();

  Client C("127.0.0.1", Port);
  UploadOutcome Up;
  ASSERT_TRUE(C.uploadSummary(runWith({{10, 2}}), Up, &Err)) << Err;

  S.drain();
  // A drained server refuses new connections outright.
  Client::Response Resp;
  EXPECT_FALSE(Client("127.0.0.1", Port).get("/healthz", Resp));
  // ...and the warehouse it leaves behind is complete and loadable — the
  // merge was journaled and fsynced before the upload's 200, so no final
  // save at drain time is needed.
  triage::TriageLog Loaded;
  ASSERT_TRUE(Loaded.open(StorePath, {}, &Err)) << Err;
  EXPECT_EQ(Loaded.store().runCount(), 1u);
  ASSERT_NE(Loaded.store().find(sigOfVar(10)), nullptr);
  EXPECT_EQ(Loaded.store().find(sigOfVar(10))->Hits, 2u);

  S.stop(); // Idempotent over drain.
  std::filesystem::remove_all(StorePath);
}

TEST(TriagedServer, ReloadsItsOwnStoreAcrossRestarts) {
  std::string StorePath = tmpPath("restart_store");
  std::filesystem::remove_all(StorePath);
  ServerConfig Cfg;
  Cfg.StorePath = StorePath;
  std::string Err;
  {
    Server S(Cfg);
    ASSERT_TRUE(S.start(&Err)) << Err;
    UploadOutcome Up;
    ASSERT_TRUE(Client("127.0.0.1", S.port())
                    .uploadSummary(runWith({{10, 2}}), Up, &Err,
                                   /*Sequence=*/0, "shard-7.run-1"))
        << Err;
    EXPECT_FALSE(Up.Deduplicated);
    S.stop();
  }
  {
    Server S(Cfg);
    ASSERT_TRUE(S.start(&Err)) << Err;
    Client C("127.0.0.1", S.port());
    // The same race again is known, not new: history survived the restart.
    UploadOutcome Up;
    ASSERT_TRUE(C.uploadSummary(runWith({{10, 1}}), Up, &Err)) << Err;
    EXPECT_EQ(Up.Run, 2u);
    EXPECT_EQ(Up.NewCount, 0u);
    EXPECT_EQ(Up.KnownCount, 1u);
    // Per-run classification for pre-restart runs survives: the journal
    // replay rebuilt run 1's breakdown at start.
    Client::Response Resp;
    ASSERT_TRUE(C.get("/v1/runs/1/classified", Resp, &Err)) << Err;
    EXPECT_EQ(Resp.Status, 200);
    ASSERT_TRUE(C.get("/v1/runs/2/classified", Resp, &Err)) << Err;
    EXPECT_EQ(Resp.Status, 200);
    // The idempotency index survived the restart too: replaying run 1's id
    // answers the original breakdown instead of double-counting.
    ASSERT_TRUE(C.uploadSummary(runWith({{10, 2}}), Up, &Err,
                                /*Sequence=*/0, "shard-7.run-1"))
        << Err;
    EXPECT_TRUE(Up.Deduplicated);
    EXPECT_EQ(Up.Run, 1u);
    EXPECT_EQ(S.snapshotStore().runCount(), 2u);
    S.stop();
  }
  std::filesystem::remove_all(StorePath);
}

//===----------------------------------------------------------------------===//
// Idempotent retries, request deadlines, overload shedding
//===----------------------------------------------------------------------===//

TEST(TriagedServer, RunIdDeduplicatesRetriedUploads) {
  Server S(ServerConfig{});
  std::string Err;
  ASSERT_TRUE(S.start(&Err)) << Err;
  Client C("127.0.0.1", S.port());

  // First upload under a pinned run id merges normally.
  UploadOutcome First;
  ASSERT_TRUE(C.uploadSummary(runWith({{10, 3}}), First, &Err,
                              /*Sequence=*/0, "ci-linux.42"))
      << Err;
  EXPECT_FALSE(First.Deduplicated);
  EXPECT_EQ(First.Run, 1u);
  EXPECT_EQ(First.NewCount, 1u);

  // The blind retry — the lost-200 window — answers the original's
  // breakdown and merges nothing.
  UploadOutcome Retry;
  ASSERT_TRUE(C.uploadSummary(runWith({{10, 3}}), Retry, &Err,
                              /*Sequence=*/0, "ci-linux.42"))
      << Err;
  EXPECT_TRUE(Retry.Deduplicated);
  EXPECT_EQ(Retry.Run, 1u);
  EXPECT_EQ(Retry.NewCount, 1u);
  EXPECT_EQ(S.snapshotStore().runCount(), 1u);
  EXPECT_EQ(S.snapshotStore().find(sigOfVar(10))->Hits, 3u)
      << "the retry double-counted its hits";
  EXPECT_EQ(S.stats().UploadsDeduplicated, 1u);

  // A different run id is a different run, even with identical bytes: run
  // ids are random per call, never payload-derived.
  UploadOutcome Other;
  ASSERT_TRUE(C.uploadSummary(runWith({{10, 3}}), Other, &Err,
                              /*Sequence=*/0, "ci-linux.43"))
      << Err;
  EXPECT_FALSE(Other.Deduplicated);
  EXPECT_EQ(Other.Run, 2u);
  EXPECT_EQ(S.snapshotStore().find(sigOfVar(10))->Hits, 6u);

  // A malformed run id is the caller's bug: 400, no merge.
  Client::Response Resp;
  std::string Body = frame(WireContent::SignatureSummary,
                           encodeSummary(runWith({{20, 1}})));
  ASSERT_TRUE(C.post("/v1/runs", "application/x-sampletrack-upload", Body,
                     Resp, &Err, /*Sequence=*/0, "bad id with spaces"))
      << Err;
  EXPECT_EQ(Resp.Status, 400);
  EXPECT_EQ(S.snapshotStore().runCount(), 2u);
  S.stop();
}

TEST(TriagedClient, RetriesExhaustAgainstADeadPort) {
  // Find a port that refuses connections: bind one ephemerally, then close
  // it without ever listening.
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  ::inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
  ASSERT_EQ(::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)),
            0);
  socklen_t Len = sizeof(Addr);
  ASSERT_EQ(::getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len), 0);
  uint16_t DeadPort = ntohs(Addr.sin_port);
  ::close(Fd);

  Client C("127.0.0.1", DeadPort);
  C.Retry.MaxAttempts = 3;
  C.Retry.BaseDelayMillis = 1; // Keep the test fast.
  C.Retry.JitterSeed = 7;
  UploadOutcome Up;
  std::string Err;
  EXPECT_FALSE(C.uploadSummary(runWith({{10, 1}}), Up, &Err));
  EXPECT_NE(Err.find("3 attempt(s)"), std::string::npos) << Err;
}

TEST(TriagedServer, SlowRequestIsTimedOutWith408) {
  ServerConfig Cfg;
  Cfg.Limits.RequestDeadlineMillis = 100;
  Cfg.IdleTimeoutMillis = 60000; // Only the deadline may fire.
  Server S(Cfg);
  std::string Err;
  ASSERT_TRUE(S.start(&Err)) << Err;

  // A slowloris client: starts a request, never finishes it. Trickling a
  // header byte would defeat an idle timeout — the wall-clock deadline is
  // what catches it.
  RawConn Conn(S.port());
  ASSERT_TRUE(Conn.send("GET /healthz HTTP/1.1\r\nHost: x\r\n"));
  std::string Resp = Conn.recvAll(); // Until the server closes on us.
  EXPECT_NE(Resp.find("HTTP/1.1 408 Request Timeout"), std::string::npos)
      << Resp;
  EXPECT_EQ(S.stats().RequestTimeouts, 1u);

  // A well-behaved client on the same server is untouched.
  Client C("127.0.0.1", S.port());
  Client::Response Ok;
  ASSERT_TRUE(C.get("/healthz", Ok, &Err)) << Err;
  EXPECT_EQ(Ok.Status, 200);
  S.stop();
}

TEST(TriagedServer, OverloadShedsWith503AndRetryAfter) {
  ServerConfig Cfg;
  Cfg.NumWorkers = 1;
  Cfg.MaxQueueDepth = 1;
  Cfg.Limits.RequestDeadlineMillis = 60000;
  Cfg.IdleTimeoutMillis = 60000;
  Server S(Cfg);
  std::string Err;
  ASSERT_TRUE(S.start(&Err)) << Err;

  // Occupy the only worker with a half-sent request, fill the one queue
  // slot with a second connection, then watch the third get shed.
  RawConn Busy(S.port());
  ASSERT_TRUE(Busy.send("GET /healthz HTTP/1.1\r\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  RawConn Queued(S.port());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  RawConn Shed(S.port());
  std::string Resp = Shed.recvAll();
  EXPECT_NE(Resp.find("HTTP/1.1 503 Service Unavailable"),
            std::string::npos)
      << Resp;
  EXPECT_NE(Resp.find("Retry-After: 1"), std::string::npos) << Resp;
  EXPECT_GE(S.stats().ConnectionsShed, 1u);

  // Unblock the worker so stop() does not wait out the deadline.
  ASSERT_TRUE(Busy.send("Host: x\r\n\r\n"));
  S.stop();
}

//===----------------------------------------------------------------------===//
// Crash-safe atomic store save
//===----------------------------------------------------------------------===//

TEST(AtomicSave, ReplacesTheTargetAndLeavesNoTempBehind) {
  std::string Dir = tmpPath("atomic_dir");
  std::filesystem::remove_all(Dir);
  ASSERT_TRUE(std::filesystem::create_directory(Dir));
  std::string Path = Dir + "/triage.store";

  triage::TriageStore Store;
  Store.mergeRun(runWith({{10, 1}}));
  std::string Err;
  ASSERT_TRUE(Store.save(Path, &Err)) << Err;
  // Overwrite with more history: the rename replaces the old file.
  Store.mergeRun(runWith({{20, 3}}));
  ASSERT_TRUE(Store.save(Path, &Err)) << Err;

  // Exactly one file in the directory — no .tmp residue.
  size_t Files = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir)) {
    EXPECT_EQ(E.path().string(), Path);
    ++Files;
  }
  EXPECT_EQ(Files, 1u);

  triage::TriageStore Back;
  ASSERT_TRUE(Back.load(Path, &Err)) << Err;
  EXPECT_EQ(Back.runCount(), 2u);
  EXPECT_NE(Back.find(sigOfVar(20)), nullptr);

  // A failing save (unwritable directory) reports cleanly and leaves no
  // partial files around.
  EXPECT_FALSE(Store.save(Dir + "/no/such/dir/x.store", &Err));
  EXPECT_FALSE(Err.empty());

  std::filesystem::remove_all(Dir);
}
