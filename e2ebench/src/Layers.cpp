//===- e2ebench/src/Layers.cpp - Per-layer measurements -------------------===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's direct layer measurements: each times the layer's own
/// public functions on the set-up inputs (median over repetitions), under a
/// benchmark-side span named after the layer, and checks the outputs.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <sstream>

using namespace e2e;

namespace {

constexpr int Reps = 5;

double elapsedNs(uint64_t T0) {
  return static_cast<double>(prof::nowNanos() - T0);
}

/// Keeps a computed value alive without a memory round trip.
template <typename T> void keep(const T &V) { asm volatile("" : : "g"(V)); }

} // namespace

void e2e::measureTraceLayer(const LayerContext &X) {
  const Trace &T = X.In.T;
  double Events = static_cast<double>(std::max<size_t>(1, T.size()));
  std::vector<double> Enc, Dec;
  std::string Bytes;
  for (int R = 0; R < Reps; ++R) {
    prof::Scope Span(X.PT, "trace/encode");
    std::ostringstream Os(std::ios::binary);
    uint64_t T0 = prof::nowNanos();
    writeTraceBinary(Os, T);
    Enc.push_back(elapsedNs(T0) / Events);
    Bytes = Os.str();
  }
  bool RoundTrips = true;
  for (int R = 0; R < Reps; ++R) {
    prof::Scope Span(X.PT, "trace/decode");
    std::istringstream Is(Bytes);
    Trace Back;
    uint64_t T0 = prof::nowNanos();
    bool Ok = sniffBinaryTrace(Is) && readTraceBinary(Is, Back);
    Dec.push_back(elapsedNs(T0) / Events);
    RoundTrips = RoundTrips && Ok && traceDigest(Back) == traceDigest(T);
  }
  X.C.expect(RoundTrips, "binary trace decodes back to the generated trace");
  X.M.add("trace.encode_ns_per_event", median(Enc), "ns", Reps);
  X.M.add("trace.decode_ns_per_event", median(Dec), "ns", Reps);
}

void e2e::measureSamplingLayer(const LayerContext &X) {
  api::SessionConfig Cfg = sessionConfig(X.W, X.Seed, X.In.T.numThreads());
  std::vector<double> Ns;
  uint64_t Size = 0;
  for (int R = 0; R < Reps; ++R) {
    prof::Scope Span(X.PT, "sampling/coin");
    std::unique_ptr<Sampler> S = Cfg.makeSampler();
    uint64_t Sampled = 0, Accesses = 0;
    uint64_t T0 = prof::nowNanos();
    for (const Event &E : X.In.T)
      if (isAccess(E.Kind)) {
        ++Accesses;
        Sampled += S->shouldSample(E);
      }
    Ns.push_back(elapsedNs(T0) /
                 static_cast<double>(std::max<uint64_t>(1, Accesses)));
    Size = Sampled;
  }
  X.M.add("sampling.coin_ns_per_access", median(Ns), "ns", Reps);
  X.M.exact("sampling.sample_size", Size);
}

void e2e::measureSupportLayer(const LayerContext &X) {
  constexpr size_t NumClocks = 64;
  constexpr size_t Ops = 1 << 17;
  // Clocks with every component nonzero, so no prefix is skipped.
  auto MakeClocks = [&](size_t Width) {
    SplitMix64 Rng(X.Seed ^ (0x9e3779b97f4a7c15ULL * Width));
    std::vector<VectorClock> Cs(NumClocks, VectorClock(Width));
    for (VectorClock &V : Cs)
      for (ThreadId T = 0; T < Width; ++T)
        V.set(T, 1 + Rng.nextBelow(1u << 20));
    return Cs;
  };
  auto TimeJoin = [&](size_t Width) {
    std::vector<VectorClock> Cs = MakeClocks(Width);
    std::vector<double> Batches;
    for (int R = 0; R < Reps; ++R) {
      prof::Scope Span(X.PT, "support/vc_join");
      uint64_t T0 = prof::nowNanos();
      for (size_t I = 0; I < Ops; ++I)
        Cs[I % NumClocks].joinWith(Cs[(I * 7 + 3) % NumClocks]);
      Batches.push_back(elapsedNs(T0) / Ops);
    }
    keep(Cs[0].get(0));
    return median(Batches);
  };
  auto TimeLeq = [&](size_t Width) {
    std::vector<VectorClock> Lo = MakeClocks(Width), Hi = Lo;
    for (VectorClock &V : Hi)
      for (ThreadId T = 0; T < Width; ++T)
        V.bump(T);
    std::vector<double> Batches;
    uint64_t Holds = 0;
    for (int R = 0; R < Reps; ++R) {
      prof::Scope Span(X.PT, "support/vc_leq");
      uint64_t T0 = prof::nowNanos();
      for (size_t I = 0; I < Ops; ++I)
        Holds += Lo[I % NumClocks].leq(Hi[I % NumClocks]);
      Batches.push_back(elapsedNs(T0) / Ops);
    }
    X.C.expect(Holds == Ops * Reps, "VectorClock::leq holds for dominated "
                                    "clocks");
    return median(Batches);
  };
  X.M.add("support.vc_join_ns.T64", TimeJoin(64), "ns", Reps);
  X.M.add("support.vc_join_ns.T8", TimeJoin(8), "ns", Reps);
  X.M.add("support.vc_leq_ns.T64", TimeLeq(64), "ns", Reps);
}

void e2e::measureTriageLayer(const LayerContext &X) {
  // Four passes over the corpus: the first merges mostly new signatures,
  // later ones the steady state of known ones.
  constexpr int Cycles = 4;
  triage::TriageStore Store;
  std::vector<double> MergeNs;
  for (int Cy = 0; Cy < Cycles; ++Cy)
    for (const CorpusItem &I : X.In.Corpus) {
      prof::Scope Span(X.PT, "triage/merge");
      uint64_t T0 = prof::nowNanos();
      Store.mergeRun(I.Summary);
      MergeNs.push_back(elapsedNs(T0));
    }

  support::FaultInjectionFs Fs;
  triage::TriageLog::Options Opt;
  Opt.Fs = &Fs;
  triage::TriageLog Log;
  std::string Err;
  bool Ok = Log.open("store", Opt, &Err);
  std::vector<double> AppendUs;
  size_t Run = 0;
  for (int Cy = 0; Ok && Cy < Cycles; ++Cy)
    for (const CorpusItem &I : X.In.Corpus) {
      prof::Scope Span(X.PT, "triage/journal_append");
      triage::TriageStore::MergeResult R;
      uint64_t T0 = prof::nowNanos();
      Ok = Log.appendRun(I.Summary, "run-" + std::to_string(++Run), 1, R,
                         &Err) &&
           Ok;
      AppendUs.push_back(elapsedNs(T0) / 1e3);
    }
  X.C.expect(Ok, "TriageLog journaled every corpus run" +
                     (Err.empty() ? "" : " (" + Err + ")"));
  X.C.expect(Log.store().records() == Store.records(),
             "journaled and in-memory warehouses agree");
  X.M.exact("triage.distinct_races", Store.size());
  X.M.add("triage.merge_ns", median(MergeNs), "ns", MergeNs.size());
  X.M.add("triage.journal_append_us", median(AppendUs), "us",
          AppendUs.size());
  X.M.exact("triage.bytes_appended", Log.bytesAppended(), "bytes");
}

void e2e::measureTriagedLayer(const LayerContext &X) {
  triaged::HttpLimits Limits;
  std::vector<double> ParseNs, DecodeNs, AnalyzeMs;
  bool Parsed = true, Decoded = true, Analyzed = true;
  for (const CorpusItem &I : X.In.Corpus) {
    for (const std::string *Body : {&I.TraceFrame, &I.SummaryFrame}) {
      std::string Req = "POST /v1/runs HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                        "Content-Type: application/x-sampletrack-upload\r\n"
                        "Content-Length: " +
                        std::to_string(Body->size()) + "\r\n\r\n" + *Body;
      prof::Scope Span(X.PT, "triaged/http_parse");
      triaged::HttpRequest Out;
      size_t Consumed = 0;
      int Status = 0;
      uint64_t T0 = prof::nowNanos();
      triaged::HttpParse P =
          triaged::parseRequest(Req, Limits, Out, Consumed, Status);
      ParseNs.push_back(elapsedNs(T0));
      Parsed = Parsed && P == triaged::HttpParse::Ok && Out.Body == *Body;
    }
    {
      prof::Scope Span(X.PT, "triaged/frame_decode");
      triaged::WireFrame F;
      triage::TriageSummary S;
      uint64_t T0 = prof::nowNanos();
      bool Ok = triaged::parseFrame(I.SummaryFrame, F) &&
                triaged::decodeSummary(F.Payload, S);
      DecodeNs.push_back(elapsedNs(T0));
      Decoded = Decoded && Ok && S == I.Summary;
    }
    {
      prof::Scope Span(X.PT, "triaged/analyze");
      uint64_t T0 = prof::nowNanos();
      api::SessionResult R =
          api::AnalysisSession(triaged::fleetAnalysisConfig()).run(I.T);
      AnalyzeMs.push_back(elapsedNs(T0) / 1e6);
      Analyzed = Analyzed && R.Triage == I.Summary;
    }
  }
  X.C.expect(Parsed, "parseRequest recovers every upload body");
  X.C.expect(Decoded, "every summary frame decodes to its summary");
  X.C.expect(Analyzed, "fleet analysis of each corpus trace repeats");
  X.M.add("triaged.http_parse_ns", median(ParseNs), "ns", ParseNs.size());
  X.M.add("triaged.frame_decode_ns", median(DecodeNs), "ns", DecodeNs.size());
  X.M.add("triaged.analyze_ms_per_trace", median(AnalyzeMs), "ms",
          AnalyzeMs.size());
}
