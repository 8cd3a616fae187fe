//===- e2ebench/src/Fleet.cpp - Closed-loop fleet uploads -----------------===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "Fleet.h"

#include <set>
#include <thread>

using namespace e2e;

FleetLoop::FleetLoop(Inputs &In, const WorkloadSpec &W, prof::Profiler *Prof)
    : In(In), W(W) {
  for (size_t I = 0; I < NumClients; ++I) {
    Logs[I].Merged.assign(In.Corpus.size(), 0);
    if (Prof)
      Logs[I].PT = Prof->makeTree("client-" + std::to_string(I));
  }
}

void FleetLoop::clientLoop(ClientLog &L, uint64_t EndNanos, bool Traced) {
  triaged::Client Cl("127.0.0.1", In.Server->port());
  while (prof::nowNanos() < EndNanos) {
    uint64_t N = Next.fetch_add(1, std::memory_order_relaxed);
    size_t Run = N % In.Corpus.size();
    bool IsTrace = N / In.Corpus.size() % W.SummaryEvery != 0;
    const CorpusItem &Item = In.Corpus[Run];
    prof::Scope Span(Traced ? L.PT : nullptr,
                     IsTrace ? "upload/trace" : "upload/summary");
    triaged::Client::Response R;
    std::string Err;
    uint64_t T0 = prof::nowNanos();
    bool Ok = Cl.post("/v1/runs", "application/x-sampletrack-upload",
                      IsTrace ? Item.TraceFrame : Item.SummaryFrame, R, &Err);
    L.LatencyMs.push_back(static_cast<double>(prof::nowNanos() - T0) / 1e6);
    ++L.AllAttempted;
    if (Ok && R.Status == 200) {
      L.Merged[Run] = 1;
      continue;
    }
    ++L.Failed;
    ++L.AllFailed;
    if (L.FirstError.empty())
      L.FirstError = Ok ? "HTTP " + std::to_string(R.Status) + ": " + R.Body
                        : Err;
  }
}

void FleetLoop::runFor(uint64_t Nanos, bool Traced) {
  uint64_t T0 = prof::nowNanos();
  uint64_t End = T0 + Nanos;
  std::vector<std::thread> Threads;
  for (ClientLog &L : Logs)
    Threads.emplace_back(
        [this, &L, End, Traced] { clientLoop(L, End, Traced); });
  for (std::thread &T : Threads)
    T.join();
  FleetBlock B;
  B.Seconds = static_cast<double>(prof::nowNanos() - T0) / 1e9;
  std::vector<double> Latencies;
  for (ClientLog &L : Logs) {
    Latencies.insert(Latencies.end(), L.LatencyMs.begin(), L.LatencyMs.end());
    B.Failed += L.Failed;
    L.LatencyMs.clear();
    L.Failed = 0;
  }
  B.Uploads = Latencies.size();
  B.P50Ms = quantile(Latencies, 0.5);
  B.P99Ms = quantile(std::move(Latencies), 0.99);
  Blocks.push_back(B);
}

void FleetLoop::check(Checks &C) const {
  std::string FirstError;
  uint64_t AllAttempted = 0, AllFailed = 0;
  std::set<uint64_t> Expected;
  for (const ClientLog &L : Logs) {
    AllAttempted += L.AllAttempted;
    AllFailed += L.AllFailed;
    if (FirstError.empty())
      FirstError = L.FirstError;
    for (size_t I = 0; I < L.Merged.size(); ++I)
      if (L.Merged[I])
        for (const triage::TriageEntry &E : In.Corpus[I].Summary.Entries)
          Expected.insert(E.Signature);
  }
  C.tally(AllAttempted, AllFailed,
          "upload answered 200" +
              (FirstError.empty() ? "" : " (first error: " + FirstError + ")"));

  std::set<uint64_t> Stored;
  const triage::TriageStore Store = In.Server->snapshotStore();
  for (const triage::TriageStore::Record &R : Store.records())
    if (R.Hits > 0)
      Stored.insert(R.Signature);
  C.expect(!Expected.empty() && Stored == Expected,
           "warehouse signature set equals the in-process fleet analysis of "
           "the merged corpus runs");
}
