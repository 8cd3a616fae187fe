//===- e2ebench/src/Workloads.cpp - Workloads and set-up ------------------===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two workloads and the set-up phase that turns a seed into their
/// inputs. The workloads stress opposite layers of the same detectors:
///
///  - sync64-lowrate: 64 threads, ~70% lock operations on Zipf-contended
///    locks, Bernoulli sampling at 0.3% (the paper's regime). Timestamping
///    (O(T) joins and copies, freshness skips, ordered-list traversals,
///    copy-on-write) is nearly all of the work; the access check idles.
///  - access8-full: 8 threads, ~90% accesses, every access sampled (the
///    coin is bypassed). The access check, shadow histories and race-sink
///    dedup dominate; the shadow working set (4096 variables) fits a 2 MiB
///    per-core L2.
///
/// Both also drive a fleet loop against an in-process triaged server whose
/// corpus has the workload's own shape.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <sstream>

using namespace e2e;

namespace {

WorkloadSpec sync64LowRate() {
  WorkloadSpec W;
  W.Name = "sync64-lowrate";
  GenConfig &G = W.Shape;
  G.NumThreads = 64;
  G.NumLocks = 96;
  G.NumVars = 6144;
  G.NumEvents = 600000;
  G.AccessFraction = 0.3;
  G.LockZipfTheta = 0.9;
  G.RacyVars = 8;
  W.SamplingRate = 0.003;
  W.UploadShape = G;
  W.UploadShape.NumEvents = 12000;
  return W;
}

WorkloadSpec access8Full() {
  WorkloadSpec W;
  W.Name = "access8-full";
  GenConfig &G = W.Shape;
  G.NumThreads = 8;
  G.NumLocks = 32;
  G.NumVars = 4096;
  G.NumEvents = 500000;
  G.AccessFraction = 0.9;
  G.LockZipfTheta = 0.8;
  G.RacyVars = 8;
  W.SamplingRate = 1.0;
  W.UploadShape = G;
  W.UploadShape.NumEvents = 12000;
  return W;
}

/// Distinct, seed-determined generator seed for corpus run \p I.
uint64_t corpusSeed(uint64_t Seed, size_t I) {
  return Seed * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL * (I + 1);
}

} // namespace

std::optional<WorkloadSpec> e2e::findWorkload(const std::string &Name,
                                              bool Tiny) {
  std::optional<WorkloadSpec> W;
  if (Name == "sync64-lowrate")
    W = sync64LowRate();
  else if (Name == "access8-full")
    W = access8Full();
  if (W && Tiny) {
    W->Shape.NumEvents /= 50;
    W->UploadShape.NumEvents /= 10;
    W->CorpusRuns = 6;
  }
  return W;
}

api::SessionConfig e2e::sessionConfig(const WorkloadSpec &W, uint64_t Seed,
                                      size_t NumThreads) {
  api::SessionConfig C;
  C.Sampling = W.SamplingRate >= 1.0 ? api::SamplerKind::Always
                                     : api::SamplerKind::Bernoulli;
  C.SamplingRate = W.SamplingRate;
  C.Seed = Seed;
  // The online runtime's fixed clock width: the trace's thread count.
  C.MaxThreads = NumThreads;
  return C;
}

std::unique_ptr<Inputs> e2e::setUp(const WorkloadSpec &W, uint64_t Seed,
                                   std::string *Error) {
  auto In = std::make_unique<Inputs>();
  GenConfig G = W.Shape;
  G.Seed = Seed;
  uint64_t T0 = prof::nowNanos();
  In->T = generateWorkload(G);
  In->GenNanos = prof::nowNanos() - T0;

  const api::SessionConfig Fleet = triaged::fleetAnalysisConfig();
  In->Corpus.reserve(W.CorpusRuns);
  for (size_t I = 0; I < W.CorpusRuns; ++I) {
    GenConfig U = W.UploadShape;
    U.Seed = corpusSeed(Seed, I);
    CorpusItem C;
    C.T = generateWorkload(U);
    std::ostringstream Os(std::ios::binary);
    writeTraceBinary(Os, C.T);
    C.TraceFrame = triaged::frame(triaged::WireContent::BinaryTrace, Os.str());
    C.Summary = api::AnalysisSession(Fleet).run(C.T).Triage;
    C.SummaryFrame = triaged::frame(triaged::WireContent::SignatureSummary,
                                    triaged::encodeSummary(C.Summary));
    In->Corpus.push_back(std::move(C));
  }

  // The durable store is a TriageLog directory on the in-memory
  // filesystem: every upload is still journaled and fsynced, but fsync
  // costs no device time (see README.md, "Why the store is in memory").
  triaged::ServerConfig SC;
  SC.NumWorkers = 2;
  SC.StorePath = "store";
  SC.Fs = &In->StoreFs;
  In->Server = std::make_unique<triaged::Server>(SC);
  if (!In->Server->start(Error))
    return nullptr;
  return In;
}

uint64_t e2e::traceDigest(const Trace &T) {
  uint64_t H = 0xcbf29ce484222325ULL;
  auto Mix = [&](uint64_t V) {
    H ^= V;
    H *= 0x100000001b3ULL;
  };
  Mix(T.numThreads());
  Mix(T.numSyncs());
  Mix(T.numVars());
  for (const Event &E : T) {
    Mix(E.Tid);
    Mix(static_cast<uint64_t>(E.Kind));
    Mix(E.Target);
  }
  return H;
}

double e2e::median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}

double e2e::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  size_t K = static_cast<size_t>(Q * static_cast<double>(V.size() - 1) + 0.5);
  std::nth_element(V.begin(), V.begin() + K, V.end());
  return V[K];
}

void Checks::tally(uint64_t Attempted, uint64_t Failed,
                   const std::string &What) {
  this->Attempted += Attempted;
  this->Failed += Failed;
  if (Failed)
    Failures.push_back(What + " (" + std::to_string(Failed) + " of " +
                       std::to_string(Attempted) + " failed)");
}
