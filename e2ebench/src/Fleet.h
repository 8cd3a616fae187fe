//===- e2ebench/src/Fleet.h - Closed-loop fleet uploads ---------*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A closed loop against the in-process triaged server: two client threads,
/// each sending its next upload only after the previous one was answered.
/// Uploads cycle through the corpus. One pass over the corpus in every
/// SummaryEvery uploads each run's pre-deduplicated summary (HTTP parse,
/// frame check, merge, journal append); the others upload each run's binary
/// trace (HTTP parse, frame check, trace decode, FT+SO analysis, merge,
/// journal append).
///
/// Latency is timed from Client::post to its return.
///
//===----------------------------------------------------------------------===//

#ifndef E2EBENCH_FLEET_H
#define E2EBENCH_FLEET_H

#include "Bench.h"

#include <atomic>

namespace e2e {

/// One runFor call: its uploads and their latency quantiles.
struct FleetBlock {
  double Seconds = 0;
  uint64_t Uploads = 0, Failed = 0;
  double P50Ms = 0, P99Ms = 0;
};

class FleetLoop {
public:
  static constexpr size_t NumClients = 2;

  /// \p Prof (may be null) receives one span tree per client.
  FleetLoop(Inputs &In, const WorkloadSpec &W, prof::Profiler *Prof);

  /// Drives the loop for about \p Nanos (in-flight uploads finish) and
  /// records the block. Traced blocks record one span per upload.
  void runFor(uint64_t Nanos, bool Traced);
  /// Forgets the blocks so far (after warm-up); the set of merged corpus
  /// runs is kept for the final check.
  void resetStats() { Blocks.clear(); }
  const std::vector<FleetBlock> &blocks() const { return Blocks; }
  /// Records the correctness checks: every upload (warm-up included)
  /// answered 200, and the warehouse holds exactly the signatures of the
  /// merged corpus runs.
  void check(Checks &C) const;

private:
  struct ClientLog {
    prof::Tree *PT = nullptr;
    /// The current block's latencies and failures.
    std::vector<double> LatencyMs;
    uint64_t Failed = 0;
    /// Totals since construction (warm-up included), for the checks.
    uint64_t AllAttempted = 0, AllFailed = 0;
    std::string FirstError;
    /// Corpus runs this client got a 200 for (since construction).
    std::vector<uint8_t> Merged;
  };

  void clientLoop(ClientLog &L, uint64_t EndNanos, bool Traced);

  Inputs &In;
  const WorkloadSpec &W;
  std::atomic<uint64_t> Next{0};
  ClientLog Logs[NumClients];
  std::vector<FleetBlock> Blocks;
};

} // namespace e2e

#endif // E2EBENCH_FLEET_H
