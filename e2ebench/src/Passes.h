//===- e2ebench/src/Passes.h - Interleaved analysis passes ------*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The timed analysis passes over the workload's in-memory trace:
///
///  - offline.<E>: a sequential single-lane AnalysisSession::run (E in
///    FT/ST/SU/SO), all lanes drawing the same Bernoulli sample set;
///  - online.<M>: a single-threaded replay through the rt::Runtime hooks of
///    a fresh runtime per pass (M in ET/ST/SU/SO, plus FT in traced runs);
///    runtime construction is not timed;
///  - fanout: one FT+ST+SU+SO session with two lane workers.
///
/// main() interleaves one pass of every configuration per round, so a
/// burst of host noise lands on one pass of one configuration; each metric
/// is the median over the run's passes. Every pass after the first must
/// repeat the first pass's exact counters.
///
//===----------------------------------------------------------------------===//

#ifndef E2EBENCH_PASSES_H
#define E2EBENCH_PASSES_H

#include "Bench.h"

namespace e2e {

enum class PassKind : uint8_t { Offline, Online, Fanout };

/// One timed configuration and everything its passes accumulated.
struct PassLog {
  /// "offline.FT", "online.SO", "fanout", ...
  std::string Name;
  PassKind Kind = PassKind::Offline;
  EngineKind Engine = EngineKind::FastTrack;
  rt::Mode Mode = rt::Mode::ET;

  /// Wall ns per event of untraced and of traced passes.
  std::vector<double> NsPerEvent, TracedNsPerEvent;
  /// Session split of untraced offline/fanout passes (ns per event):
  /// SessionResult::IngestNanos and the lane's EngineRun::WallNanos.
  std::vector<double> IngestNs, LaneNs;
  /// Traced online passes: hook cost per call by class, timer overhead
  /// subtracted.
  std::vector<double> AccessNsPerOp, SyncNsPerOp;

  /// The first pass's exact results, which later passes must repeat.
  bool HaveFirst = false;
  Metrics FirstStats;
  uint64_t FirstRaces = 0;
  /// Offline: sorted race-signature set of the lane.
  std::vector<uint64_t> FirstSignatures;
  /// Fanout: per-lane counters.
  std::vector<Metrics> FirstLaneStats;
};

class PassRunner {
public:
  /// \p WithOnlineFT adds the online FT replay (a traced-run metric).
  PassRunner(const Trace &T, const api::SessionConfig &Base,
             bool WithOnlineFT, Checks &C);

  size_t size() const { return Logs.size(); }
  const std::vector<PassLog> &logs() const { return Logs; }
  const PassLog &log(const std::string &Name) const;

  /// Runs one pass of configuration \p I. A traced pass records a span in
  /// \p PT and, online, times every hook call by class.
  void run(size_t I, bool Traced, prof::Tree *PT);

  /// After every configuration ran once: ST, SU and SO share one sample
  /// set, so offline they must declare the same signature set and online
  /// the same race count; the fan-out lanes must match the offline lanes.
  void crossCheck();

  /// Forgets every timing so far (after warm-up); first-pass results stay.
  void resetTimings();

private:
  void runOffline(PassLog &L, bool Traced);
  void runOnline(PassLog &L, bool Traced);
  void runFanout(PassLog &L, bool Traced);

  const Trace &T;
  api::SessionConfig Base;
  Checks &C;
  double TimerNs = 0;
  std::vector<PassLog> Logs;
};

} // namespace e2e

#endif // E2EBENCH_PASSES_H
