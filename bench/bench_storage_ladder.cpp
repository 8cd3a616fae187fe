//===- bench/bench_storage_ladder.cpp - Fig. 5 on the storage engine --------=/
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Fig. 5(a)/(b) measurements repeated on the mini storage engine —
/// the most MySQL-faithful substrate in this repository (B-tree latch
/// crabbing, buffer-pool map latch, WAL latch). Reports per-op latency of
/// every configuration relative to NT and the SU/SO improvement in
/// algorithmic overhead over ST at 3%. --workers W (1 to 64; 0 means 4)
/// sets the number of client threads.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "sampletrack/workload/StorageEngine.h"

#include <algorithm>
#include <chrono>
#include <thread>

using namespace sampletrack;
using namespace sampletrack::db;
using namespace stbench;

namespace {

/// The largest --workers value: client threads, each a registered runtime
/// thread next to the main thread.
constexpr size_t MaxWorkers = 64;

double runNsPerOp(rt::Mode M, double Rate, size_t Workers, size_t Ops,
                  uint64_t Seed) {
  rt::Config C;
  C.AnalysisMode = M;
  C.SamplingRate = Rate;
  // 64-slot clocks as in the paper's TSan setup: O(T) joins must cost
  // something for the skip machinery to pay off. One more slot when every
  // one of MaxWorkers clients runs next to the main thread.
  C.MaxThreads = std::max<size_t>(64, Workers + 1);
  C.Seed = Seed;
  rt::Runtime Rt(C);
  Database Db(Rt, 4, 512, 16384);

  std::vector<ThreadId> Tids;
  for (size_t W = 0; W < Workers; ++W) {
    ThreadId T = Rt.registerThread();
    Rt.onFork(0, T);
    Tids.push_back(T);
  }
  auto Start = std::chrono::steady_clock::now();
  std::vector<std::thread> Threads;
  for (size_t W = 0; W < Workers; ++W) {
    Threads.emplace_back([&, W] {
      ThreadId T = Tids[W];
      SplitMix64 Rng(Seed * 131 + W);
      for (size_t I = 0; I < Ops; ++I) {
        size_t Table = Rng.nextBelow(4);
        uint64_t Key = Rng.nextBelow(4000);
        if (Rng.nextBool(0.4))
          Db.put(T, Table, Key, I);
        else {
          uint64_t V;
          Db.get(T, Table, Key, V);
        }
      }
    });
  }
  for (size_t W = 0; W < Workers; ++W) {
    Threads[W].join();
    Rt.onJoin(0, Tids[W]);
  }
  auto End = std::chrono::steady_clock::now();
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(End -
                                                                  Start)
                 .count()) /
         static_cast<double>(Workers * Ops);
}

double bestOf(int Reps, rt::Mode M, double Rate, size_t Workers, size_t Ops,
              uint64_t Seed) {
  double Best = -1;
  for (int R = 0; R < Reps; ++R) {
    double V = runNsPerOp(M, Rate, Workers, Ops, Seed + R);
    if (Best < 0 || V < Best)
      Best = V;
  }
  return Best;
}

} // namespace

int main(int argc, char **argv) {
  Options O = Options::parse(argc, argv);
  // --workers W sets the client threads; 0, the default, means 4.
  if (O.Workers > MaxWorkers)
    Options::usage(argv[0]);
  const size_t Workers = O.Workers ? O.Workers : 4;
  std::printf("== Storage-engine latency ladder (Fig. 5 analogue) ==\n\n");
  std::printf("%zu client threads\n\n", Workers);

  const size_t Ops = static_cast<size_t>(6000 * O.Scale) + 500;

  bestOf(1, rt::Mode::NT, 0, Workers, Ops, O.Seed); // Warmup.
  double Nt = bestOf(2, rt::Mode::NT, 0, Workers, Ops, O.Seed);
  double Et = bestOf(2, rt::Mode::ET, 0, Workers, Ops, O.Seed);
  double Ft = bestOf(2, rt::Mode::FT, 0, Workers, Ops, O.Seed);

  Table Out({"config", "ns/op", "rel vs NT", "AO improvement vs ST"});
  Out.addRow({"NT", Table::fmt(Nt, 0), "1.00", "-"});
  Out.addRow({"ET", Table::fmt(Et, 0), Table::fmt(Et / Nt, 2), "-"});
  Out.addRow({"FT", Table::fmt(Ft, 0), Table::fmt(Ft / Nt, 2), "-"});

  for (double Rate : {0.003, 0.03, 0.10}) {
    double St = bestOf(2, rt::Mode::ST, Rate, Workers, Ops, O.Seed);
    double Su = bestOf(2, rt::Mode::SU, Rate, Workers, Ops, O.Seed);
    double So = bestOf(2, rt::Mode::SO, Rate, Workers, Ops, O.Seed);
    double AoSt = std::max(St - Et, Et * 0.02);
    char Label[32];
    auto AddRow = [&](const char *Engine, double Lat) {
      std::snprintf(Label, sizeof(Label), "%s%.3g%%", Engine, Rate * 100);
      double Improvement = Engine[0] == 'S' && Engine[1] != 'T'
                               ? 1.0 - (Lat - Et) / AoSt
                               : 0.0;
      Out.addRow({Label, Table::fmt(Lat, 0), Table::fmt(Lat / Nt, 2),
                  Engine[1] == 'T' ? "-" : Table::fmt(Improvement, 2)});
    };
    AddRow("ST", St);
    AddRow("SU", Su);
    AddRow("SO", So);
  }

  finish(Out, O);
  std::printf("\nexpected shape: NT < ET < sampling < FT; SU/SO beat ST "
              "most at the lowest rate (deep latch hierarchies make "
              "acquire skips count).\n");
  return 0;
}
