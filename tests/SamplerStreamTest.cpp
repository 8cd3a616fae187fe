//===- tests/SamplerStreamTest.cpp - Shared decision-stream contract -------==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
// Regression guard for the stateful-sampler contract of Sampler.h: the
// session consults shouldSample exactly once per access event, never for
// synchronization events, in trace order — regardless of how ingestion is
// batched across span boundaries, whether the per-event shim is used, and
// whether the lanes run sequentially or on parallel workers (the decision
// stream is always drawn once, on the ingest thread, and shipped with the
// batch).
//
//===----------------------------------------------------------------------===//

#include "sampletrack/api/AnalysisSession.h"

#include "sampletrack/sampling/PeriodSamplers.h"
#include "sampletrack/trace/SuiteGen.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>

using namespace sampletrack;

namespace {

/// Wraps another sampler and records every event it is consulted on, in
/// consultation order. Stateful by construction: any double-consultation or
/// reordering shifts the inner sampler's stream and the recorded sequence.
class RecordingSampler final : public Sampler {
public:
  explicit RecordingSampler(std::unique_ptr<Sampler> Inner)
      : Inner(std::move(Inner)) {}

  bool shouldSample(const Event &E) override {
    Consulted.push_back(E);
    bool Decision = Inner->shouldSample(E);
    Decisions.push_back(Decision);
    return Decision;
  }

  std::string name() const override {
    return "recording(" + Inner->name() + ")";
  }

  std::vector<Event> Consulted;
  std::vector<bool> Decisions;

private:
  std::unique_ptr<Sampler> Inner;
};

/// A mid-sized trace with every event kind (accesses, locks, fork/join,
/// atomics) so "never consulted for synchronization" actually bites.
Trace testTrace() { return generateSuiteTrace("bufwriter", 0.1, 11); }

std::vector<Event> accessEventsInOrder(const Trace &T) {
  std::vector<Event> Out;
  for (const Event &E : T)
    if (isAccess(E.Kind))
      Out.push_back(E);
  return Out;
}

/// Feeds T through a session in \p Step-sized spans with \p Workers lane
/// workers, using a RecordingSampler around periodic(3), and returns the
/// consultation log plus the session result.
std::pair<RecordingSampler, api::SessionResult>
feed(const Trace &T, size_t Step, size_t Workers, bool PerEventShim = false) {
  api::SessionConfig Cfg;
  Cfg.Engines = {EngineKind::SamplingO, EngineKind::SamplingNaive};
  Cfg.NumWorkers = Workers;

  RecordingSampler Rec(std::make_unique<PeriodicSampler>(3));
  api::AnalysisSession Session(Cfg);
  Session.withSampler(Rec);
  EXPECT_TRUE(Session.begin(T.numThreads()));
  const std::vector<Event> &Events = T.events();
  if (PerEventShim) {
    for (const Event &E : Events)
      Session.process(E);
  } else {
    for (size_t I = 0; I < Events.size(); I += Step)
      Session.process(std::span<const Event>(
          Events.data() + I, std::min(Step, Events.size() - I)));
  }
  api::SessionResult R = Session.finish();
  return {std::move(Rec), std::move(R)};
}

} // namespace

TEST(SamplerStream, ConsultedOncePerAccessInTraceOrderAcrossBatchSizes) {
  Trace T = testTrace();
  std::vector<Event> Expected = accessEventsInOrder(T);
  ASSERT_FALSE(Expected.empty());
  ASSERT_LT(Expected.size(), T.size()); // Sync events exist to skip.

  // Batch sizes straddling every boundary shape: single events, sizes
  // coprime to the trace length, and one giant span.
  for (size_t Step : {size_t(1), size_t(3), size_t(17), size_t(4096),
                      T.size()}) {
    SCOPED_TRACE("step=" + std::to_string(Step));
    auto [Rec, R] = feed(T, Step, /*Workers=*/0);
    // Exactly once per access — never zero, never per-lane — in order.
    EXPECT_EQ(Rec.Consulted, Expected);
    // And the decisions actually reached the lanes: periodic(3) samples
    // ceil(N/3) accesses, identically in both lanes.
    uint64_t Sampled = 0;
    for (bool D : Rec.Decisions)
      Sampled += D;
    ASSERT_EQ(R.Engines.size(), 2u);
    EXPECT_EQ(R.Engines[0].SampleSize, Sampled);
    EXPECT_EQ(R.Engines[0].Stats.SampledAccesses, Sampled);
    EXPECT_EQ(R.Engines[1].Stats.SampledAccesses, Sampled);
  }
}

TEST(SamplerStream, PerEventShimConsultsIdentically) {
  Trace T = testTrace();
  std::vector<Event> Expected = accessEventsInOrder(T);
  auto [Rec, R] = feed(T, /*Step=*/1, /*Workers=*/0, /*PerEventShim=*/true);
  EXPECT_EQ(Rec.Consulted, Expected);
  EXPECT_EQ(R.EventsProcessed, T.size());
}

TEST(SamplerStream, ParallelLanesNeverTouchTheSampler) {
  // With K lanes on worker threads, a buggy implementation that let lanes
  // re-consult the sampler would multiply (or reorder) consultations. The
  // stream must stay exactly one-per-access, in trace order, drawn on the
  // ingest thread.
  Trace T = testTrace();
  std::vector<Event> Expected = accessEventsInOrder(T);
  auto [SeqRec, SeqR] = feed(T, /*Step=*/777, /*Workers=*/0);
  for (size_t Workers : {size_t(1), size_t(2), size_t(8)}) {
    SCOPED_TRACE("workers=" + std::to_string(Workers));
    auto [Rec, R] = feed(T, /*Step=*/777, Workers);
    EXPECT_EQ(Rec.Consulted, Expected);
    EXPECT_EQ(Rec.Decisions, SeqRec.Decisions);
    EXPECT_TRUE(api::stripTiming(R) == api::stripTiming(SeqR));
  }
}

TEST(SamplerStream, BatchBoundariesDoNotShiftAStatefulSampler) {
  // periodic(3) keys decisions off the running access count alone; if the
  // session ever consulted per-batch state (reset, double-draw at span
  // edges), differently-chopped ingestion would select different samples.
  Trace T = testTrace();
  auto [RecA, A] = feed(T, /*Step=*/5, /*Workers=*/0);
  auto [RecB, B] = feed(T, /*Step=*/1009, /*Workers=*/2);
  EXPECT_EQ(RecA.Decisions, RecB.Decisions);
  EXPECT_TRUE(api::stripTiming(A) == api::stripTiming(B));
}

namespace {

/// \p Len events of which a fraction \p AccessShare are reads or writes
/// on 8 variables, randomly interleaved with lock operations; half of all
/// events, sync included, carry the Marked bit. Only the fields samplers
/// read matter here.
std::vector<Event> mixedEvents(size_t Len, double AccessShare, uint64_t Seed) {
  SplitMix64 Rng(Seed);
  std::vector<Event> Out;
  for (size_t I = 0; I < Len; ++I) {
    uint64_t Pick = Rng.nextBelow(8);
    OpKind Kind = Rng.nextDouble() < AccessShare
                      ? (Pick & 1 ? OpKind::Write : OpKind::Read)
                      : (Pick & 1 ? OpKind::Release : OpKind::Acquire);
    Out.emplace_back(ThreadId(Pick % 4), Kind, Pick, Rng.nextBool(0.5));
  }
  return Out;
}

} // namespace

TEST(SamplerStream, BatchDecideMatchesThePerEventLoop) {
  // decide() must leave exactly the decisions, count and sampler state of
  // the `isAccess && shouldSample` loop: one draw per access, in order,
  // none for a non-access, whatever the span length relative to the
  // batch paths' internal chunking.
  using Factory = std::function<std::unique_ptr<Sampler>()>;
  std::vector<std::pair<std::string, Factory>> Samplers;
  for (api::SamplerKind K :
       {api::SamplerKind::Always, api::SamplerKind::Never,
        api::SamplerKind::Bernoulli, api::SamplerKind::Periodic,
        api::SamplerKind::Marked}) {
    api::SessionConfig Cfg;
    Cfg.Sampling = K;
    Cfg.SamplingRate = 0.3;
    Cfg.SamplePeriod = 3;
    Cfg.Seed = 17;
    Samplers.emplace_back(api::samplerKindName(K),
                          [Cfg] { return Cfg.makeSampler(); });
  }
  for (double Rate : {0.003, 0.5, 1.0})
    Samplers.emplace_back("bernoulli" + std::to_string(Rate), [Rate] {
      return std::make_unique<BernoulliSampler>(Rate, 99);
    });
  Samplers.emplace_back("periodic(5,2)", [] {
    return std::make_unique<PeriodicSampler>(5, 2);
  });
  Samplers.emplace_back("targeted", [] {
    return std::make_unique<TargetedSampler>(std::unordered_set<VarId>{1, 6});
  });
  Samplers.emplace_back("pacer", [] {
    return std::make_unique<PacerSampler>(0.3, 7, 5);
  });
  Samplers.emplace_back("budget", [] {
    return std::make_unique<BudgetSampler>(40, 1000, 5);
  });
  Samplers.emplace_back("coldregion", [] {
    return std::make_unique<ColdRegionSampler>(4, 0.05, 5);
  });

  constexpr uint8_t Guard = 0xAB;
  for (double Share : {0.0, 0.3, 0.9, 1.0})
    for (size_t Len : {size_t(0), size_t(1), size_t(255), size_t(256),
                       size_t(257), size_t(4096)}) {
      std::vector<Event> Events = mixedEvents(Len, Share, Len * 31 + 7);
      for (const auto &[Name, Make] : Samplers) {
        SCOPED_TRACE(Name + " share=" + std::to_string(Share) +
                     " len=" + std::to_string(Len));
        std::unique_ptr<Sampler> Batch = Make(), Loop = Make();
        // Two rounds over the same span: the second catches a batch path
        // that leaves its sampler in a different state than the loop.
        for (int Round = 0; Round < 2; ++Round) {
          std::vector<uint8_t> Got(Len + 8, Guard), Want(Len + 8, Guard);
          uint64_t GotCount = Batch->decide(Events, Got);
          uint64_t WantCount = 0;
          for (size_t I = 0; I < Len; ++I) {
            bool D = isAccess(Events[I].Kind) && Loop->shouldSample(Events[I]);
            Want[I] = D;
            WantCount += D;
          }
          EXPECT_EQ(Got, Want) << "round " << Round; // Guard bytes included.
          EXPECT_EQ(GotCount, WantCount) << "round " << Round;
        }
      }
    }
}
