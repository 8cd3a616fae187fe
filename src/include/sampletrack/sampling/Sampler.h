//===- sampletrack/sampling/Sampler.h - Sampling strategies ----*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Strategies for choosing the sample set S (the Sampling Problem of
/// Section 3). The detectors are agnostic to the strategy; the paper
/// evaluates Bernoulli sampling of access events at fixed rates (0.3%, 3%,
/// 10%, 100%), which \ref BernoulliSampler implements. Only access events
/// are eligible: synchronization events must always be processed for
/// soundness.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_SAMPLING_SAMPLER_H
#define SAMPLETRACK_SAMPLING_SAMPLER_H

#include "sampletrack/support/Rng.h"
#include "sampletrack/trace/Event.h"

#include <cassert>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>

namespace sampletrack {

class Trace;

/// Decides, on the fly, whether an access event belongs to the sample set S.
///
/// The decision may be consulted exactly once per event, in trace order;
/// stateful samplers rely on that.
class Sampler {
public:
  virtual ~Sampler() = default;

  /// Returns true iff \p E is in the sample set. Only called for access
  /// events.
  virtual bool shouldSample(const Event &E) = 0;

  /// Decides a whole batch: writes `isAccess(E.Kind) && <decision>` to
  /// \p Out[I] for every \p Events[I] and returns how many were sampled.
  /// The contract is the per-event one: each access is decided exactly
  /// once, in trace order, and a non-access never draws (it gets a 0 and
  /// leaves the sampler's state alone), so a `decide` over a batch leaves
  /// the sampler exactly where the `isAccess && shouldSample` loop would,
  /// whatever the batch boundaries. \p Out must hold at least
  /// `Events.size()` bytes. The default is that loop; stateless samplers
  /// override it with a branch-free pass.
  virtual uint64_t decide(std::span<const Event> Events,
                          std::span<uint8_t> Out);

  /// Human-readable configuration, e.g. "bernoulli(3%)".
  virtual std::string name() const = 0;
};

/// Samples every access (the 100% configurations; also used to compare the
/// sampling engines against FastTrack on the full trace).
class AlwaysSampler final : public Sampler {
public:
  bool shouldSample(const Event &) override { return true; }
  uint64_t decide(std::span<const Event> Events,
                  std::span<uint8_t> Out) override;
  std::string name() const override { return "always"; }
};

/// Samples nothing; isolates pure streaming overhead.
class NeverSampler final : public Sampler {
public:
  bool shouldSample(const Event &) override { return false; }
  std::string name() const override { return "never"; }
};

/// Independent Bernoulli sampling of access events at a fixed \p Rate, the
/// paper's strategy (Section 6.1): "we generate a random number and skip the
/// event if the number is above a fixed threshold".
class BernoulliSampler final : public Sampler {
public:
  BernoulliSampler(double Rate, uint64_t Seed) : Rng(Seed), Rate(Rate) {
    assert(Rate >= 0.0 && Rate <= 1.0 && "rate must be a probability");
  }

  bool shouldSample(const Event &) override { return Rng.nextBool(Rate); }
  uint64_t decide(std::span<const Event> Events,
                  std::span<uint8_t> Out) override;

  std::string name() const override;

  double rate() const { return Rate; }

private:
  SplitMix64 Rng;
  double Rate;
};

/// Samples every K-th access event (deterministic; useful in tests where a
/// predictable S is needed).
class PeriodicSampler final : public Sampler {
public:
  explicit PeriodicSampler(uint64_t Period, uint64_t Offset = 0)
      : Period(Period), Counter(Offset) {
    assert(Period > 0 && "period must be positive");
  }

  bool shouldSample(const Event &) override {
    return Counter++ % Period == 0;
  }

  std::string name() const override {
    return "periodic(" + std::to_string(Period) + ")";
  }

private:
  uint64_t Period;
  uint64_t Counter;
};

/// Samples accesses to a fixed set of memory locations (RaceMob-style
/// static-analysis-driven sampling; Section 3's "accesses to specific
/// shared data structures").
class TargetedSampler final : public Sampler {
public:
  explicit TargetedSampler(std::unordered_set<VarId> Targets)
      : Targets(std::move(Targets)) {}

  bool shouldSample(const Event &E) override {
    return Targets.count(E.var()) != 0;
  }

  std::string name() const override {
    return "targeted(" + std::to_string(Targets.size()) + " vars)";
  }

private:
  std::unordered_set<VarId> Targets;
};

/// Defers to the Marked bit carried by the trace (the Analysis Problem's
/// "marked events" formulation; used to replay a fixed S).
class MarkedSampler final : public Sampler {
public:
  bool shouldSample(const Event &E) override { return E.Marked; }
  uint64_t decide(std::span<const Event> Events,
                  std::span<uint8_t> Out) override;
  std::string name() const override { return "marked"; }
};

/// Freezes \p S's decisions into \p T: every access's Marked bit becomes
/// its decision (other events keep theirs), drawn once per access in trace
/// order.
void markTrace(Trace &T, Sampler &S);

/// Pre-marks \p T for \ref MarkedSampler: draws every access's sampling
/// decision from a Bernoulli sampler at \p Rate and \p Seed (Rate >= 1.0
/// marks every access) and stores it in the Marked bit. Engines replaying
/// the result through a MarkedSampler see identical sample sets.
void markTrace(Trace &T, double Rate, uint64_t Seed);

} // namespace sampletrack

#endif // SAMPLETRACK_SAMPLING_SAMPLER_H
