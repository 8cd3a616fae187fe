//===- sampletrack/prof/Report.h - Merged span-tree report ------*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The deterministic, merged view of a \ref prof::Profiler: one tree of
/// named spans with call counts, inclusive/exclusive nanoseconds and user
/// counters, children sorted by name, counters sorted by name. Two runs of
/// the same workload produce byte-identical reports after
/// \ref prof::stripTiming, for any worker count — the same
/// determinism contract api::stripTiming gives SessionResult.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_PROF_REPORT_H
#define SAMPLETRACK_PROF_REPORT_H

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace sampletrack {
namespace prof {

/// One merged span: aggregates summed over every thread tree that recorded
/// this path. Children and counters are name-sorted, so the default
/// memberwise equality is structural equality.
struct ReportNode {
  std::string Name;
  /// Times the span was entered (RAII scopes) or counted (manual samples).
  uint64_t Count = 0;
  /// Total nanoseconds inside this span, children included.
  uint64_t InclusiveNanos = 0;
  /// InclusiveNanos minus the children's InclusiveNanos, saturating at 0
  /// (parallel children can overlap a sequential parent).
  uint64_t ExclusiveNanos = 0;
  /// User counters, sorted by name.
  std::vector<std::pair<std::string, uint64_t>> Counters;
  /// Child spans, sorted by name.
  std::vector<ReportNode> Children;

  bool operator==(const ReportNode &O) const = default;
};

/// A merged profile. Root is an unnamed container; the top-level spans
/// ("session", "runtime", "explore", "request") are its children. A
/// default-constructed Report is the empty profile (profiling disabled).
struct Report {
  ReportNode Root;

  bool empty() const {
    return Root.Children.empty() && Root.Count == 0 && Root.Counters.empty();
  }
  bool operator==(const Report &O) const = default;
};

/// Returns \p R with every nanosecond field zeroed, recursively. Counts and
/// counters survive — they are the deterministic structure the tests
/// compare.
Report stripTiming(Report R);

/// Human-readable indented rendering (stable: a function of the report
/// bytes only), e.g.
///   session                 count=1  incl=1.2ms  excl=0.1ms
///     analyze               ...
std::string toText(const Report &R);

/// Flat JSON array fragment, one object per span in pre-order:
///   [{"path": "session/analyze/FT", "count": 3, "inclusiveNanos": ...,
///     "exclusiveNanos": ..., "counters": {...}}, ...]
/// Embedded by the session JSON reporter, the bench trajectory files and
/// the triaged /v1/stats endpoint.
std::string toJsonArray(const Report &R);

/// CSV rendering: header "path,count,inclusiveNanos,exclusiveNanos" plus
/// one row per span in pre-order.
std::string toCsv(const Report &R);

/// Merge workspace shared by Profiler::report and Tree (std::map keys give
/// the sorted order the report promises). Implementation detail.
struct ReportMergeNode {
  uint64_t Count = 0;
  uint64_t Nanos = 0;
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, ReportMergeNode> Children;
};

} // namespace prof
} // namespace sampletrack

#endif // SAMPLETRACK_PROF_REPORT_H
