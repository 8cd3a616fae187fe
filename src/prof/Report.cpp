//===- prof/Report.cpp - Merged span-tree report renderers -----------------=//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/prof/Report.h"

#include "sampletrack/support/Json.h"

#include <cstdio>

namespace sampletrack {
namespace prof {

using support::jsonEscape;

namespace {

void stripNode(ReportNode &N) {
  N.InclusiveNanos = 0;
  N.ExclusiveNanos = 0;
  for (ReportNode &C : N.Children)
    stripNode(C);
}

std::string fmtNanos(uint64_t Nanos) {
  char Buf[32];
  if (Nanos >= 1000000000ull)
    std::snprintf(Buf, sizeof(Buf), "%.2fs", Nanos / 1e9);
  else if (Nanos >= 1000000ull)
    std::snprintf(Buf, sizeof(Buf), "%.2fms", Nanos / 1e6);
  else if (Nanos >= 1000ull)
    std::snprintf(Buf, sizeof(Buf), "%.2fus", Nanos / 1e3);
  else
    std::snprintf(Buf, sizeof(Buf), "%lluns",
                  static_cast<unsigned long long>(Nanos));
  return Buf;
}

void textNode(const ReportNode &N, size_t Depth, std::string &Out) {
  Out.append(2 * Depth, ' ');
  Out += N.Name;
  Out += "  count=" + std::to_string(N.Count);
  Out += "  incl=" + fmtNanos(N.InclusiveNanos);
  Out += "  excl=" + fmtNanos(N.ExclusiveNanos);
  for (const auto &[Name, Value] : N.Counters)
    Out += "  " + Name + "=" + std::to_string(Value);
  Out += '\n';
  for (const ReportNode &C : N.Children)
    textNode(C, Depth + 1, Out);
}

void jsonNode(const ReportNode &N, const std::string &Prefix, bool &First,
              std::string &Out) {
  std::string Path = Prefix.empty() ? N.Name : Prefix + "/" + N.Name;
  if (!First)
    Out += ", ";
  First = false;
  Out += "{\"path\": \"";
  Out += jsonEscape(Path);
  Out += "\", \"count\": ";
  Out += std::to_string(N.Count);
  Out += ", \"inclusiveNanos\": ";
  Out += std::to_string(N.InclusiveNanos);
  Out += ", \"exclusiveNanos\": ";
  Out += std::to_string(N.ExclusiveNanos);
  if (!N.Counters.empty()) {
    Out += ", \"counters\": {";
    for (size_t I = 0; I < N.Counters.size(); ++I) {
      if (I)
        Out += ", ";
      Out += '"';
      Out += jsonEscape(N.Counters[I].first);
      Out += "\": ";
      Out += std::to_string(N.Counters[I].second);
    }
    Out += "}";
  }
  Out += "}";
  for (const ReportNode &C : N.Children)
    jsonNode(C, Path, First, Out);
}

void csvNode(const ReportNode &N, const std::string &Prefix,
             std::string &Out) {
  std::string Path = Prefix.empty() ? N.Name : Prefix + "/" + N.Name;
  Out += Path + "," + std::to_string(N.Count) + "," +
         std::to_string(N.InclusiveNanos) + "," +
         std::to_string(N.ExclusiveNanos) + "\n";
  for (const ReportNode &C : N.Children)
    csvNode(C, Path, Out);
}

} // namespace

Report stripTiming(Report R) {
  stripNode(R.Root);
  return R;
}

std::string toText(const Report &R) {
  std::string Out;
  for (const ReportNode &C : R.Root.Children)
    textNode(C, 0, Out);
  return Out;
}

std::string toJsonArray(const Report &R) {
  std::string Out = "[";
  bool First = true;
  for (const ReportNode &C : R.Root.Children)
    jsonNode(C, "", First, Out);
  Out += "]";
  return Out;
}

std::string toCsv(const Report &R) {
  std::string Out = "path,count,inclusiveNanos,exclusiveNanos\n";
  for (const ReportNode &C : R.Root.Children)
    csvNode(C, "", Out);
  return Out;
}

} // namespace prof
} // namespace sampletrack
