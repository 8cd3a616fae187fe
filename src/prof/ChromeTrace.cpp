//===- prof/ChromeTrace.cpp - Trace Event Format export --------------------=//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/prof/ChromeTrace.h"

#include "sampletrack/prof/Profiler.h"
#include "sampletrack/support/Json.h"

#include <algorithm>
#include <cstdio>

namespace sampletrack {
namespace prof {

using support::jsonEscape;

namespace {

/// Microseconds with sub-µs precision, relative to \p Base.
std::string micros(uint64_t Nanos, uint64_t Base) {
  char Buf[40];
  uint64_t Rel = Nanos >= Base ? Nanos - Base : 0;
  std::snprintf(Buf, sizeof(Buf), "%llu.%03llu",
                static_cast<unsigned long long>(Rel / 1000),
                static_cast<unsigned long long>(Rel % 1000));
  return Buf;
}

} // namespace

std::string toChromeTrace(std::span<const TraceSource> Sources) {
  uint64_t Base = ~0ull;
  for (const TraceSource &S : Sources)
    if (S.Prof)
      Base = std::min(Base, S.Prof->epochNanos());
  if (Base == ~0ull)
    Base = 0;

  std::string Out = "{\"traceEvents\": [\n";
  bool First = true;
  auto emit = [&](const std::string &Event) {
    if (!First)
      Out += ",\n";
    First = false;
    Out += "  " + Event;
  };

  for (size_t P = 0; P < Sources.size(); ++P) {
    const TraceSource &Src = Sources[P];
    if (!Src.Prof)
      continue;
    std::string Pid = std::to_string(P + 1);
    emit("{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": " + Pid +
         ", \"tid\": 0, \"args\": {\"name\": \"" +
         jsonEscape(Src.ProcessName) + "\"}}");
    std::vector<const Tree *> Trees = Src.Prof->trees();
    for (size_t T = 0; T < Trees.size(); ++T) {
      const Tree *Tr = Trees[T];
      std::string Tid = std::to_string(T + 1);
      emit("{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": " + Pid +
           ", \"tid\": " + Tid + ", \"args\": {\"name\": \"" +
           jsonEscape(Tr->name()) + "\"}}");
      Tree::TimelineCopy Copy = Tr->copyTimeline();
      for (const TimelineEvent &E : Copy.Timeline) {
        uint64_t Dur = E.EndNanos > E.StartNanos ? E.EndNanos - E.StartNanos
                                                 : 0;
        char DurBuf[40];
        std::snprintf(DurBuf, sizeof(DurBuf), "%llu.%03llu",
                      static_cast<unsigned long long>(Dur / 1000),
                      static_cast<unsigned long long>(Dur % 1000));
        emit("{\"ph\": \"X\", \"name\": \"" +
             jsonEscape(Copy.NodeNames[E.Node]) + "\", \"cat\": \"" +
             jsonEscape(Src.ProcessName) + "\", \"pid\": " + Pid +
             ", \"tid\": " + Tid +
             ", \"ts\": " + micros(E.StartNanos, Base) +
             ", \"dur\": " + DurBuf + "}");
      }
      for (const CounterSample &C : Copy.Counters)
        emit("{\"ph\": \"C\", \"name\": \"" + jsonEscape(C.Name) +
             "\", \"pid\": " + Pid + ", \"tid\": " + Tid +
             ", \"ts\": " + micros(C.Nanos, Base) + ", \"args\": {\"" +
             jsonEscape(C.Name) + "\": " + std::to_string(C.Value) + "}}");
    }
  }
  Out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return Out;
}

std::string toChromeTrace(const Profiler &P, std::string_view ProcessName) {
  TraceSource Src{&P, std::string(ProcessName)};
  return toChromeTrace(std::span<const TraceSource>(&Src, 1));
}

} // namespace prof
} // namespace sampletrack
