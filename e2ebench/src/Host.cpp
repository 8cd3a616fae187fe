//===- e2ebench/src/Host.cpp - Host and provenance record -----------------===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The host shape every result carries: core count, CPU model, cache sizes,
/// the SIMD tier the clock kernels actually dispatched, compiler and build
/// type, plus the workload, seed and source identity. Everything is read
/// from the CPU (cpuid) and the C library, never from files outside the
/// checkout.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <unistd.h>

#include <cstring>
#include <sstream>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

using namespace e2e;

namespace {

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned Max = __get_cpuid_max(0x80000000, nullptr);
  if (Max >= 0x80000004) {
    char Brand[49] = {};
    for (unsigned I = 0; I < 3; ++I) {
      unsigned R[4] = {};
      __get_cpuid(0x80000002 + I, &R[0], &R[1], &R[2], &R[3]);
      std::memcpy(Brand + 16 * I, R, sizeof(R));
    }
    std::string S(Brand);
    size_t B = S.find_first_not_of(' '), E = S.find_last_not_of(' ');
    return B == std::string::npos ? "unknown" : S.substr(B, E - B + 1);
  }
#endif
  return "unknown";
}

long cacheBytes(int Name) {
  long V = ::sysconf(Name);
  return V > 0 ? V : 0;
}

std::string quoted(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out + "\"";
}

} // namespace

std::string e2e::hostRecordJson(const Options &O) {
  std::ostringstream Os;
  Os << "{\"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"cpu_model\": " << quoted(cpuModel())
     << ", \"l2_bytes\": " << cacheBytes(_SC_LEVEL2_CACHE_SIZE)
     << ", \"l3_bytes\": " << cacheBytes(_SC_LEVEL3_CACHE_SIZE)
     << ", \"simd_tier\": " << quoted(simd::tierName(simd::activeTier()))
     << ", \"compiler\": " << quoted(__VERSION__)
     << ", \"build_type\": " << quoted(E2EBENCH_BUILD_TYPE)
     << ", \"workload\": " << quoted(O.Workload) << ", \"seed\": " << O.Seed
     << ", \"seconds\": " << O.Seconds << ", \"trace\": " << (O.Trace ? 1 : 0)
     << ", \"tiny\": " << (O.Tiny ? "true" : "false")
     << ", \"commit\": " << quoted(O.Commit)
     << ", \"source_sha256\": " << quoted(O.SourceDigest) << "}";
  return Os.str();
}
