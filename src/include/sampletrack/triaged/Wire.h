//===- sampletrack/triaged/Wire.h - Upload framing + summaries -*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire layer of the fleet ingestion service: what a `POST /v1/runs`
/// body actually contains, and the compact signature-summary artifact a CI
/// shard ships instead of a whole trace.
///
/// Two formats, both little-endian and FNV-1a checksummed with the same
/// rigor as the TriageStore format v2 (chop-every-prefix / flip-every-byte
/// negative-tested; a failed decode never yields partial data):
///
///  - **Signature summary** ("STSG"): a standalone rendering of one run's
///    deduplicated \ref triage::TriageSummary — signatures, hit counts,
///    exemplars, overflow accounting. ~30 bytes per *distinct* race, so a
///    shard that declared a million duplicates uploads kilobytes.
///    `tracegen_tool --summary` writes these next to binary traces.
///
///  - **Upload frame** ("STWF"): the length-prefixed envelope every
///    `POST /v1/runs` body wears. It names the payload kind (binary trace
///    or signature summary), carries the payload length and checksum, and
///    rejects truncation, padding, and bit flips before the server looks
///    at a single payload byte.
///
/// Layouts:
/// \code
///   summary := "STSG" u32(format=1) u64 fnv1a(payload) payload
///   payload := u32 sigVersion  u64 racesDeclared  u64 droppedDeclarations
///              u8 capped  u64 count
///              count * { u64 sig  u64 hits
///                        u64 exemplarEvent u32 exemplarTid
///                        u64 exemplarVar  u8 exemplarKind }
///
///   frame   := "STWF" u32(version=1) u8 content  u64 len  u64 fnv1a(body)
///              body[len]
/// \endcode
///
/// Both are written and read through support/ByteCodec.h; the summary
/// payload after sigVersion is triage::appendSummaryBody's body, the same
/// bytes a TriageLog journal record carries, and decodeSummary checks it
/// with triage::readSummaryBody.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_TRIAGED_WIRE_H
#define SAMPLETRACK_TRIAGED_WIRE_H

#include "sampletrack/support/FileSystem.h"
#include "sampletrack/triage/RaceSink.h"

#include <string>
#include <string_view>

namespace sampletrack {
namespace triaged {

/// What an upload frame's body is. The server analyzes BinaryTrace bodies
/// through a full api::AnalysisSession; SignatureSummary bodies were
/// deduplicated client-side and merge directly.
enum class WireContent : uint8_t { BinaryTrace = 0, SignatureSummary = 1 };

const char *wireContentName(WireContent C);

// -- Signature summaries ("STSG") ---------------------------------------

/// Serializes \p S into the standalone summary format.
std::string encodeSummary(const triage::TriageSummary &S);

/// Parses an encoded summary. On any defect — bad magic, other format or
/// signature versions, truncation, bit flips, trailing garbage, duplicate
/// signatures, out-of-range op kinds — returns false, fills \p Error, and
/// leaves \p Out untouched.
bool decodeSummary(std::string_view Bytes, triage::TriageSummary &Out,
                   std::string *Error = nullptr);

/// Writes \ref encodeSummary atomically-on-failure (partial files are
/// removed). Returns false on I/O failure. The \p Fs overload is the seam
/// the fault-injection tests drive short-write and fail-at-Nth-op
/// schedules through; the path-only one uses the real filesystem.
bool writeSummaryFile(const std::string &Path, const triage::TriageSummary &S,
                      std::string *Error = nullptr);
bool writeSummaryFile(support::FileSystem &Fs, const std::string &Path,
                      const triage::TriageSummary &S,
                      std::string *Error = nullptr);

/// Reads and decodes a summary file.
bool readSummaryFile(const std::string &Path, triage::TriageSummary &Out,
                     std::string *Error = nullptr);
bool readSummaryFile(support::FileSystem &Fs, const std::string &Path,
                     triage::TriageSummary &Out,
                     std::string *Error = nullptr);

/// True if \p Bytes starts with the summary magic (cheap content sniff for
/// tools that accept either traces or summaries).
bool sniffSummary(std::string_view Bytes);

// -- Upload frames ("STWF") ---------------------------------------------

/// A parsed frame: the declared content kind and a view of the verified
/// payload (aliasing the input buffer — valid only while it lives).
struct WireFrame {
  WireContent Content = WireContent::BinaryTrace;
  std::string_view Payload;
};

/// Wraps \p Payload in an upload frame.
std::string frame(WireContent C, std::string_view Payload);

/// Verifies and unwraps one frame. Rejects bad magic, unknown frame
/// versions, unknown content kinds, length/buffer mismatches (both
/// truncation and trailing garbage), and payload checksum failures.
bool parseFrame(std::string_view Bytes, WireFrame &Out,
                std::string *Error = nullptr);

} // namespace triaged
} // namespace sampletrack

#endif // SAMPLETRACK_TRIAGED_WIRE_H
