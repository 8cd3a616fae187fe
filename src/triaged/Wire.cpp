//===- triaged/Wire.cpp - Upload framing + summaries ------------------------=//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/triaged/Wire.h"

#include "sampletrack/support/ByteCodec.h"

using namespace sampletrack;
using namespace sampletrack::support;
using namespace sampletrack::triaged;

const char *sampletrack::triaged::wireContentName(WireContent C) {
  switch (C) {
  case WireContent::BinaryTrace:
    return "binary-trace";
  case WireContent::SignatureSummary:
    return "signature-summary";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Both formats use the warehouse's one byte codec (support/ByteCodec.h);
// the summary payload's body is triage::appendSummaryBody's.
//===----------------------------------------------------------------------===//

namespace {

constexpr char SummaryMagic[4] = {'S', 'T', 'S', 'G'};
constexpr uint32_t SummaryFormatVersion = 1;
constexpr char FrameMagic[4] = {'S', 'T', 'W', 'F'};
constexpr uint32_t FrameVersion = 1;

} // namespace

//===----------------------------------------------------------------------===//
// Signature summaries
//===----------------------------------------------------------------------===//

std::string sampletrack::triaged::encodeSummary(const triage::TriageSummary &S) {
  std::string Payload;
  Payload.reserve(29 + S.Entries.size() * triage::SummaryEntryBytes);
  putU32(Payload, triage::RaceSignature::Version);
  triage::appendSummaryBody(Payload, S);

  std::string Out;
  Out.reserve(16 + Payload.size());
  Out.append(SummaryMagic, 4);
  putU32(Out, SummaryFormatVersion);
  putU64(Out, fnv1a(Payload));
  Out += Payload;
  return Out;
}

bool sampletrack::triaged::decodeSummary(std::string_view Bytes,
                                         triage::TriageSummary &Out,
                                         std::string *Error) {
  ByteReader Rd(Bytes);
  if (!Rd.getMagic(SummaryMagic))
    return fail(Error, "not a signature summary (bad magic)");
  uint32_t Fmt = 0;
  uint64_t Sum = 0;
  if (!Rd.getU32(Fmt) || !Rd.getU64(Sum))
    return fail(Error, "truncated summary header");
  if (Fmt != SummaryFormatVersion)
    return fail(Error, "unsupported summary format version " +
                           std::to_string(Fmt) + " (this build reads " +
                           std::to_string(SummaryFormatVersion) + ")");
  if (fnv1a(Rd.rest()) != Sum)
    return fail(Error,
                "summary checksum mismatch (truncated or corrupted upload)");

  uint32_t SigVer = 0;
  if (!Rd.getU32(SigVer))
    return fail(Error, "truncated summary payload");
  if (SigVer != triage::RaceSignature::Version)
    return fail(Error, "race-signature version mismatch (summary has v" +
                           std::to_string(SigVer) + ", this build speaks v" +
                           std::to_string(triage::RaceSignature::Version) +
                           ")");
  return triage::readSummaryBody(Rd, Out, Error);
}

bool sampletrack::triaged::writeSummaryFile(support::FileSystem &Fs,
                                            const std::string &Path,
                                            const triage::TriageSummary &S,
                                            std::string *Error) {
  std::string Bytes = encodeSummary(S);
  std::unique_ptr<support::WritableFile> Os =
      Fs.openWrite(Path, /*Append=*/false);
  if (!Os)
    return fail(Error, "cannot write '" + Path + "'");
  // writeAll loops over short writes; a hard error mid-file removes the
  // partial artifact so a failed write never leaves a sniffable summary.
  if (!support::writeAll(*Os, Bytes) || !Os->close()) {
    Os->close();
    Fs.remove(Path);
    return fail(Error, "I/O error writing '" + Path + "'");
  }
  return true;
}

bool sampletrack::triaged::writeSummaryFile(const std::string &Path,
                                            const triage::TriageSummary &S,
                                            std::string *Error) {
  return writeSummaryFile(support::FileSystem::real(), Path, S, Error);
}

bool sampletrack::triaged::readSummaryFile(support::FileSystem &Fs,
                                           const std::string &Path,
                                           triage::TriageSummary &Out,
                                           std::string *Error) {
  std::string Bytes;
  if (!Fs.readFile(Path, Bytes, Error))
    return false;
  std::string Err;
  if (!decodeSummary(Bytes, Out, &Err))
    return fail(Error, "'" + Path + "': " + Err);
  return true;
}

bool sampletrack::triaged::readSummaryFile(const std::string &Path,
                                           triage::TriageSummary &Out,
                                           std::string *Error) {
  return readSummaryFile(support::FileSystem::real(), Path, Out, Error);
}

bool sampletrack::triaged::sniffSummary(std::string_view Bytes) {
  return ByteReader(Bytes).getMagic(SummaryMagic);
}

//===----------------------------------------------------------------------===//
// Upload frames
//===----------------------------------------------------------------------===//

std::string sampletrack::triaged::frame(WireContent C,
                                        std::string_view Payload) {
  std::string Out;
  Out.reserve(25 + Payload.size());
  Out.append(FrameMagic, 4);
  putU32(Out, FrameVersion);
  Out.push_back(static_cast<char>(C));
  putU64(Out, Payload.size());
  putU64(Out, fnv1a(Payload));
  Out.append(Payload.data(), Payload.size());
  return Out;
}

bool sampletrack::triaged::parseFrame(std::string_view Bytes, WireFrame &Out,
                                      std::string *Error) {
  ByteReader Rd(Bytes);
  if (!Rd.getMagic(FrameMagic))
    return fail(Error, "not an upload frame (bad magic)");
  uint32_t Ver = 0;
  uint8_t Content = 0;
  uint64_t Len = 0, Sum = 0;
  if (!Rd.getU32(Ver) || !Rd.getByte(Content) || !Rd.getU64(Len) ||
      !Rd.getU64(Sum))
    return fail(Error, "truncated frame header");
  if (Ver != FrameVersion)
    return fail(Error, "unsupported frame version " + std::to_string(Ver) +
                           " (this build speaks " +
                           std::to_string(FrameVersion) + ")");
  if (Content > static_cast<uint8_t>(WireContent::SignatureSummary))
    return fail(Error, "unknown frame content kind " +
                           std::to_string(Content));
  std::string_view Payload = Rd.rest();
  if (Payload.size() < Len)
    return fail(Error, "truncated frame payload (header promises " +
                           std::to_string(Len) + " bytes, got " +
                           std::to_string(Payload.size()) + ")");
  if (Payload.size() > Len)
    return fail(Error, "trailing garbage after the frame payload");
  if (fnv1a(Payload) != Sum)
    return fail(Error,
                "frame checksum mismatch (corrupted in transit)");
  Out.Content = static_cast<WireContent>(Content);
  Out.Payload = Payload;
  return true;
}
