//===- sampletrack/trace/TraceIO.h - Trace (de)serialization ---*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reader and writer for the RAPID-like text trace format, one event per
/// line:
///
/// \code
///   T0|acq(L1)
///   T0|w(V3)*        <- '*' marks membership in the sample set S
///   T0|rel(L1)
///   T0|fork(T1)
///   T1|ld(L2)
/// \endcode
///
/// Blank lines and lines starting with '#' are ignored. Identifiers are
/// nonnegative integers prefixed by T/L/V; the op mnemonics match
/// \ref opKindName.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_TRACE_TRACEIO_H
#define SAMPLETRACK_TRACE_TRACEIO_H

#include "sampletrack/trace/Trace.h"

#include <iosfwd>
#include <string>
#include <string_view>

namespace sampletrack {

/// Parses one event line. Returns true on success; on failure returns false
/// and fills \p Error if nonnull.
bool parseEventLine(const std::string &Line, Event &Out,
                    std::string *Error = nullptr);

/// Reads a whole trace from \p Is. Returns true on success; on failure
/// returns false and fills \p Error (with a line number) if nonnull.
bool readTrace(std::istream &Is, Trace &Out, std::string *Error = nullptr);

/// Reads a trace from the file at \p Path.
bool readTraceFile(const std::string &Path, Trace &Out,
                   std::string *Error = nullptr);

/// Writes \p T to \p Os, one event per line, with a header comment.
void writeTrace(std::ostream &Os, const Trace &T);

/// Writes \p T to the file at \p Path. Returns false on I/O failure.
bool writeTraceFile(const std::string &Path, const Trace &T);

/// Binary trace format: a fixed magic ("STRC\\1"), three varint universe
/// sizes, a varint event count, then per event one kind/marked byte (low 4
/// bits the \ref OpKind, bit 4 the mark) and two varints (tid, target).
/// Varints are support::putVarint's LEB128, so an event takes 3 to 21
/// bytes; roughly 3-5 on real traces, an order of magnitude smaller than
/// the text format. The writer encodes into a buffer and hands the stream
/// one write per 16 KiB.
void writeTraceBinary(std::ostream &Os, const Trace &T);

/// Writes \p T in the binary format. Returns false on I/O failure.
bool writeTraceFileBinary(const std::string &Path, const Trace &T);

/// The binary-trace decoder: reads a whole binary trace, magic included,
/// from \p Bytes in place. It refuses a header event count the remaining
/// bytes cannot hold (3 bytes per event) before reserving for it, and
/// checks every id against the header's universes. On success \p Out holds
/// the events, with the universes \ref Trace::append derives from their
/// ids (not the header's); bytes after the last event are ignored. Returns
/// false (with \p Error filled if nonnull) on malformed input.
bool readTraceBinary(std::string_view Bytes, Trace &Out,
                     std::string *Error = nullptr);

/// Reads a binary trace whose magic \ref sniffBinaryTrace has already
/// consumed: reads the rest of \p Is into memory and decodes it as the
/// span overload does.
bool readTraceBinary(std::istream &Is, Trace &Out,
                     std::string *Error = nullptr);

/// True if the stream starts with the binary trace magic. The magic is
/// consumed on a match; otherwise the stream position is restored.
bool sniffBinaryTrace(std::istream &Is);

/// Incremental reader for the binary trace format: decodes the header
/// eagerly (so consumers learn the thread/sync/var universes before any
/// event is materialized) and then yields events in caller-sized batches.
/// It takes the stream through rdbuf()->sgetn into one fixed 16 KiB
/// buffer and decodes whole events from it with the same checks and error
/// texts as \ref readTraceBinary, so api::AnalysisSession streams
/// multi-gigabyte traces through it without holding more than one batch
/// and one buffer. The reader reads ahead of the events it has returned:
/// the stream's position after it is unspecified.
class BinaryTraceReader {
public:
  /// Binds to \p Is and decodes the header. The caller must already have
  /// consumed the magic via \ref sniffBinaryTrace (which consumes it on a
  /// match), mirroring readTraceBinary's contract. Returns false (filling
  /// \p Error if nonnull) on a truncated header.
  bool open(std::istream &Is, std::string *Error = nullptr);

  size_t numThreads() const { return NumThreads; }
  size_t numSyncs() const { return NumSyncs; }
  size_t numVars() const { return NumVars; }
  /// Total events promised by the header.
  uint64_t size() const { return NumEvents; }
  /// Events decoded so far.
  uint64_t position() const { return Position; }
  /// True once every header-promised event has been decoded.
  bool done() const { return Position == NumEvents; }

  /// Decodes up to \p Max further events into \p Out (cleared first).
  /// Returns false on malformed or truncated input.
  bool read(std::vector<Event> &Out, size_t Max,
            std::string *Error = nullptr);

private:
  /// Moves the unread bytes to the front of \ref Buf and tops it up from
  /// the stream, until at least \p Need bytes are unread or it ends.
  void refill(size_t Need);

  std::istream *Is = nullptr;
  std::string Buf;
  size_t Head = 0; ///< First unread byte in Buf.
  bool Eof = false;
  size_t NumThreads = 0, NumSyncs = 0, NumVars = 0;
  uint64_t NumEvents = 0, Position = 0;
};

} // namespace sampletrack

#endif // SAMPLETRACK_TRACE_TRACEIO_H
