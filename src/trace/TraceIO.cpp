//===- trace/TraceIO.cpp - Trace (de)serialization -------------------------==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/trace/TraceIO.h"

#include "sampletrack/support/ByteCodec.h"

#include <cstring>
#include <fstream>
#include <sstream>

using namespace sampletrack;

namespace {

/// Consumes a decimal number prefixed by \p Prefix from Line[Pos...].
/// Returns true and advances \p Pos past the digits on success.
bool parsePrefixedId(const std::string &Line, size_t &Pos, char Prefix,
                     uint64_t &Out) {
  if (Pos >= Line.size() || Line[Pos] != Prefix)
    return false;
  ++Pos;
  if (Pos >= Line.size() || !isdigit(static_cast<unsigned char>(Line[Pos])))
    return false;
  uint64_t V = 0;
  while (Pos < Line.size() && isdigit(static_cast<unsigned char>(Line[Pos]))) {
    V = V * 10 + static_cast<uint64_t>(Line[Pos] - '0');
    ++Pos;
  }
  Out = V;
  return true;
}

struct OpSpec {
  const char *Name;
  OpKind Kind;
  char TargetPrefix;
};

constexpr OpSpec OpSpecs[] = {
    {"r", OpKind::Read, 'V'},          {"w", OpKind::Write, 'V'},
    {"acq", OpKind::Acquire, 'L'},     {"rel", OpKind::Release, 'L'},
    {"fork", OpKind::Fork, 'T'},       {"join", OpKind::Join, 'T'},
    {"st", OpKind::ReleaseStore, 'L'}, {"rj", OpKind::ReleaseJoin, 'L'},
    {"ld", OpKind::AcquireLoad, 'L'},
};

} // namespace

bool sampletrack::parseEventLine(const std::string &Line, Event &Out,
                                 std::string *Error) {
  auto Fail = [&](const char *Msg) {
    if (Error)
      *Error = std::string(Msg) + " in '" + Line + "'";
    return false;
  };

  size_t Pos = 0;
  uint64_t Tid = 0;
  if (!parsePrefixedId(Line, Pos, 'T', Tid))
    return Fail("expected thread id 'T<n>'");
  if (Pos >= Line.size() || Line[Pos] != '|')
    return Fail("expected '|' after thread id");
  ++Pos;

  size_t OpStart = Pos;
  while (Pos < Line.size() && isalpha(static_cast<unsigned char>(Line[Pos])))
    ++Pos;
  std::string OpName = Line.substr(OpStart, Pos - OpStart);

  const OpSpec *Spec = nullptr;
  for (const OpSpec &S : OpSpecs)
    if (OpName == S.Name) {
      Spec = &S;
      break;
    }
  if (!Spec)
    return Fail("unknown operation");

  if (Pos >= Line.size() || Line[Pos] != '(')
    return Fail("expected '(' after operation");
  ++Pos;
  uint64_t Target = 0;
  if (!parsePrefixedId(Line, Pos, Spec->TargetPrefix, Target))
    return Fail("bad operand");
  if (Pos >= Line.size() || Line[Pos] != ')')
    return Fail("expected ')'");
  ++Pos;

  bool Marked = false;
  if (Pos < Line.size() && Line[Pos] == '*') {
    Marked = true;
    ++Pos;
  }
  // Allow trailing whitespace only.
  while (Pos < Line.size()) {
    if (!isspace(static_cast<unsigned char>(Line[Pos])))
      return Fail("trailing garbage");
    ++Pos;
  }
  if (Marked && !isAccess(Spec->Kind))
    return Fail("only access events can be marked");

  Out = Event(static_cast<ThreadId>(Tid), Spec->Kind, Target, Marked);
  return true;
}

bool sampletrack::readTrace(std::istream &Is, Trace &Out, std::string *Error) {
  Out = Trace();
  std::string Line;
  size_t LineNo = 0;
  while (std::getline(Is, Line)) {
    ++LineNo;
    // Strip \r for robustness against CRLF inputs.
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    size_t First = Line.find_first_not_of(" \t");
    if (First == std::string::npos)
      continue;
    if (Line[First] == '#')
      continue;
    Event E;
    std::string LineError;
    if (!parseEventLine(Line.substr(First), E, &LineError)) {
      if (Error) {
        std::ostringstream OS;
        OS << "line " << LineNo << ": " << LineError;
        *Error = OS.str();
      }
      return false;
    }
    Out.append(E);
  }
  return true;
}

bool sampletrack::readTraceFile(const std::string &Path, Trace &Out,
                                std::string *Error) {
  std::ifstream Is(Path, std::ios::binary);
  if (!Is) {
    if (Error)
      *Error = "cannot open '" + Path + "'";
    return false;
  }
  // Auto-detect the binary format by its magic.
  if (sniffBinaryTrace(Is))
    return readTraceBinary(Is, Out, Error);
  return readTrace(Is, Out, Error);
}

void sampletrack::writeTrace(std::ostream &Os, const Trace &T) {
  Os << "# sampletrack trace: " << T.size() << " events, " << T.numThreads()
     << " threads, " << T.numSyncs() << " syncs, " << T.numVars()
     << " vars\n";
  for (const Event &E : T)
    Os << E.str() << '\n';
}

bool sampletrack::writeTraceFile(const std::string &Path, const Trace &T) {
  std::ofstream Os(Path);
  if (!Os)
    return false;
  writeTrace(Os, T);
  return static_cast<bool>(Os);
}


//===----------------------------------------------------------------------===//
// Binary format
//===----------------------------------------------------------------------===//

namespace {

using support::ByteReader;

constexpr char BinaryMagic[5] = {'S', 'T', 'R', 'C', '\1'};

/// A kind/marked tag byte and two varints (tid, target).
constexpr size_t MinEventBytes = 3;
constexpr size_t MaxEventBytes = 1 + 2 * support::MaxVarintBytes;
/// Four varints: three universe sizes and the event count.
constexpr size_t MaxHeaderBytes = 4 * support::MaxVarintBytes;

/// Bytes \ref writeTraceBinary buffers before each stream write, and the
/// readers take from the stream per call.
constexpr size_t ChunkBytes = 16 << 10;

/// Appends up to \p Want bytes from \p Is's buffer to \p Buf and returns
/// how many arrived: 0 at the end of the stream.
size_t appendFrom(std::istream &Is, std::string &Buf, size_t Want) {
  std::streambuf *Sb = Is.rdbuf();
  size_t Len = Buf.size();
  Buf.resize(Len + Want);
  std::streamsize N =
      Sb ? Sb->sgetn(Buf.data() + Len, static_cast<std::streamsize>(Want)) : 0;
  size_t Got = N > 0 ? static_cast<size_t>(N) : 0;
  Buf.resize(Len + Got);
  return Got;
}

/// The header's universe sizes.
struct Universes {
  uint64_t Threads = 0, Syncs = 0, Vars = 0;
};

/// Decodes one event and checks its ids against the header universes.
/// Returns the error text, or null on success.
const char *decodeEvent(ByteReader &R, const Universes &U, Event &Out) {
  uint8_t Tag;
  if (!R.getByte(Tag))
    return "truncated binary trace body";
  // Low 4 bits: kind; bit 4: marked.
  uint8_t Kind = Tag & 0x0f;
  bool Marked = (Tag & 0x10) != 0;
  if (Kind > static_cast<uint8_t>(OpKind::AcquireLoad))
    return "invalid event kind";
  uint64_t Tid, Target;
  if (!R.getVarint(Tid) || !R.getVarint(Target))
    return "truncated event";
  OpKind K = static_cast<OpKind>(Kind);
  if (Marked && !isAccess(K))
    return "marked non-access event";
  // Checked here, before any consumer indexes per-thread state with them:
  // a streamed batch reaches the detectors before the trace has ended.
  bool TargetOk = isAccess(K) ? Target < U.Vars
                  : (K == OpKind::Fork || K == OpKind::Join)
                      ? Target < U.Threads
                      : Target < U.Syncs;
  if (Tid >= U.Threads || !TargetOk)
    return "binary trace header inconsistent with events";
  Out = Event(static_cast<ThreadId>(Tid), K, Target, Marked);
  return nullptr;
}

/// The header after the magic: three universe sizes and the event count.
bool decodeHeader(ByteReader &R, Universes &U, uint64_t &Events,
                  std::string *Error) {
  if (!R.getVarint(U.Threads) || !R.getVarint(U.Syncs) ||
      !R.getVarint(U.Vars) || !R.getVarint(Events))
    return support::fail(Error, "truncated binary trace header");
  return true;
}

/// The one whole-trace decoder: header and events after the magic.
bool decodeTraceBody(std::string_view Bytes, Trace &Out, std::string *Error) {
  Out = Trace();
  ByteReader R(Bytes);
  Universes U;
  uint64_t Events;
  if (!decodeHeader(R, U, Events, Error))
    return false;
  // Bound the count by what the bytes can hold before reserving for it.
  if (Events > R.remaining() / MinEventBytes)
    return support::fail(Error, "truncated binary trace body");
  Out.reserve(static_cast<size_t>(Events));
  for (uint64_t I = 0; I < Events; ++I) {
    Event E;
    if (const char *Msg = decodeEvent(R, U, E))
      return support::fail(Error, Msg);
    // append sizes the universes from the ids, as the text loader does.
    Out.append(E);
  }
  return true;
}

} // namespace

void sampletrack::writeTraceBinary(std::ostream &Os, const Trace &T) {
  std::string Buf(BinaryMagic, sizeof(BinaryMagic));
  Buf.reserve(ChunkBytes + MaxEventBytes);
  support::putVarint(Buf, T.numThreads());
  support::putVarint(Buf, T.numSyncs());
  support::putVarint(Buf, T.numVars());
  support::putVarint(Buf, T.size());
  for (const Event &E : T) {
    // Low 4 bits: kind; bit 4: marked.
    Buf.push_back(static_cast<char>(static_cast<uint8_t>(E.Kind) |
                                    (E.Marked ? 0x10 : 0)));
    support::putVarint(Buf, E.Tid);
    support::putVarint(Buf, E.Target);
    if (Buf.size() >= ChunkBytes) {
      Os.write(Buf.data(), static_cast<std::streamsize>(Buf.size()));
      Buf.clear();
    }
  }
  Os.write(Buf.data(), static_cast<std::streamsize>(Buf.size()));
}

bool sampletrack::writeTraceFileBinary(const std::string &Path,
                                       const Trace &T) {
  std::ofstream Os(Path, std::ios::binary);
  if (!Os)
    return false;
  writeTraceBinary(Os, T);
  return static_cast<bool>(Os);
}

bool sampletrack::sniffBinaryTrace(std::istream &Is) {
  char Buf[sizeof(BinaryMagic)] = {};
  std::streampos Pos = Is.tellg();
  Is.read(Buf, sizeof(Buf));
  bool Match = Is.gcount() == sizeof(Buf) &&
               std::memcmp(Buf, BinaryMagic, sizeof(Buf)) == 0;
  Is.clear();
  if (!Match)
    Is.seekg(Pos);
  return Match;
}

bool sampletrack::readTraceBinary(std::string_view Bytes, Trace &Out,
                                  std::string *Error) {
  std::string_view Magic(BinaryMagic, sizeof(BinaryMagic));
  if (!Bytes.starts_with(Magic)) {
    Out = Trace();
    return support::fail(Error, "not a binary trace");
  }
  return decodeTraceBody(Bytes.substr(Magic.size()), Out, Error);
}

bool sampletrack::readTraceBinary(std::istream &Is, Trace &Out,
                                  std::string *Error) {
  std::string Bytes;
  while (appendFrom(Is, Bytes, ChunkBytes) != 0) {
  }
  return decodeTraceBody(Bytes, Out, Error);
}

void BinaryTraceReader::refill(size_t Need) {
  Buf.erase(0, Head);
  Head = 0;
  // One read fills the buffer from a file or string stream; a stream that
  // hands out less is read again only until \p Need bytes are buffered.
  while (!Eof && Buf.size() < Need)
    Eof = appendFrom(*Is, Buf, ChunkBytes - Buf.size()) == 0;
}

bool BinaryTraceReader::open(std::istream &Stream, std::string *Error) {
  Is = &Stream;
  Buf.clear();
  Head = 0;
  Eof = false;
  Position = 0;
  refill(MaxHeaderBytes);
  ByteReader R(Buf);
  Universes U;
  if (!decodeHeader(R, U, NumEvents, Error))
    return false;
  Head = R.pos();
  NumThreads = static_cast<size_t>(U.Threads);
  NumSyncs = static_cast<size_t>(U.Syncs);
  NumVars = static_cast<size_t>(U.Vars);
  return true;
}

bool BinaryTraceReader::read(std::vector<Event> &Out, size_t Max,
                             std::string *Error) {
  Out.clear();
  if (!Is)
    return support::fail(Error, "reader not opened");
  if (Max == 0) // A while(!done()) loop would never end.
    return support::fail(Error, "zero batch size");
  Universes U{NumThreads, NumSyncs, NumVars};
  ByteReader R(std::string_view(Buf).substr(Head));
  while (Out.size() < Max && Position < NumEvents) {
    // Top up whenever the next event may straddle the buffer's end.
    if (R.remaining() < MaxEventBytes && !Eof) {
      Head += R.pos();
      refill(MaxEventBytes);
      R = ByteReader(std::string_view(Buf).substr(Head));
    }
    Event E;
    if (const char *Msg = decodeEvent(R, U, E))
      return support::fail(Error, Msg);
    Out.push_back(E);
    ++Position;
  }
  Head += R.pos();
  return true;
}
