//===- triaged/Client.cpp - Blocking upload client ---------------------------=//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/triaged/Client.h"

#include "sampletrack/support/ByteCodec.h"
#include "sampletrack/support/Rng.h"
#include "sampletrack/trace/TraceIO.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <thread>

using namespace sampletrack;
using namespace sampletrack::triaged;
using support::fail;

namespace {

using Clock = std::chrono::steady_clock;

/// An absolute deadline; Millis == 0 means "none".
Clock::time_point deadlineAfter(uint64_t Millis) {
  return Millis == 0 ? Clock::time_point::max()
                     : Clock::now() + std::chrono::milliseconds(Millis);
}

/// Remaining budget as a poll() timeout: -1 for "no deadline", clamped to
/// >= 0 once expired (poll then returns immediately and the caller sees
/// the timeout).
int pollBudget(Clock::time_point Deadline) {
  if (Deadline == Clock::time_point::max())
    return -1;
  auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                  Deadline - Clock::now())
                  .count();
  if (Left <= 0)
    return 0;
  return Left > 60'000 ? 60'000 : static_cast<int>(Left);
}

/// Waits until \p Fd is ready for \p Events (POLLIN/POLLOUT) or the
/// deadline passes. Returns true on ready, false on timeout or poll error
/// (errno-style detail in \p Why).
bool waitReady(int Fd, short Events, Clock::time_point Deadline,
               const char *Phase, std::string &Why) {
  for (;;) {
    pollfd Pfd{Fd, Events, 0};
    int Budget = pollBudget(Deadline);
    int R = ::poll(&Pfd, 1, Budget);
    if (R > 0)
      return true; // Ready (POLLERR/POLLHUP included: let the I/O call
                   // observe and report the real error).
    if (R < 0 && errno == EINTR)
      continue;
    if (R == 0) {
      Why = std::string(Phase) + " timed out";
      return false;
    }
    Why = std::string(Phase) + " poll: " + std::strerror(errno);
    return false;
  }
}

bool sendAll(int Fd, std::string_view Bytes, Clock::time_point Deadline,
             std::string &Why) {
  size_t Off = 0;
  while (Off < Bytes.size()) {
    if (!waitReady(Fd, POLLOUT, Deadline, "send", Why))
      return false;
    ssize_t N = ::send(Fd, Bytes.data() + Off, Bytes.size() - Off,
                       MSG_NOSIGNAL | MSG_DONTWAIT);
    if (N <= 0) {
      if (N < 0 && (errno == EINTR || errno == EAGAIN ||
                    errno == EWOULDBLOCK))
        continue;
      Why = std::string("send: ") + std::strerror(errno);
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

/// Parses the 3-digit status code after "HTTP/1.x " with explicit bounds —
/// no atoi: a garbage status line must be a loud transport error, not a
/// silently-zero Status.
bool parseStatus(const std::string &Head, int &Status) {
  constexpr size_t At = 9; // strlen("HTTP/1.x ")
  if (Head.size() < At + 3)
    return false;
  const char *B = Head.data() + At, *E = B + 3;
  auto [Ptr, Ec] = std::from_chars(B, E, Status);
  if (Ec != std::errc() || Ptr != E)
    return false;
  // The code must terminate cleanly (end of line or the reason phrase).
  if (Head.size() > At + 3 && Head[At + 3] != ' ' && Head[At + 3] != '\r')
    return false;
  return Status >= 100 && Status <= 599;
}

/// Pulls "<Key>: <uint>" out of the upload-response JSON the server
/// renders. The format is ours end to end, so a line scan is enough — no
/// JSON parser dependency for one integer per field.
bool jsonUInt(const std::string &Body, const std::string &Key,
              uint64_t &Out) {
  std::string Needle = "\"" + Key + "\": ";
  size_t At = Body.find(Needle);
  if (At == std::string::npos)
    return false;
  Out = std::strtoull(Body.c_str() + At + Needle.size(), nullptr, 10);
  return true;
}

bool jsonBool(const std::string &Body, const std::string &Key, bool &Out) {
  std::string Needle = "\"" + Key + "\": ";
  size_t At = Body.find(Needle);
  if (At == std::string::npos)
    return false;
  Out = Body.compare(At + Needle.size(), 4, "true") == 0;
  return true;
}

/// A fresh idempotency key: 16 hex chars of system entropy. Deliberately
/// random, never payload-derived — two distinct runs that happen to
/// produce identical bytes must both count.
std::string randomRunId() {
  std::random_device Rd;
  uint64_t Seed = (static_cast<uint64_t>(Rd()) << 32) ^ Rd();
  SplitMix64 G(Seed ^ static_cast<uint64_t>(::getpid()));
  char Buf[20];
  std::snprintf(Buf, sizeof(Buf), "r-%016llx",
                static_cast<unsigned long long>(G.next()));
  return Buf;
}

} // namespace

bool Client::roundTrip(const std::string &Request, Response &Out,
                       std::string *Error) {
  // The socket is non-blocking for its whole life: connect completion is a
  // POLLOUT + SO_ERROR check, send and recv gate every syscall on poll
  // against an absolute per-phase deadline (Config; 0 = unbounded).
  int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (Fd < 0)
    return fail(Error, std::string("socket: ") + std::strerror(errno));
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  if (::inet_pton(AF_INET, Host.c_str(), &Addr.sin_addr) != 1) {
    ::close(Fd);
    return fail(Error, "bad host address '" + Host + "'");
  }
  const std::string Peer = Host + ":" + std::to_string(Port);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 &&
      errno != EINPROGRESS) {
    ::close(Fd);
    return fail(Error, "connect " + Peer + ": " + std::strerror(errno));
  }
  std::string Why;
  if (!waitReady(Fd, POLLOUT, deadlineAfter(Config.ConnectTimeoutMillis),
                 "connect", Why)) {
    ::close(Fd);
    return fail(Error, "connect " + Peer + ": " + Why);
  }
  int SoErr = 0;
  socklen_t SoLen = sizeof(SoErr);
  if (::getsockopt(Fd, SOL_SOCKET, SO_ERROR, &SoErr, &SoLen) < 0 ||
      SoErr != 0) {
    ::close(Fd);
    return fail(Error, "connect " + Peer + ": " +
                           std::strerror(SoErr ? SoErr : errno));
  }
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));

  if (!sendAll(Fd, Request, deadlineAfter(Config.SendTimeoutMillis), Why)) {
    ::close(Fd);
    return fail(Error, Why);
  }

  // The client always sends Connection: close, so the response is simply
  // everything until EOF; Content-Length is still honored as a cross-check.
  // One deadline bounds the whole read, so a drip-feeding peer cannot
  // stretch it recv by recv.
  std::string Raw;
  char Chunk[64 << 10];
  const Clock::time_point RecvDeadline =
      deadlineAfter(Config.RecvTimeoutMillis);
  for (;;) {
    if (!waitReady(Fd, POLLIN, RecvDeadline, "recv", Why)) {
      ::close(Fd);
      return fail(Error, Why);
    }
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), MSG_DONTWAIT);
    if (N < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
        continue;
      ::close(Fd);
      return fail(Error, std::string("recv: ") + std::strerror(errno));
    }
    if (N == 0)
      break;
    Raw.append(Chunk, static_cast<size_t>(N));
  }
  ::close(Fd);

  // Status line.
  size_t HeaderEnd = Raw.find("\r\n\r\n");
  if (HeaderEnd == std::string::npos)
    return fail(Error, "malformed response (no header terminator)");
  std::string Head = Raw.substr(0, HeaderEnd);
  if (Head.rfind("HTTP/1.1 ", 0) != 0 && Head.rfind("HTTP/1.0 ", 0) != 0)
    return fail(Error, "malformed response status line");
  if (!parseStatus(Head, Out.Status))
    return fail(Error, "malformed response status code");

  // Headers we care about.
  Out.ContentType.clear();
  uint64_t ContentLength = 0;
  bool HaveLength = false;
  std::istringstream Hs(Head);
  std::string Line;
  std::getline(Hs, Line); // Status line.
  while (std::getline(Hs, Line)) {
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    size_t Colon = Line.find(':');
    if (Colon == std::string::npos)
      continue;
    std::string Name = Line.substr(0, Colon);
    for (char &C : Name)
      C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
    std::string Value = Line.substr(Colon + 1);
    size_t B = Value.find_first_not_of(" \t");
    if (B != std::string::npos)
      Value = Value.substr(B);
    if (Name == "content-type")
      Out.ContentType = Value;
    else if (Name == "content-length") {
      ContentLength = std::strtoull(Value.c_str(), nullptr, 10);
      HaveLength = true;
    } else if (Name == "retry-after")
      Out.RetryAfterSeconds =
          static_cast<unsigned>(std::strtoul(Value.c_str(), nullptr, 10));
  }

  Out.Body = Raw.substr(HeaderEnd + 4);
  if (HaveLength && Out.Body.size() != ContentLength)
    return fail(Error, "truncated response body (Content-Length " +
                           std::to_string(ContentLength) + ", got " +
                           std::to_string(Out.Body.size()) + ")");
  return true;
}

bool Client::get(const std::string &Path, Response &Out,
                 std::string *Error) {
  std::string Req = "GET " + Path + " HTTP/1.1\r\nHost: " + Host +
                    "\r\nConnection: close\r\n\r\n";
  return roundTrip(Req, Out, Error);
}

bool Client::post(const std::string &Path, const std::string &ContentType,
                  std::string_view Body, Response &Out, std::string *Error,
                  uint64_t Sequence, const std::string &RunId) {
  std::string Req = "POST " + Path + " HTTP/1.1\r\nHost: " + Host +
                    "\r\nContent-Type: " + ContentType +
                    "\r\nContent-Length: " + std::to_string(Body.size()) +
                    "\r\nConnection: close\r\n";
  if (Sequence > 0)
    Req += "X-Sampletrack-Sequence: " + std::to_string(Sequence) + "\r\n";
  if (!RunId.empty())
    Req += "X-Sampletrack-Run-Id: " + RunId + "\r\n";
  Req += "\r\n";
  Req.append(Body.data(), Body.size());
  return roundTrip(Req, Out, Error);
}

bool Client::uploadFramed(WireContent Content, std::string_view Payload,
                          UploadOutcome &Out, std::string *Error,
                          uint64_t Sequence, const std::string &RunId) {
  // One run id across every attempt: that is what makes retrying safe.
  const std::string Id = RunId.empty() ? randomRunId() : RunId;
  const std::string Body = frame(Content, Payload);
  uint64_t JitterSeed = Retry.JitterSeed;
  if (JitterSeed == 0) {
    std::random_device Rd;
    JitterSeed = (static_cast<uint64_t>(Rd()) << 32) ^ Rd();
  }
  SplitMix64 Jitter(JitterSeed);

  const unsigned Attempts = Retry.MaxAttempts > 0 ? Retry.MaxAttempts : 1;
  std::string LastErr;
  unsigned RetryAfterSec = 0;
  for (unsigned A = 0; A < Attempts; ++A) {
    if (A > 0) {
      // Capped exponential backoff, jittered down by up to half; a
      // Retry-After hint from shedding raises the floor.
      unsigned Shift = A - 1 < 20 ? A - 1 : 20;
      uint64_t Delay = Retry.BaseDelayMillis << Shift;
      if (Delay > Retry.MaxDelayMillis)
        Delay = Retry.MaxDelayMillis;
      if (Delay > 1)
        Delay -= Jitter.nextBelow(Delay / 2 + 1);
      uint64_t Floor = static_cast<uint64_t>(RetryAfterSec) * 1000;
      if (Floor > Retry.MaxDelayMillis)
        Floor = Retry.MaxDelayMillis;
      if (Delay < Floor)
        Delay = Floor;
      std::this_thread::sleep_for(std::chrono::milliseconds(Delay));
    }
    Response Resp;
    std::string Err;
    if (!post("/v1/runs", "application/x-sampletrack-upload", Body, Resp,
              &Err, Sequence, Id)) {
      // Transport failure: connect refused, or the peer vanished
      // mid-exchange (the response to a merged upload may be the casualty
      // — exactly what the run id dedups on retry).
      LastErr = Err;
      RetryAfterSec = 0;
      continue;
    }
    if (Resp.Status >= 500 || Resp.Status == 503) {
      LastErr = "HTTP " + std::to_string(Resp.Status) + ": " + Resp.Body;
      RetryAfterSec = Resp.RetryAfterSeconds;
      continue;
    }
    if (Resp.Status != 200)
      return fail(Error, "upload rejected: HTTP " +
                             std::to_string(Resp.Status) + ": " + Resp.Body);
    uint64_t Run = 0;
    if (!jsonUInt(Resp.Body, "run", Run) ||
        !jsonUInt(Resp.Body, "declared", Out.Declared) ||
        !jsonUInt(Resp.Body, "distinct", Out.Distinct) ||
        !jsonUInt(Resp.Body, "new", Out.NewCount) ||
        !jsonUInt(Resp.Body, "known", Out.KnownCount) ||
        !jsonUInt(Resp.Body, "regressed", Out.RegressedCount) ||
        !jsonUInt(Resp.Body, "suppressed", Out.SuppressedCount))
      return fail(Error, "malformed upload response: " + Resp.Body);
    Out.Run = static_cast<uint32_t>(Run);
    Out.RunId = Id;
    Out.Deduplicated = false;
    (void)jsonBool(Resp.Body, "deduplicated", Out.Deduplicated);
    return true;
  }
  return fail(Error, "upload failed after " + std::to_string(Attempts) +
                         " attempt(s): " + LastErr);
}

bool Client::uploadTrace(const Trace &T, UploadOutcome &Out,
                         std::string *Error, uint64_t Sequence,
                         const std::string &RunId) {
  std::ostringstream Os(std::ios::binary);
  writeTraceBinary(Os, T);
  std::string Bytes = Os.str();
  return uploadFramed(WireContent::BinaryTrace, Bytes, Out, Error, Sequence,
                      RunId);
}

bool Client::uploadSummary(const triage::TriageSummary &S,
                           UploadOutcome &Out, std::string *Error,
                           uint64_t Sequence, const std::string &RunId) {
  return uploadFramed(WireContent::SignatureSummary, encodeSummary(S), Out,
                      Error, Sequence, RunId);
}

bool Client::uploadFile(const std::string &Path, UploadOutcome &Out,
                        std::string *Error, uint64_t Sequence,
                        const std::string &RunId) {
  std::ifstream Is(Path, std::ios::binary);
  if (!Is)
    return fail(Error, "cannot open '" + Path + "'");
  std::string Bytes((std::istreambuf_iterator<char>(Is)),
                    std::istreambuf_iterator<char>());
  if (sniffSummary(Bytes))
    return uploadFramed(WireContent::SignatureSummary, Bytes, Out, Error,
                        Sequence, RunId);
  std::istringstream Sniff(Bytes);
  if (sniffBinaryTrace(Sniff))
    return uploadFramed(WireContent::BinaryTrace, Bytes, Out, Error,
                        Sequence, RunId);
  return fail(Error, "'" + Path +
                         "' is neither a binary trace nor a signature "
                         "summary");
}
