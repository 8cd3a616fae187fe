//===- sampletrack/support/ByteCodec.h - Little-endian byte codec -*- C++ -*-=//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one byte discipline of the persisted and wire formats — the STTS
/// store image, the STTJ journal, the STSG signature summary, the STWF
/// upload frame and the STRC binary trace: fixed-width little-endian
/// integers, LEB128 varints, 4-byte magics, and FNV-1a 64 checksums.
/// Writers append to a std::string; \ref ByteReader reads back over a
/// std::string_view and fails, instead of reading past the end, on every
/// short input.
///
/// Every reader of outside input bounds its element counts by the bytes
/// left before it reserves anything for them — the warehouse formats
/// through \ref ByteReader::getCount, the binary trace by its smallest
/// event — so a tiny, checksum-valid input that claims 2^40 entries is
/// refused as truncated without a large allocation.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_SUPPORT_BYTECODEC_H
#define SAMPLETRACK_SUPPORT_BYTECODEC_H

#include "sampletrack/support/Common.h"

#include <string>
#include <string_view>

namespace sampletrack {
namespace support {

/// Stores \p Msg into \p Error (when non-null) and returns false: the tail
/// of every `bool f(..., std::string *Error)` failure path.
inline bool fail(std::string *Error, const std::string &Msg) {
  if (Error)
    *Error = Msg;
  return false;
}

namespace detail {
template <typename T> void putLE(std::string &S, T V) {
  for (size_t I = 0; I < sizeof(T); ++I)
    S.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}
} // namespace detail

inline void putU16(std::string &S, uint16_t V) { detail::putLE(S, V); }
inline void putU32(std::string &S, uint32_t V) { detail::putLE(S, V); }
inline void putU64(std::string &S, uint64_t V) { detail::putLE(S, V); }

/// Longest encoding \ref putVarint emits: ceil(64 / 7) bytes.
inline constexpr size_t MaxVarintBytes = 10;

/// Appends \p V as an unsigned LEB128 varint: 7 bits per byte, low group
/// first, the high bit set on every byte but the last.
inline void putVarint(std::string &S, uint64_t V) {
  while (V >= 0x80) {
    S.push_back(static_cast<char>((V & 0x7f) | 0x80));
    V >>= 7;
  }
  S.push_back(static_cast<char>(V));
}

/// FNV-1a 64 of \p Bytes: the checksum every warehouse format carries.
inline uint64_t fnv1a(std::string_view Bytes) {
  Fnv1a H;
  H.bytes(Bytes.data(), Bytes.size());
  return H.value();
}

/// Bounds-checked little-endian reader over a byte view. Every get
/// returns false, and consumes nothing, when fewer bytes remain than it
/// needs.
class ByteReader {
public:
  explicit ByteReader(std::string_view Bytes) : Bytes(Bytes) {}

  bool getByte(uint8_t &V) { return getLE(V); }
  bool getU16(uint16_t &V) { return getLE(V); }
  bool getU32(uint32_t &V) { return getLE(V); }
  bool getU64(uint64_t &V) { return getLE(V); }

  /// Reads a \ref putVarint encoding of at most \ref MaxVarintBytes
  /// bytes. Fails on a truncated varint and on one whose tenth byte still
  /// has its continuation bit set; the tenth byte's bits past bit 63 are
  /// dropped.
  bool getVarint(uint64_t &V) {
    uint64_t Acc = 0;
    size_t P = Pos;
    for (unsigned Shift = 0; Shift < 64; Shift += 7) {
      if (P == Bytes.size())
        return false;
      uint8_t C = static_cast<uint8_t>(Bytes[P++]);
      Acc |= static_cast<uint64_t>(C & 0x7f) << Shift;
      if (!(C & 0x80)) {
        V = Acc;
        Pos = P;
        return true;
      }
    }
    return false;
  }

  /// Copies the next \p Len bytes into \p Out.
  bool getBytes(std::string &Out, size_t Len) {
    if (remaining() < Len)
      return false;
    Out.assign(Bytes.data() + Pos, Len);
    Pos += Len;
    return true;
  }

  /// Consumes the 4-byte magic \p M; false if the next bytes differ.
  bool getMagic(const char (&M)[4]) {
    if (Bytes.substr(Pos, 4) != std::string_view(M, 4))
      return false;
    Pos += 4;
    return true;
  }

  /// Reads a u64 element count and fails unless the remaining bytes can
  /// hold that many elements of \p EntryBytes each. A caller may reserve
  /// \p Count elements once this returns true.
  bool getCount(uint64_t &Count, size_t EntryBytes) {
    ByteReader Ahead = *this;
    uint64_t N = 0;
    if (!Ahead.getU64(N) || N > Ahead.remaining() / EntryBytes)
      return false;
    *this = Ahead;
    Count = N;
    return true;
  }

  size_t pos() const { return Pos; }
  size_t remaining() const { return Bytes.size() - Pos; }
  bool exhausted() const { return Pos == Bytes.size(); }
  /// The unread bytes.
  std::string_view rest() const { return Bytes.substr(Pos); }

private:
  template <typename T> bool getLE(T &V) {
    if (remaining() < sizeof(T))
      return false;
    uint64_t Acc = 0;
    for (size_t I = 0; I < sizeof(T); ++I)
      Acc |= static_cast<uint64_t>(static_cast<unsigned char>(Bytes[Pos + I]))
             << (8 * I);
    V = static_cast<T>(Acc);
    Pos += sizeof(T);
    return true;
  }

  std::string_view Bytes;
  size_t Pos = 0;
};

} // namespace support
} // namespace sampletrack

#endif // SAMPLETRACK_SUPPORT_BYTECODEC_H
