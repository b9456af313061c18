//===- ByteIO.h - Little-endian byte codec shared by every wire format ----===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The primitives under every binary format that crosses a process
/// boundary: `spa-ir` snapshots and their depgraph payload (files),
/// `spa-serve` frames (a socket) and shard dispatch/result frames
/// (pipes).  Each format keeps its own layout, version and error typing;
/// what they share lives here, once:
///
///  * ByteWriter: a little-endian append buffer;
///  * ByteReader: a bounds-checked cursor whose first failure latches, so
///    decode loops check failed() at their natural checkpoints instead of
///    after every read, and count() rejects an element count the
///    remaining bytes cannot hold before anything is allocated;
///  * fnv1a64: the one content hash (snapshot section checksums, the
///    serve cache keys);
///  * writeFull/readFull: whole-buffer loops over a file descriptor.
///
/// All integers are fixed-width little-endian on the wire regardless of
/// the host.  The trace span buffer (obs/Trace.cpp) and the postmortem
/// pipe record (obs/Postmortem.cpp) stay outside: obs sits below support
/// in the library layering, and postmortem writes must stay
/// async-signal-safe.
///
//===----------------------------------------------------------------------===//

#ifndef SPA_SUPPORT_BYTEIO_H
#define SPA_SUPPORT_BYTEIO_H

#include "support/Ids.h"

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace spa {

constexpr uint64_t FnvOffsetBasis = 14695981039346656037ull;

/// FNV-1a 64 over \p Len bytes, continuing from the running hash \p H.
inline uint64_t fnv1a64(const void *Data, size_t Len,
                        uint64_t H = FnvOffsetBasis) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  for (size_t I = 0; I < Len; ++I) {
    H ^= P[I];
    H *= 1099511628211ull;
  }
  return H;
}

/// Little-endian append buffer.
struct ByteWriter {
  std::vector<uint8_t> Buf;

  void u8(uint8_t V) { Buf.push_back(V); }
  void u16(uint16_t V) { le<2>(V); }
  void u32(uint32_t V) { le<4>(V); }
  void u64(uint64_t V) { le<8>(V); }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  void f64(double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    u64(Bits);
  }
  template <typename Tag> void id(Id<Tag> V) { u32(V.value()); }
  /// Appends \p N raw bytes.  Out of line: inlined into a caller whose
  /// buffer is provably empty or just grown, GCC 12's -O2/-O3 misreads
  /// the vector growth as a stringop overflow.
  void bytes(const void *Data, size_t N);
  /// u32 length, then the bytes.
  void str(const std::string &S) {
    u32(static_cast<uint32_t>(S.size()));
    bytes(S.data(), S.size());
  }

private:
  template <int N> void le(uint64_t V) {
    for (int I = 0; I < N; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
};

/// Bounds-checked little-endian cursor over a byte range it does not own.
/// The first failed read latches failed(); from then on every read
/// returns zero and the cursor stays where it first failed, so pos()
/// names the offending offset.
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}
  explicit ByteReader(const std::vector<uint8_t> &B)
      : ByteReader(B.data(), B.size()) {}

  bool failed() const { return Failed; }
  size_t pos() const { return Pos; }
  size_t remaining() const { return Size - Pos; }
  /// Everything read, and nothing failed.
  bool done() const { return !Failed && Pos == Size; }
  /// Latches failure for a reason only the caller can see (a bad enum, an
  /// id out of range).
  void fail() { Failed = true; }

  uint8_t u8() { return static_cast<uint8_t>(le<1>()); }
  uint16_t u16() { return static_cast<uint16_t>(le<2>()); }
  uint32_t u32() { return static_cast<uint32_t>(le<4>()); }
  uint64_t u64() { return le<8>(); }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  double f64() {
    uint64_t Bits = u64();
    double V;
    std::memcpy(&V, &Bits, sizeof(V));
    return V;
  }
  /// The next \p N bytes, or null (and failed) when fewer remain.
  const uint8_t *take(size_t N) {
    if (!need(N))
      return nullptr;
    const uint8_t *P = Data + Pos;
    Pos += N;
    return P;
  }
  /// u32 length, then the bytes; the length is checked against the
  /// remaining bytes before the string is built.
  std::string str() {
    uint32_t N = u32();
    const uint8_t *P = take(N);
    return P ? std::string(reinterpret_cast<const char *>(P), N)
             : std::string();
  }
  /// True when \p N elements of at least \p MinElemBytes each can still
  /// follow (and nothing failed).
  bool fits(uint64_t N, size_t MinElemBytes) const {
    uint64_t Bytes;
    return !Failed && !__builtin_mul_overflow(N, MinElemBytes, &Bytes) &&
           Bytes <= remaining();
  }
  /// Reads an element count that is about to drive a decode loop.  Each
  /// element occupies at least \p MinElemBytes on the wire, so a count
  /// beyond remaining()/MinElemBytes is provably a lie: it fails here,
  /// before the caller reserves or allocates anything.
  uint32_t count(size_t MinElemBytes) {
    uint32_t N = u32();
    if (!fits(N, MinElemBytes)) {
      Failed = true;
      return 0;
    }
    return N;
  }

private:
  bool need(size_t N) {
    if (Failed || remaining() < N)
      Failed = true;
    return !Failed;
  }
  template <int N> uint64_t le() {
    if (!need(N))
      return 0;
    const uint8_t *P = Data + Pos;
    Pos += N;
    uint64_t V = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&V, P, N); // One load on the hosts that matter.
    } else {
      for (int I = 0; I < N; ++I)
        V |= static_cast<uint64_t>(P[I]) << (8 * I);
    }
    return V;
  }

  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  bool Failed = false;
};

/// Writes all \p Len bytes to \p Fd, retrying short writes and EINTR.
/// False on any other error or a zero-byte write.
bool writeFull(int Fd, const void *Data, size_t Len);

/// Reads exactly \p Len bytes from \p Fd, retrying short reads and EINTR.
/// False on error or end of file before \p Len bytes arrived.
bool readFull(int Fd, void *Data, size_t Len);

} // namespace spa

#endif // SPA_SUPPORT_BYTEIO_H
