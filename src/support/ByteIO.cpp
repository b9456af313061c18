//===- ByteIO.cpp - Out-of-line parts of the byte codec -------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/ByteIO.h"

#include <cerrno>
#include <unistd.h>

void spa::ByteWriter::bytes(const void *Data, size_t N) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  Buf.insert(Buf.end(), P, P + N);
}

bool spa::writeFull(int Fd, const void *Data, size_t Len) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  while (Len > 0) {
    ssize_t N = ::write(Fd, P, Len);
    if (N <= 0) {
      if (N < 0 && errno == EINTR)
        continue;
      return false;
    }
    P += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

bool spa::readFull(int Fd, void *Data, size_t Len) {
  uint8_t *P = static_cast<uint8_t *>(Data);
  while (Len > 0) {
    ssize_t N = ::read(Fd, P, Len);
    if (N <= 0) {
      if (N < 0 && errno == EINTR)
        continue;
      return false;
    }
    P += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}
