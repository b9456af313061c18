//===- Protocol.cpp - spa-serve wire protocol -----------------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include "support/ByteIO.h"

#include <cstring>

using namespace spa;
using namespace spa::serve;

const unsigned char spa::serve::Magic[8] = {'S', 'P', 'A', 'S',
                                            'R', 'V', '1', '\n'};

const char *spa::serve::serveErrorName(ServeErrc Code) {
  switch (Code) {
  case ServeErrc::None:
    return "none";
  case ServeErrc::Io:
    return "io";
  case ServeErrc::BadMagic:
    return "bad_magic";
  case ServeErrc::BadVersion:
    return "bad_version";
  case ServeErrc::Malformed:
    return "malformed";
  case ServeErrc::TooLarge:
    return "too_large";
  case ServeErrc::BadRequest:
    return "bad_request";
  case ServeErrc::BuildError:
    return "build_error";
  case ServeErrc::SnapshotError:
    return "snapshot_error";
  case ServeErrc::Injected:
    return "fault_injected";
  case ServeErrc::ServerError:
    return "server_error";
  }
  return "unknown";
}

bool spa::serve::writeHandshake(int Fd) {
  ByteWriter W;
  W.bytes(Magic, sizeof(Magic));
  W.u32(ProtocolVersion);
  return writeFull(Fd, W.Buf.data(), W.Buf.size());
}

ServeErrc spa::serve::readHandshake(int Fd) {
  uint8_t Buf[12];
  if (!readFull(Fd, Buf, sizeof(Buf)))
    return ServeErrc::Io;
  if (std::memcmp(Buf, Magic, 8) != 0)
    return ServeErrc::BadMagic;
  if (ByteReader(Buf + 8, 4).u32() != ProtocolVersion)
    return ServeErrc::BadVersion;
  return ServeErrc::None;
}

bool spa::serve::writeFrame(int Fd, FrameType Type,
                            const std::vector<uint8_t> &Payload,
                            uint16_t Flags) {
  if (Payload.size() > MaxFrameBytes)
    return false;
  ByteWriter Header;
  Header.u32(static_cast<uint32_t>(Payload.size()));
  Header.u16(static_cast<uint16_t>(Type));
  Header.u16(Flags);
  return writeFull(Fd, Header.Buf.data(), Header.Buf.size()) &&
         writeFull(Fd, Payload.data(), Payload.size());
}

ServeErrc spa::serve::readFrame(int Fd, Frame &Out) {
  uint8_t Buf[8];
  if (!readFull(Fd, Buf, sizeof(Buf)))
    return ServeErrc::Io;
  ByteReader Header(Buf, sizeof(Buf));
  uint32_t Len = Header.u32();
  if (Len > MaxFrameBytes)
    return ServeErrc::TooLarge;
  Out.Type = static_cast<FrameType>(Header.u16());
  Out.Flags = Header.u16();
  Out.Payload.assign(Len, 0);
  if (!readFull(Fd, Out.Payload.data(), Len))
    return ServeErrc::Io;
  return ServeErrc::None;
}

std::vector<uint8_t>
spa::serve::encodeAnalyzeRequest(const AnalyzeRequest &Req) {
  ByteWriter W;
  W.Buf.reserve(12 + Req.Program.size());
  W.u32(Req.Flags);
  W.u32(Req.Jobs);
  W.str(Req.Program);
  return std::move(W.Buf);
}

bool spa::serve::decodeAnalyzeRequest(const std::vector<uint8_t> &Payload,
                                      AnalyzeRequest &Out) {
  ByteReader R(Payload);
  Out.Flags = R.u32();
  Out.Jobs = R.u32();
  Out.Program = R.str();
  return R.done();
}

std::vector<uint8_t>
spa::serve::encodeAnalyzeResponse(const AnalyzeResponse &Resp) {
  ByteWriter W;
  W.u64(Resp.ResultDigest);
  W.u64(Resp.ProgramDigest);
  W.u32(Resp.PartitionsTotal);
  W.u32(Resp.PartitionsReused);
  W.u32(Resp.PartitionsSolved);
  W.u8(Resp.CacheHit);
  W.u8(Resp.Degraded);
  W.u8(Resp.TimedOut);
  W.u8(0); // Pad.
  W.u32(Resp.Checks);
  W.u32(Resp.Alarms);
  W.f64(Resp.WallSeconds);
  W.u64(Resp.LedgerVisits);
  W.u64(Resp.LedgerGrowth);
  W.str(Resp.AlarmsText);
  W.str(Resp.InvariantsText);
  W.str(Resp.MetricsJson);
  return std::move(W.Buf);
}

bool spa::serve::decodeAnalyzeResponse(const std::vector<uint8_t> &Payload,
                                       AnalyzeResponse &Out) {
  ByteReader R(Payload);
  Out.ResultDigest = R.u64();
  Out.ProgramDigest = R.u64();
  Out.PartitionsTotal = R.u32();
  Out.PartitionsReused = R.u32();
  Out.PartitionsSolved = R.u32();
  Out.CacheHit = R.u8();
  Out.Degraded = R.u8();
  Out.TimedOut = R.u8();
  R.u8(); // Pad.
  Out.Checks = R.u32();
  Out.Alarms = R.u32();
  Out.WallSeconds = R.f64();
  Out.LedgerVisits = R.u64();
  Out.LedgerGrowth = R.u64();
  Out.AlarmsText = R.str();
  Out.InvariantsText = R.str();
  Out.MetricsJson = R.str();
  return R.done();
}

std::vector<uint8_t> spa::serve::encodeError(ServeErrc Code,
                                             const std::string &Message) {
  ByteWriter W;
  W.u16(static_cast<uint16_t>(Code));
  W.str(Message);
  return std::move(W.Buf);
}

bool spa::serve::decodeError(const std::vector<uint8_t> &Payload,
                             ServeErrc &Code, std::string &Message) {
  ByteReader R(Payload);
  Code = static_cast<ServeErrc>(R.u16());
  Message = R.str();
  return R.done();
}

std::vector<uint8_t> spa::serve::encodeString(const std::string &S) {
  ByteWriter W;
  W.str(S);
  return std::move(W.Buf);
}

bool spa::serve::decodeString(const std::vector<uint8_t> &Payload,
                              std::string &Out) {
  ByteReader R(Payload);
  Out = R.str();
  return R.done();
}

std::vector<uint8_t>
spa::serve::encodeSubscribeRequest(const SubscribeRequest &Req) {
  ByteWriter W;
  W.Buf.reserve(8);
  W.u32(Req.IntervalMs);
  W.u32(Req.MaxFrames);
  return std::move(W.Buf);
}

bool spa::serve::decodeSubscribeRequest(const std::vector<uint8_t> &Payload,
                                        SubscribeRequest &Out) {
  ByteReader R(Payload);
  Out.IntervalMs = R.u32();
  Out.MaxFrames = R.u32();
  return R.done();
}
