//===- Protocol.h - spa-serve wire protocol -------------------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The length-prefixed request/response protocol spoken over the
/// spa-serve Unix-domain socket (docs/SERVER.md).  A connection opens
/// with a fixed 12-byte handshake (8-byte magic + u32 protocol version)
/// in each direction; after that, every message is one frame:
///
///   u32 payload length | u16 frame type | u16 flags | payload bytes
///
/// All integers are little-endian, mirroring spa-ir-v1.  Errors travel
/// as typed frames (ServeErrc + message) following the SnapErrc
/// discipline: every failure mode has a stable enumerator a client can
/// dispatch on, never just a closed socket.
///
//===----------------------------------------------------------------------===//

#ifndef SPA_SERVE_PROTOCOL_H
#define SPA_SERVE_PROTOCOL_H

#include <cstdint>
#include <string>
#include <vector>

namespace spa {
namespace serve {

/// Protocol version; bumped on any frame-layout change.  The handshake
/// rejects mismatches with ServeErrc::BadVersion before any frame flows.
constexpr uint32_t ProtocolVersion = 1;

/// 8-byte connection magic ("SPASRV1\n").
extern const unsigned char Magic[8];

/// Frames larger than this are malformed by definition; the reader
/// rejects them before allocating (hostile-input guard, same cap
/// discipline as the snapshot loader's count checks).
constexpr uint32_t MaxFrameBytes = 64u << 20;

enum class FrameType : uint16_t {
  ReqAnalyze = 1,   ///< Analyze a program (payload: AnalyzeRequest).
  ReqStats = 2,     ///< Fetch the daemon's metrics registry as JSON.
  ReqShutdown = 3,  ///< Graceful daemon shutdown.
  RespResult = 4,   ///< Analysis result (payload: AnalyzeResponse).
  RespError = 5,    ///< Typed error (u16 ServeErrc + message string).
  RespStats = 6,    ///< Stats document string (JSON, or Prometheus text
                    ///< when requested with StatsFlagProm).
  RespBye = 7,      ///< Shutdown acknowledged.
  ReqSubscribe = 8, ///< Stream telemetry (payload: SubscribeRequest).
  RespTelemetry = 9, ///< One telemetry delta frame (JSON string).
};

/// Frame-header flag bits for ReqStats: request the registry rendered as
/// Prometheus text exposition instead of the stats JSON document.
constexpr uint16_t StatsFlagProm = 1u << 0;

/// Typed protocol/server errors (stable values; do not renumber).
enum class ServeErrc : uint16_t {
  None = 0,
  Io = 1,          ///< Short read/write or closed peer mid-frame.
  BadMagic = 2,    ///< Handshake magic mismatch.
  BadVersion = 3,  ///< Handshake protocol version mismatch.
  Malformed = 4,   ///< Frame payload failed to decode.
  TooLarge = 5,    ///< Frame length exceeds MaxFrameBytes.
  BadRequest = 6,  ///< Unknown frame type or bad request field.
  BuildError = 7,  ///< Program source failed to parse/build.
  SnapshotError = 8, ///< spa-ir-v1 payload failed to load.
  Injected = 9,    ///< SPA_FAULT tripped while serving this request.
  ServerError = 10, ///< Internal failure; daemon keeps serving.
};

/// Stable lower_snake_case name of \p Code (mirrors snapshotErrorName).
const char *serveErrorName(ServeErrc Code);

/// AnalyzeRequest.Flags bits.
enum : uint32_t {
  ReqFlagNoIncremental = 1u << 0, ///< --no-incremental ablation.
  ReqFlagCheck = 1u << 1,         ///< Run the buffer-overrun checker.
  ReqFlagSnapshot = 1u << 2,      ///< Payload program is spa-ir-v1 bytes.
};

struct AnalyzeRequest {
  uint32_t Flags = 0;
  uint32_t Jobs = 0; ///< 0 = server default.
  std::string Program; ///< Source text, or snapshot bytes (ReqFlagSnapshot).
};

/// ReqSubscribe payload: the daemon streams one RespTelemetry frame
/// (spa-serve-telemetry-v1 JSON: uptime, counter deltas since the last
/// frame, request rate, cache hit ratio and occupancy) every IntervalMs
/// until MaxFrames have been sent (0 = until the client disconnects),
/// then resumes normal request handling on the same connection.
struct SubscribeRequest {
  uint32_t IntervalMs = 1000;
  uint32_t MaxFrames = 0;
};

/// Per-request result rollup.  The heavyweight payloads (alarm listing,
/// exit invariants, per-request metrics JSON) travel as strings so the
/// client can reproduce the cold `spa-analyze` output without holding
/// any analysis state.
struct AnalyzeResponse {
  uint64_t ResultDigest = 0;  ///< FNV-1a over all sparse In/Out buffers.
  uint64_t ProgramDigest = 0; ///< FNV-1a over the canonical snapshot bytes.
  uint32_t PartitionsTotal = 0;
  uint32_t PartitionsReused = 0;
  uint32_t PartitionsSolved = 0;
  uint8_t CacheHit = 0; ///< Whole-program hit: nothing re-solved.
  uint8_t Degraded = 0;
  uint8_t TimedOut = 0; ///< The run reached its budget deadline (degraded).
  uint32_t Checks = 0;
  uint32_t Alarms = 0;
  double WallSeconds = 0; ///< Server-side request wall clock.
  /// Ledger rollup of the work actually performed for this request
  /// (re-solved partitions only; reused partitions cost nothing).
  uint64_t LedgerVisits = 0;
  uint64_t LedgerGrowth = 0;
  std::string AlarmsText;     ///< One line per non-safe check.
  std::string InvariantsText; ///< main's exit invariants, cold format.
  std::string MetricsJson;    ///< Per-request registry snapshot.
};

/// One decoded frame.
struct Frame {
  FrameType Type = FrameType::RespError;
  uint16_t Flags = 0;
  std::vector<uint8_t> Payload;
};

// --- Blocking frame I/O over a connected socket fd. ---

/// Writes the 12-byte handshake (magic + version).
bool writeHandshake(int Fd);
/// Reads and validates the peer handshake.
ServeErrc readHandshake(int Fd);

bool writeFrame(int Fd, FrameType Type, const std::vector<uint8_t> &Payload,
                uint16_t Flags = 0);
/// Reads one frame; returns ServeErrc::None on success, Io on clean EOF
/// before any header byte (the caller treats that as connection end).
ServeErrc readFrame(int Fd, Frame &Out);

// --- Payload encode/decode. ---

std::vector<uint8_t> encodeAnalyzeRequest(const AnalyzeRequest &Req);
bool decodeAnalyzeRequest(const std::vector<uint8_t> &Payload,
                          AnalyzeRequest &Out);
std::vector<uint8_t> encodeAnalyzeResponse(const AnalyzeResponse &Resp);
bool decodeAnalyzeResponse(const std::vector<uint8_t> &Payload,
                           AnalyzeResponse &Out);
std::vector<uint8_t> encodeError(ServeErrc Code, const std::string &Message);
bool decodeError(const std::vector<uint8_t> &Payload, ServeErrc &Code,
                 std::string &Message);
std::vector<uint8_t> encodeString(const std::string &S);
bool decodeString(const std::vector<uint8_t> &Payload, std::string &Out);
std::vector<uint8_t> encodeSubscribeRequest(const SubscribeRequest &Req);
bool decodeSubscribeRequest(const std::vector<uint8_t> &Payload,
                            SubscribeRequest &Out);

} // namespace serve
} // namespace spa

#endif // SPA_SERVE_PROTOCOL_H
