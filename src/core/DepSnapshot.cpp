//===- DepSnapshot.cpp - Dependency-graph serialization --------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/DepSnapshot.h"

#include <algorithm>

namespace spa {
namespace {

/// Payload-internal format version, independent of the snapshot
/// container version (the container only promises an opaque byte range).
/// Version 2: def/use lists for points only (a phi's are its location),
/// the dense node numbering, and PhisDropped in the trailer.
constexpr uint32_t DepPayloadVersion = 2;

void putU32(std::vector<uint8_t> &B, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    B.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

void putU64(std::vector<uint8_t> &B, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    B.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

struct Reader {
  const std::vector<uint8_t> &B;
  size_t Pos = 0;
  bool Ok = true;

  explicit Reader(const std::vector<uint8_t> &B) : B(B) {}

  bool need(size_t N) {
    if (!Ok || B.size() - Pos < N) {
      Ok = false;
      return false;
    }
    return true;
  }
  uint8_t u8() {
    if (!need(1))
      return 0;
    return B[Pos++];
  }
  uint32_t u32() {
    if (!need(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(B[Pos + I]) << (8 * I);
    Pos += 4;
    return V;
  }
  uint64_t u64() {
    if (!need(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(B[Pos + I]) << (8 * I);
    Pos += 8;
    return V;
  }
};

void writeLocList(std::vector<uint8_t> &B, const std::vector<LocId> &Ls) {
  putU32(B, static_cast<uint32_t>(Ls.size()));
  for (LocId L : Ls)
    putU32(B, L.value());
}

bool readLocList(Reader &R, uint64_t NumLocs, std::vector<LocId> &Out) {
  uint32_t N = R.u32();
  // Each entry costs at least 4 bytes; reject counts the remaining
  // buffer cannot possibly hold before reserving.
  if (!R.Ok || static_cast<uint64_t>(N) * 4 > R.B.size() - R.Pos) {
    R.Ok = false;
    return false;
  }
  Out.reserve(N);
  for (uint32_t I = 0; I < N; ++I) {
    uint32_t Raw = R.u32();
    if (Raw >= NumLocs) {
      R.Ok = false;
      return false;
    }
    Out.push_back(LocId(Raw));
  }
  return R.Ok;
}

} // namespace

std::vector<uint8_t> encodeDepGraph(const SparseGraph &Graph,
                                    const DepOptions &Opts) {
  std::vector<uint8_t> B;
  putU32(B, DepPayloadVersion);
  B.push_back(static_cast<uint8_t>(Opts.Kind));
  B.push_back(Opts.Bypass ? 1 : 0);
  B.push_back(Opts.UseBdd ? 1 : 0);
  B.push_back(0); // Pad.

  putU32(B, Graph.NumPoints);
  putU32(B, static_cast<uint32_t>(Graph.Phis.size()));
  for (const PhiNode &P : Graph.Phis) {
    putU32(B, P.At.value());
    putU32(B, P.L.value());
  }

  for (uint32_t P = 0; P < Graph.NumPoints; ++P)
    writeLocList(B, Graph.NodeDefs[P]);
  for (uint32_t P = 0; P < Graph.NumPoints; ++P)
    writeLocList(B, Graph.NodeUses[P]);

  // Edges per source node, count-prefixed.  BDD storage enumerates in
  // its own internal order, so edges are sorted here to make the bytes
  // representation-independent (and thus digest-stable).
  size_t NumNodes = Graph.numNodes();
  for (uint32_t Src = 0; Src < NumNodes; ++Src) {
    std::vector<std::pair<uint32_t, uint32_t>> Out;
    Graph.Edges->forEachOut(Src, [&](LocId L, uint32_t Dst) {
      Out.emplace_back(L.value(), Dst);
    });
    std::sort(Out.begin(), Out.end());
    putU32(B, static_cast<uint32_t>(Out.size()));
    for (const auto &[L, Dst] : Out) {
      putU32(B, L);
      putU32(B, Dst);
    }
  }

  putU64(B, Graph.EdgesBeforeBypass);
  putU64(B, Graph.BypassRemoved);
  putU64(B, Graph.PhisDropped);
  return B;
}

DepSnapshotResult decodeDepGraph(const Program &Prog,
                                 const std::vector<uint8_t> &Payload) {
  DepSnapshotResult Res;
  auto Fail = [&](const std::string &Msg) {
    Res.Error = "depgraph payload: " + Msg;
    return std::move(Res);
  };

  Reader R(Payload);
  uint32_t Ver = R.u32();
  if (!R.Ok || Ver != DepPayloadVersion)
    return Fail("unknown payload version " + std::to_string(Ver));
  uint8_t RawKind = R.u8();
  if (RawKind > static_cast<uint8_t>(DepBuilderKind::WholeProgram))
    return Fail("bad builder kind " + std::to_string(RawKind));
  Res.Kind = static_cast<DepBuilderKind>(RawKind);
  Res.Bypass = R.u8() != 0;
  Res.UseBdd = R.u8() != 0;
  R.u8(); // Pad.

  uint64_t NumPoints = Prog.numPoints();
  uint64_t NumLocs = Prog.numLocs();
  Res.Graph.NumPoints = R.u32();
  if (!R.Ok || Res.Graph.NumPoints != NumPoints)
    return Fail("point count does not match the program");
  uint32_t NumPhis = R.u32();
  if (!R.Ok || static_cast<uint64_t>(NumPhis) * 8 > Payload.size() - R.Pos)
    return Fail("phi count exceeds payload size");
  Res.Graph.Phis.reserve(NumPhis);
  for (uint32_t I = 0; I < NumPhis; ++I) {
    uint32_t At = R.u32();
    uint32_t L = R.u32();
    if (!R.Ok || At >= NumPoints || L >= NumLocs)
      return Fail("phi node " + std::to_string(I) + " out of bounds");
    Res.Graph.Phis.push_back({PointId(At), LocId(L)});
  }

  size_t NumNodes = Res.Graph.numNodes();
  Res.Graph.NodeDefs.resize(NumPoints);
  Res.Graph.NodeUses.resize(NumPoints);
  for (size_t I = 0; I < NumPoints; ++I)
    if (!readLocList(R, NumLocs, Res.Graph.NodeDefs[I]))
      return Fail("bad def list for point " + std::to_string(I));
  for (size_t I = 0; I < NumPoints; ++I)
    if (!readLocList(R, NumLocs, Res.Graph.NodeUses[I]))
      return Fail("bad use list for point " + std::to_string(I));

  auto Storage = std::make_unique<SetDepStorage>(
      static_cast<uint32_t>(NumNodes));
  for (uint32_t Src = 0; Src < NumNodes; ++Src) {
    uint32_t N = R.u32();
    if (!R.Ok || static_cast<uint64_t>(N) * 8 > Payload.size() - R.Pos)
      return Fail("edge count for node " + std::to_string(Src) +
                  " exceeds payload size");
    for (uint32_t J = 0; J < N; ++J) {
      uint32_t L = R.u32();
      uint32_t Dst = R.u32();
      if (!R.Ok || L >= NumLocs || Dst >= NumNodes)
        return Fail("edge " + std::to_string(J) + " of node " +
                    std::to_string(Src) + " out of bounds");
      Storage->add(Src, LocId(L), Dst);
    }
  }
  Res.Graph.Edges = std::move(Storage);

  Res.Graph.EdgesBeforeBypass = R.u64();
  Res.Graph.BypassRemoved = R.u64();
  Res.Graph.PhisDropped = R.u64();
  if (!R.Ok)
    return Fail("truncated trailer");
  if (R.Pos != Payload.size())
    return Fail(std::to_string(Payload.size() - R.Pos) + " trailing bytes");
  return Res;
}

} // namespace spa
