//===- DepSnapshot.cpp - Dependency-graph serialization --------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/DepSnapshot.h"

#include "support/ByteIO.h"

#include <algorithm>

namespace spa {
namespace {

/// Payload-internal format version, independent of the snapshot
/// container version (the container only promises an opaque byte range).
/// Version 2: def/use lists for points only (a phi's are its location),
/// the dense node numbering, and PhisDropped in the trailer.
constexpr uint32_t DepPayloadVersion = 2;

void writeLocList(ByteWriter &W, const std::vector<LocId> &Ls) {
  W.u32(static_cast<uint32_t>(Ls.size()));
  for (LocId L : Ls)
    W.id(L);
}

bool readLocList(ByteReader &R, uint64_t NumLocs, std::vector<LocId> &Out) {
  uint32_t N = R.count(4);
  Out.reserve(N);
  for (uint32_t I = 0; I < N; ++I) {
    uint32_t Raw = R.u32();
    if (Raw >= NumLocs) {
      R.fail();
      return false;
    }
    Out.push_back(LocId(Raw));
  }
  return !R.failed();
}

} // namespace

std::vector<uint8_t> encodeDepGraph(const SparseGraph &Graph,
                                    const DepOptions &Opts) {
  ByteWriter W;
  W.u32(DepPayloadVersion);
  W.u8(static_cast<uint8_t>(Opts.Kind));
  W.u8(Opts.Bypass ? 1 : 0);
  W.u8(Opts.UseBdd ? 1 : 0);
  W.u8(0); // Pad.

  W.u32(Graph.NumPoints);
  W.u32(static_cast<uint32_t>(Graph.Phis.size()));
  for (const PhiNode &P : Graph.Phis) {
    W.id(P.At);
    W.id(P.L);
  }

  for (uint32_t P = 0; P < Graph.NumPoints; ++P)
    writeLocList(W, Graph.NodeDefs[P]);
  for (uint32_t P = 0; P < Graph.NumPoints; ++P)
    writeLocList(W, Graph.NodeUses[P]);

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
    W.u32(static_cast<uint32_t>(Out.size()));
    for (const auto &[L, Dst] : Out) {
      W.u32(L);
      W.u32(Dst);
    }
  }

  W.u64(Graph.EdgesBeforeBypass);
  W.u64(Graph.BypassRemoved);
  W.u64(Graph.PhisDropped);
  return std::move(W.Buf);
}

DepSnapshotResult decodeDepGraph(const Program &Prog,
                                 const std::vector<uint8_t> &Payload) {
  DepSnapshotResult Res;
  auto Fail = [&](const std::string &Msg) {
    Res.Error = "depgraph payload: " + Msg;
    return std::move(Res);
  };

  ByteReader R(Payload);
  uint32_t Ver = R.u32();
  if (R.failed() || Ver != DepPayloadVersion)
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
  if (R.failed() || Res.Graph.NumPoints != NumPoints)
    return Fail("point count does not match the program");
  uint32_t NumPhis = R.count(8);
  if (R.failed())
    return Fail("phi count exceeds payload size");
  Res.Graph.Phis.reserve(NumPhis);
  for (uint32_t I = 0; I < NumPhis; ++I) {
    uint32_t At = R.u32();
    uint32_t L = R.u32();
    if (R.failed() || At >= NumPoints || L >= NumLocs)
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
    uint32_t N = R.count(8);
    if (R.failed())
      return Fail("edge count for node " + std::to_string(Src) +
                  " exceeds payload size");
    for (uint32_t J = 0; J < N; ++J) {
      uint32_t L = R.u32();
      uint32_t Dst = R.u32();
      if (R.failed() || L >= NumLocs || Dst >= NumNodes)
        return Fail("edge " + std::to_string(J) + " of node " +
                    std::to_string(Src) + " out of bounds");
      // A phi uses only its location, and the fixpoint gives it one
      // input slot for it.
      if (Dst >= NumPoints && L != Res.Graph.Phis[Dst - NumPoints].L.value())
        return Fail("edge " + std::to_string(J) + " of node " +
                    std::to_string(Src) + " does not carry its phi's location");
      Storage->add(Src, LocId(L), Dst);
    }
  }
  Res.Graph.Edges = std::move(Storage);

  Res.Graph.EdgesBeforeBypass = R.u64();
  Res.Graph.BypassRemoved = R.u64();
  Res.Graph.PhisDropped = R.u64();
  if (R.failed())
    return Fail("truncated trailer");
  if (R.remaining() != 0)
    return Fail(std::to_string(R.remaining()) + " trailing bytes");
  return Res;
}

} // namespace spa
