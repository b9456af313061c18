//===- Snapshot.cpp - spa-ir-v1 writer and strict loader ----------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Snapshot.h"

#include "obs/Journal.h"
#include "obs/Metrics.h"

#include <cstdio>
#include <cstring>
#include <iterator>

namespace spa {
namespace {

constexpr uint8_t Magic[8] = {'S', 'P', 'A', 'I', 'R', '\n', 0x1a, 0};

enum SectionKind : uint32_t {
  SecMeta = 1,
  SecLocs = 2,
  SecFuncs = 3,
  SecPoints = 4,
  SecEdges = 5,
  SecDepGraph = 6, // v2+, optional: opaque payload (core/DepSnapshot.h).
};
constexpr uint32_t NumRequiredSections = 5;
constexpr size_t HeaderBytes = 16;   // magic + version + section count
constexpr size_t TableEntryBytes = 32;

/// Expression trees are decoded recursively; a crafted chain of Binary
/// nodes must not be able to blow the stack, so nesting is capped far
/// above anything the frontend emits.
constexpr uint32_t MaxExprDepth = 1024;

const char *sectionName(uint32_t Kind) {
  switch (Kind) {
  case SecMeta: return "meta";
  case SecLocs: return "locs";
  case SecFuncs: return "funcs";
  case SecPoints: return "points";
  case SecEdges: return "edges";
  case SecDepGraph: return "depgraph";
  }
  return "?";
}

uint64_t fnv1a64(const uint8_t *Data, size_t Size) {
  uint64_t H = 14695981039346656037ull;
  for (size_t I = 0; I < Size; ++I) {
    H ^= Data[I];
    H *= 1099511628211ull;
  }
  return H;
}

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

/// Byte-by-byte little-endian append buffer; one per section payload.
struct Writer {
  std::vector<uint8_t> Buf;

  void u8(uint8_t V) { Buf.push_back(V); }
  void u32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void u64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  void id(PointId V) { u32(V.value()); }
  void id(LocId V) { u32(V.value()); }
  void id(FuncId V) { u32(V.value()); }
  void str(const std::string &S) {
    u32(static_cast<uint32_t>(S.size()));
    Buf.insert(Buf.end(), S.begin(), S.end());
  }
};

void writeExpr(Writer &W, const IExpr &E) {
  W.u8(static_cast<uint8_t>(E.Kind));
  switch (E.Kind) {
  case IExprKind::Num:
    W.i64(E.Num);
    break;
  case IExprKind::Var:
  case IExprKind::AddrOf:
  case IExprKind::Deref:
    W.id(E.Loc);
    break;
  case IExprKind::Binary:
    W.u8(static_cast<uint8_t>(E.Op));
    writeExpr(W, *E.Lhs);
    writeExpr(W, *E.Rhs);
    break;
  case IExprKind::Input:
    break;
  case IExprKind::FuncAddr:
    W.id(E.Func);
    break;
  }
}

void writeOptExpr(Writer &W, const IExpr *E) {
  W.u8(E != nullptr);
  if (E)
    writeExpr(W, *E);
}

void writeCommand(Writer &W, const Command &C) {
  W.u8(static_cast<uint8_t>(C.Kind));
  W.id(C.Target);
  writeOptExpr(W, C.E.get());
  W.u8(C.Cnd != nullptr);
  if (C.Cnd) {
    W.u8(static_cast<uint8_t>(C.Cnd->Op));
    writeExpr(W, *C.Cnd->Lhs);
    writeExpr(W, *C.Cnd->Rhs);
  }
  W.id(C.AllocSite);
  W.id(C.DirectCallee);
  W.u8(C.External);
  W.u32(static_cast<uint32_t>(C.Args.size()));
  for (const auto &A : C.Args)
    writeExpr(W, *A);
  W.id(C.Pair);
}

void writeEdgeList(Writer &W, const std::vector<PointId> &Edges) {
  W.u32(static_cast<uint32_t>(Edges.size()));
  for (PointId P : Edges)
    W.id(P);
}

//===----------------------------------------------------------------------===//
// Reader
//===----------------------------------------------------------------------===//

/// Bounds-checked little-endian cursor over one section's payload.  The
/// first failed read latches Err; subsequent reads return zero and keep
/// the cursor put, so decode loops can bail on `R.failed()` at their
/// natural checkpoints without checking every call.
struct Reader {
  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  const char *Section;
  SnapshotError Err;

  Reader(const uint8_t *D, size_t N, const char *Sec)
      : Data(D), Size(N), Section(Sec) {}

  bool failed() const { return !Err.ok(); }
  size_t remaining() const { return Size - Pos; }

  void fail(SnapErrc C, const std::string &What) {
    if (Err.ok())
      Err = {C, std::string(Section) + " section: " + What + " at offset " +
                    std::to_string(Pos)};
  }
  bool need(size_t N) {
    if (failed())
      return false;
    if (remaining() < N) {
      fail(SnapErrc::Malformed, "unexpected end of section");
      return false;
    }
    return true;
  }
  uint8_t u8() {
    if (!need(1))
      return 0;
    return Data[Pos++];
  }
  uint32_t u32() {
    if (!need(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(Data[Pos++]) << (8 * I);
    return V;
  }
  uint64_t u64() {
    if (!need(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(Data[Pos++]) << (8 * I);
    return V;
  }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  std::string str() {
    uint32_t N = u32();
    if (!need(N))
      return {};
    std::string S(reinterpret_cast<const char *>(Data + Pos), N);
    Pos += N;
    return S;
  }
  /// Reads an element count that is about to drive a decode loop.  Each
  /// element occupies at least \p MinElemBytes on the wire, so a count
  /// beyond remaining()/MinElemBytes is provably a lie — reject it before
  /// any allocation, not after.
  uint32_t count(size_t MinElemBytes, const char *What) {
    uint32_t N = u32();
    if (failed())
      return 0;
    if (static_cast<uint64_t>(N) * MinElemBytes > remaining()) {
      fail(SnapErrc::Malformed, std::string("impossible ") + What +
                                    " count " + std::to_string(N));
      return 0;
    }
    return N;
  }
};

/// Id-bounds context: table sizes from the Meta section, against which
/// every id in later sections is validated (InvalidValue is legal
/// wherever the in-memory IR uses it as "absent").
struct Bounds {
  uint64_t Points = 0, Funcs = 0, Locs = 0;
};

template <typename IdT>
IdT readId(Reader &R, uint64_t Limit, const char *What) {
  uint32_t Raw = R.u32();
  if (R.failed())
    return IdT();
  if (Raw != IdT::InvalidValue && Raw >= Limit) {
    R.fail(SnapErrc::BadId, std::string(What) + " id " + std::to_string(Raw) +
                                " out of bounds (table size " +
                                std::to_string(Limit) + ")");
    return IdT();
  }
  return Raw == IdT::InvalidValue ? IdT() : IdT(Raw);
}

std::unique_ptr<IExpr> readExpr(Reader &R, const Bounds &B, uint32_t Depth) {
  if (Depth > MaxExprDepth) {
    R.fail(SnapErrc::Malformed, "expression nesting too deep");
    return nullptr;
  }
  uint8_t RawKind = R.u8();
  if (R.failed())
    return nullptr;
  if (RawKind > static_cast<uint8_t>(IExprKind::FuncAddr)) {
    R.fail(SnapErrc::Malformed,
           "bad expression kind " + std::to_string(RawKind));
    return nullptr;
  }
  auto E = std::make_unique<IExpr>();
  E->Kind = static_cast<IExprKind>(RawKind);
  switch (E->Kind) {
  case IExprKind::Num:
    E->Num = R.i64();
    break;
  case IExprKind::Var:
  case IExprKind::AddrOf:
  case IExprKind::Deref:
    E->Loc = readId<LocId>(R, B.Locs, "loc");
    // Var/AddrOf/Deref must reference an actual location.
    if (!R.failed() && !E->Loc.isValid())
      R.fail(SnapErrc::BadId, "variable reference without a location");
    break;
  case IExprKind::Binary: {
    uint8_t RawOp = R.u8();
    if (RawOp > static_cast<uint8_t>(BinOp::Mod)) {
      R.fail(SnapErrc::Malformed, "bad binary op " + std::to_string(RawOp));
      return nullptr;
    }
    E->Op = static_cast<BinOp>(RawOp);
    E->Lhs = readExpr(R, B, Depth + 1);
    E->Rhs = readExpr(R, B, Depth + 1);
    break;
  }
  case IExprKind::Input:
    break;
  case IExprKind::FuncAddr:
    E->Func = readId<FuncId>(R, B.Funcs, "func");
    if (!R.failed() && !E->Func.isValid())
      R.fail(SnapErrc::BadId, "function address without a function");
    break;
  }
  return R.failed() ? nullptr : std::move(E);
}

bool readCommand(Reader &R, const Bounds &B, Command &C) {
  uint8_t RawKind = R.u8();
  if (RawKind > static_cast<uint8_t>(CmdKind::RetStmt)) {
    R.fail(SnapErrc::Malformed, "bad command kind " + std::to_string(RawKind));
    return false;
  }
  C.Kind = static_cast<CmdKind>(RawKind);
  C.Target = readId<LocId>(R, B.Locs, "target loc");
  uint8_t HasE = R.u8();
  if (HasE > 1) {
    R.fail(SnapErrc::Malformed, "bad expression presence flag");
    return false;
  }
  if (HasE)
    C.E = readExpr(R, B, 0);
  uint8_t HasCnd = R.u8();
  if (HasCnd > 1) {
    R.fail(SnapErrc::Malformed, "bad condition presence flag");
    return false;
  }
  if (HasCnd) {
    uint8_t RawOp = R.u8();
    if (RawOp > static_cast<uint8_t>(RelOp::Ne)) {
      R.fail(SnapErrc::Malformed, "bad relational op " + std::to_string(RawOp));
      return false;
    }
    C.Cnd = std::make_unique<ICond>();
    C.Cnd->Op = static_cast<RelOp>(RawOp);
    C.Cnd->Lhs = readExpr(R, B, 0);
    C.Cnd->Rhs = readExpr(R, B, 0);
  }
  C.AllocSite = readId<LocId>(R, B.Locs, "alloc site");
  C.DirectCallee = readId<FuncId>(R, B.Funcs, "direct callee");
  uint8_t Ext = R.u8();
  if (Ext > 1) {
    R.fail(SnapErrc::Malformed, "bad external flag");
    return false;
  }
  C.External = Ext;
  uint32_t NumArgs = R.count(1, "argument");
  for (uint32_t I = 0; I < NumArgs && !R.failed(); ++I)
    C.Args.push_back(readExpr(R, B, 0));
  C.Pair = readId<PointId>(R, B.Points, "pair point");
  return !R.failed();
}

//===----------------------------------------------------------------------===//
// Section table parsing (shared by load and inspect)
//===----------------------------------------------------------------------===//

struct SectionEntry {
  uint32_t Kind = 0;
  uint64_t Offset = 0, Length = 0, Checksum = 0;
};

/// Parses the fixed header and the section table, enforcing the strict
/// layout invariants: known kinds, each exactly once, sections contiguous
/// in table order and tiling the file exactly.  Checksum verification is
/// the caller's choice (the inspector reports mismatches; the loader
/// rejects them).
SnapshotError parseTable(const uint8_t *Data, size_t Size, uint32_t &Version,
                         std::vector<SectionEntry> &Table) {
  if (Size < HeaderBytes)
    return {SnapErrc::Truncated, "file shorter than the 16-byte header"};
  if (std::memcmp(Data, Magic, sizeof(Magic)) != 0)
    return {SnapErrc::BadMagic, "bad magic bytes"};
  auto U32At = [&](size_t Off) {
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(Data[Off + I]) << (8 * I);
    return V;
  };
  auto U64At = [&](size_t Off) {
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(Data[Off + I]) << (8 * I);
    return V;
  };
  Version = U32At(8);
  if (Version < MinSnapshotVersion || Version > SnapshotVersion)
    return {SnapErrc::BadVersion, "format version " + std::to_string(Version) +
                                      ", this reader understands only " +
                                      std::to_string(MinSnapshotVersion) +
                                      ".." + std::to_string(SnapshotVersion)};
  // v1 has exactly the five required sections; v2 may append the
  // optional depgraph section.
  uint32_t Count = U32At(12);
  uint32_t MaxCount = Version >= 2 ? NumRequiredSections + 1
                                   : NumRequiredSections;
  if (Count < NumRequiredSections || Count > MaxCount)
    return {SnapErrc::BadSectionTable,
            "section count " + std::to_string(Count) + ", want " +
                std::to_string(NumRequiredSections) +
                (MaxCount > NumRequiredSections
                     ? " or " + std::to_string(MaxCount)
                     : "")};
  size_t TableEnd = HeaderBytes + static_cast<size_t>(Count) * TableEntryBytes;
  if (TableEnd > Size)
    return {SnapErrc::Truncated, "section table extends past end of file"};

  uint64_t Expected = TableEnd;
  uint32_t SeenMask = 0;
  for (uint32_t I = 0; I < Count; ++I) {
    size_t Off = HeaderBytes + static_cast<size_t>(I) * TableEntryBytes;
    SectionEntry E;
    E.Kind = U32At(Off);
    // Off+4 is a reserved u32 (zero on write, ignored on read).
    E.Offset = U64At(Off + 8);
    E.Length = U64At(Off + 16);
    E.Checksum = U64At(Off + 24);
    uint32_t MaxKind = Version >= 2 ? SecDepGraph : SecEdges;
    if (E.Kind < SecMeta || E.Kind > MaxKind)
      return {SnapErrc::BadSectionTable,
              "unknown section kind " + std::to_string(E.Kind)};
    if (SeenMask & (1u << E.Kind))
      return {SnapErrc::DuplicateSection,
              std::string("duplicate ") + sectionName(E.Kind) + " section"};
    SeenMask |= 1u << E.Kind;
    // Contiguity: sections must tile [TableEnd, Size) exactly, in table
    // order.  Offset/length lies (overlap, gaps, out of bounds) all fail
    // this one check; comparing against Expected also sidesteps
    // offset+length overflow.
    if (E.Offset != Expected || E.Length > Size - Expected)
      return {SnapErrc::BadSectionTable,
              std::string(sectionName(E.Kind)) + " section offset " +
                  std::to_string(E.Offset) + " length " +
                  std::to_string(E.Length) + " does not tile the file"};
    Expected += E.Length;
    Table.push_back(E);
  }
  if (Expected != Size)
    return {SnapErrc::BadSectionTable,
            std::to_string(Size - Expected) + " trailing bytes after the last section"};
  for (uint32_t K = SecMeta; K <= SecEdges; ++K)
    if (!(SeenMask & (1u << K)))
      return {SnapErrc::MissingSection,
              std::string("missing ") + sectionName(K) + " section"};
  return {};
}

} // namespace

//===----------------------------------------------------------------------===//
// Public API
//===----------------------------------------------------------------------===//

const char *snapshotErrorName(SnapErrc C) {
  switch (C) {
  case SnapErrc::None: return "ok";
  case SnapErrc::Io: return "io";
  case SnapErrc::BadMagic: return "bad_magic";
  case SnapErrc::BadVersion: return "bad_version";
  case SnapErrc::Truncated: return "truncated";
  case SnapErrc::BadSectionTable: return "bad_section_table";
  case SnapErrc::DuplicateSection: return "duplicate_section";
  case SnapErrc::MissingSection: return "missing_section";
  case SnapErrc::ChecksumMismatch: return "checksum_mismatch";
  case SnapErrc::Malformed: return "malformed";
  case SnapErrc::BadId: return "bad_id";
  }
  return "unknown";
}

std::string SnapshotError::str() const {
  std::string S = snapshotErrorName(Code);
  if (!Message.empty()) {
    S += ": ";
    S += Message;
  }
  return S;
}

std::vector<uint8_t>
saveSnapshot(const Program &Prog,
             const std::vector<uint8_t> *DepGraphPayload) {
  Writer Meta, Locs, Funcs, Points, Edges;

  Meta.u64(Prog.numPoints());
  Meta.u64(Prog.numFuncs());
  Meta.u64(Prog.numLocs());
  Meta.id(Prog.Start);
  Meta.id(Prog.Main);

  for (const LocInfo &L : Prog.Locs) {
    Locs.u8(static_cast<uint8_t>(L.Kind));
    Locs.str(L.Name);
    Locs.id(L.Owner);
    Locs.id(L.Site);
  }

  for (const FunctionInfo &F : Prog.Funcs) {
    Funcs.str(F.Name);
    Funcs.u32(static_cast<uint32_t>(F.Params.size()));
    for (LocId L : F.Params)
      Funcs.id(L);
    Funcs.u32(static_cast<uint32_t>(F.Locals.size()));
    for (LocId L : F.Locals)
      Funcs.id(L);
    Funcs.id(F.RetSlot);
    Funcs.id(F.Entry);
    Funcs.id(F.Exit);
    Funcs.u32(static_cast<uint32_t>(F.Points.size()));
    for (PointId P : F.Points)
      Funcs.id(P);
  }

  for (const Point &P : Prog.Points) {
    writeCommand(Points, P.Cmd);
    Points.id(P.Func);
    Points.u32(P.Line);
  }

  // Both edge directions are serialized verbatim: predecessor order feeds
  // deterministic joins, so rebuilding Preds from Succs on load would
  // have to reproduce the builder's insertion order exactly — storing it
  // is cheaper and future-proof.
  for (const auto &S : Prog.Succs)
    writeEdgeList(Edges, S);
  for (const auto &P : Prog.Preds)
    writeEdgeList(Edges, P);

  Writer DepGraph;
  if (DepGraphPayload && !DepGraphPayload->empty())
    DepGraph.Buf = *DepGraphPayload;

  std::vector<std::pair<uint32_t, const Writer *>> Sections = {
      {SecMeta, &Meta},
      {SecLocs, &Locs},
      {SecFuncs, &Funcs},
      {SecPoints, &Points},
      {SecEdges, &Edges},
  };
  if (!DepGraph.Buf.empty())
    Sections.emplace_back(SecDepGraph, &DepGraph);

  Writer Out;
  // assign, not a range insert: GCC 12 under -fsanitize=thread misreads
  // the inlined insert into the empty buffer as a stringop overflow.
  Out.Buf.assign(std::begin(Magic), std::end(Magic));
  Out.u32(SnapshotVersion);
  Out.u32(static_cast<uint32_t>(Sections.size()));
  uint64_t Offset = HeaderBytes + Sections.size() * TableEntryBytes;
  for (const auto &[Kind, W] : Sections) {
    Out.u32(Kind);
    Out.u32(0); // reserved
    Out.u64(Offset);
    Out.u64(W->Buf.size());
    Out.u64(fnv1a64(W->Buf.data(), W->Buf.size()));
    Offset += W->Buf.size();
  }
  for (const auto &[Kind, W] : Sections)
    Out.Buf.insert(Out.Buf.end(), W->Buf.begin(), W->Buf.end());

  SPA_OBS_COUNT("snapshot.saves", 1);
  SPA_OBS_GAUGE_SET("snapshot.save.bytes", Out.Buf.size());
  SPA_OBS_JOURNAL(SnapshotSave, Out.Buf.size(), Sections.size());
  return std::move(Out.Buf);
}

SnapshotLoadResult loadSnapshot(const uint8_t *Data, size_t Size) {
  SnapshotLoadResult Res;
  auto Fail = [&](SnapshotError E) {
    Res.Error = std::move(E);
    Res.Prog.reset();
    SPA_OBS_COUNT("snapshot.load.errors", 1);
    SPA_OBS_JOURNAL(SnapshotLoad, Size,
                    static_cast<uint64_t>(Res.Error.Code));
    return std::move(Res);
  };

  uint32_t Version = 0;
  std::vector<SectionEntry> Table;
  if (SnapshotError E = parseTable(Data, Size, Version, Table); !E.ok())
    return Fail(std::move(E));

  // Checksums gate deep decoding: a flipped bit anywhere in a payload is
  // caught here, so the structural decoders below only ever see either
  // valid producer output or a *structurally* crafted attack, and the
  // bounds checks handle the latter.
  for (const SectionEntry &E : Table)
    if (fnv1a64(Data + E.Offset, E.Length) != E.Checksum)
      return Fail({SnapErrc::ChecksumMismatch,
                   std::string(sectionName(E.Kind)) +
                       " section payload does not match its checksum"});

  auto section = [&](uint32_t Kind) -> const SectionEntry & {
    for (const SectionEntry &E : Table)
      if (E.Kind == Kind)
        return E;
    __builtin_unreachable(); // parseTable guarantees the required five.
  };
  auto readerFor = [&](uint32_t Kind) {
    const SectionEntry &E = section(Kind);
    return Reader(Data + E.Offset, E.Length, sectionName(Kind));
  };

  // Meta first: its table sizes bound every id in the other sections.
  Bounds B;
  PointId Dummy;
  (void)Dummy;
  Reader MetaR = readerFor(SecMeta);
  B.Points = MetaR.u64();
  B.Funcs = MetaR.u64();
  B.Locs = MetaR.u64();
  auto Prog = std::make_unique<Program>();
  Prog->Start = readId<FuncId>(MetaR, B.Funcs, "start func");
  Prog->Main = readId<FuncId>(MetaR, B.Funcs, "main func");
  if (!MetaR.failed() && MetaR.remaining() != 0)
    MetaR.fail(SnapErrc::Malformed, "trailing bytes");
  if (MetaR.failed())
    return Fail(std::move(MetaR.Err));
  // Counts are decoded as u64 but ids are u32: a table bigger than the
  // id space could never have been written by the serializer.
  if (B.Points >= LocId::InvalidValue || B.Funcs >= LocId::InvalidValue ||
      B.Locs >= LocId::InvalidValue)
    return Fail({SnapErrc::Malformed, "meta section: table size exceeds id space"});

  Reader LocsR = readerFor(SecLocs);
  if (B.Locs * 13 > LocsR.Size) // kind + len + owner + site minimum
    return Fail({SnapErrc::Malformed,
                 "locs section too short for its declared count"});
  for (uint64_t I = 0; I < B.Locs && !LocsR.failed(); ++I) {
    LocInfo L;
    uint8_t RawKind = LocsR.u8();
    if (RawKind > static_cast<uint8_t>(LocKind::AllocSite)) {
      LocsR.fail(SnapErrc::Malformed,
                 "bad loc kind " + std::to_string(RawKind));
      break;
    }
    L.Kind = static_cast<LocKind>(RawKind);
    L.Name = LocsR.str();
    L.Owner = readId<FuncId>(LocsR, B.Funcs, "loc owner");
    L.Site = readId<PointId>(LocsR, B.Points, "loc site");
    Prog->Locs.push_back(std::move(L));
  }
  if (!LocsR.failed() && LocsR.remaining() != 0)
    LocsR.fail(SnapErrc::Malformed, "trailing bytes");
  if (LocsR.failed())
    return Fail(std::move(LocsR.Err));

  Reader FuncsR = readerFor(SecFuncs);
  if (B.Funcs * 28 > FuncsR.Size) // name len + 2 counts + 3 ids + count
    return Fail({SnapErrc::Malformed,
                 "funcs section too short for its declared count"});
  for (uint64_t I = 0; I < B.Funcs && !FuncsR.failed(); ++I) {
    FunctionInfo F;
    F.Name = FuncsR.str();
    uint32_t NumParams = FuncsR.count(4, "param");
    for (uint32_t J = 0; J < NumParams && !FuncsR.failed(); ++J)
      F.Params.push_back(readId<LocId>(FuncsR, B.Locs, "param"));
    uint32_t NumLocals = FuncsR.count(4, "local");
    for (uint32_t J = 0; J < NumLocals && !FuncsR.failed(); ++J)
      F.Locals.push_back(readId<LocId>(FuncsR, B.Locs, "local"));
    F.RetSlot = readId<LocId>(FuncsR, B.Locs, "ret slot");
    F.Entry = readId<PointId>(FuncsR, B.Points, "entry");
    F.Exit = readId<PointId>(FuncsR, B.Points, "exit");
    uint32_t NumPoints = FuncsR.count(4, "point");
    for (uint32_t J = 0; J < NumPoints && !FuncsR.failed(); ++J)
      F.Points.push_back(readId<PointId>(FuncsR, B.Points, "func point"));
    Prog->Funcs.push_back(std::move(F));
  }
  if (!FuncsR.failed() && FuncsR.remaining() != 0)
    FuncsR.fail(SnapErrc::Malformed, "trailing bytes");
  if (FuncsR.failed())
    return Fail(std::move(FuncsR.Err));

  Reader PointsR = readerFor(SecPoints);
  if (B.Points * 28 > PointsR.Size) // minimum encoded command + func + line
    return Fail({SnapErrc::Malformed,
                 "points section too short for its declared count"});
  for (uint64_t I = 0; I < B.Points && !PointsR.failed(); ++I) {
    Point P;
    if (!readCommand(PointsR, B, P.Cmd))
      break;
    P.Func = readId<FuncId>(PointsR, B.Funcs, "point func");
    P.Line = PointsR.u32();
    Prog->Points.push_back(std::move(P));
  }
  if (!PointsR.failed() && PointsR.remaining() != 0)
    PointsR.fail(SnapErrc::Malformed, "trailing bytes");
  if (PointsR.failed())
    return Fail(std::move(PointsR.Err));

  Reader EdgesR = readerFor(SecEdges);
  if (B.Points * 8 > EdgesR.Size) // two u32 counts per point minimum
    return Fail({SnapErrc::Malformed,
                 "edges section too short for its declared count"});
  for (auto *Vec : {&Prog->Succs, &Prog->Preds}) {
    for (uint64_t I = 0; I < B.Points && !EdgesR.failed(); ++I) {
      std::vector<PointId> Edges;
      uint32_t N = EdgesR.count(4, "edge");
      for (uint32_t J = 0; J < N && !EdgesR.failed(); ++J)
        Edges.push_back(readId<PointId>(EdgesR, B.Points, "edge"));
      Vec->push_back(std::move(Edges));
    }
  }
  if (!EdgesR.failed() && EdgesR.remaining() != 0)
    EdgesR.fail(SnapErrc::Malformed, "trailing bytes");
  if (EdgesR.failed())
    return Fail(std::move(EdgesR.Err));

  // FuncByName is derived state: rebuilding it here (first id wins, same
  // as the builder's insertion behavior — names are unique anyway) keeps
  // hash-map iteration artifacts out of the wire format.
  for (uint32_t I = 0; I < Prog->Funcs.size(); ++I)
    Prog->FuncByName.emplace(Prog->Funcs[I].Name, FuncId(I));

  // Optional depgraph payload (v2): opaque here, handed back verbatim —
  // its checksum was verified with the others above.
  for (const SectionEntry &E : Table)
    if (E.Kind == SecDepGraph) {
      Res.DepGraph.assign(Data + E.Offset, Data + E.Offset + E.Length);
      Res.HasDepGraph = true;
    }

  SPA_OBS_COUNT("snapshot.loads", 1);
  SPA_OBS_GAUGE_SET("snapshot.load.bytes", Size);
  SPA_OBS_JOURNAL(SnapshotLoad, Size, 0);
  Res.Prog = std::move(Prog);
  return Res;
}

SnapshotLoadResult loadSnapshot(const std::vector<uint8_t> &Bytes) {
  return loadSnapshot(Bytes.data(), Bytes.size());
}

SnapshotLoadResult loadSnapshotFile(const std::string &Path) {
  SnapshotLoadResult Res;
  FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    Res.Error = {SnapErrc::Io, "cannot open " + Path};
    return Res;
  }
  std::vector<uint8_t> Bytes;
  uint8_t Chunk[1 << 16];
  size_t N;
  while ((N = std::fread(Chunk, 1, sizeof(Chunk), F)) > 0)
    Bytes.insert(Bytes.end(), Chunk, Chunk + N);
  bool ReadErr = std::ferror(F);
  std::fclose(F);
  if (ReadErr) {
    Res.Error = {SnapErrc::Io, "read error on " + Path};
    return Res;
  }
  return loadSnapshot(Bytes);
}

bool writeSnapshotFile(const std::string &Path, const Program &Prog,
                       std::string &Error,
                       const std::vector<uint8_t> *DepGraphPayload) {
  std::vector<uint8_t> Bytes = saveSnapshot(Prog, DepGraphPayload);
  FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F) {
    Error = "cannot open " + Path + " for writing";
    return false;
  }
  size_t Written = std::fwrite(Bytes.data(), 1, Bytes.size(), F);
  bool Ok = Written == Bytes.size() && std::fclose(F) == 0;
  if (!Ok) {
    if (Written != Bytes.size())
      std::fclose(F);
    Error = "short write to " + Path;
    return false;
  }
  return true;
}

SnapshotError inspectSnapshot(const uint8_t *Data, size_t Size,
                              SnapshotInfo &Info) {
  Info.TotalBytes = Size;
  std::vector<SectionEntry> Table;
  SnapshotError Err = parseTable(Data, Size, Info.Version, Table);
  for (const SectionEntry &E : Table) {
    SnapshotSectionInfo S;
    S.Kind = E.Kind;
    S.Name = sectionName(E.Kind);
    S.Offset = E.Offset;
    S.Length = E.Length;
    S.Checksum = E.Checksum;
    S.ChecksumOk = fnv1a64(Data + E.Offset, E.Length) == E.Checksum;
    Info.Sections.push_back(S);
  }
  return Err;
}

//===----------------------------------------------------------------------===//
// Structural equality
//===----------------------------------------------------------------------===//

namespace {

bool exprEq(const IExpr *A, const IExpr *B) {
  if (!A || !B)
    return A == B;
  if (A->Kind != B->Kind)
    return false;
  switch (A->Kind) {
  case IExprKind::Num:
    return A->Num == B->Num;
  case IExprKind::Var:
  case IExprKind::AddrOf:
  case IExprKind::Deref:
    return A->Loc == B->Loc;
  case IExprKind::Binary:
    return A->Op == B->Op && exprEq(A->Lhs.get(), B->Lhs.get()) &&
           exprEq(A->Rhs.get(), B->Rhs.get());
  case IExprKind::Input:
    return true;
  case IExprKind::FuncAddr:
    return A->Func == B->Func;
  }
  return false;
}

bool cmdEq(const Command &A, const Command &B) {
  if (A.Kind != B.Kind || A.Target != B.Target ||
      A.AllocSite != B.AllocSite || A.DirectCallee != B.DirectCallee ||
      A.External != B.External || A.Pair != B.Pair ||
      A.Args.size() != B.Args.size())
    return false;
  if (!exprEq(A.E.get(), B.E.get()))
    return false;
  if ((A.Cnd != nullptr) != (B.Cnd != nullptr))
    return false;
  if (A.Cnd && (A.Cnd->Op != B.Cnd->Op ||
                !exprEq(A.Cnd->Lhs.get(), B.Cnd->Lhs.get()) ||
                !exprEq(A.Cnd->Rhs.get(), B.Cnd->Rhs.get())))
    return false;
  for (size_t I = 0; I < A.Args.size(); ++I)
    if (!exprEq(A.Args[I].get(), B.Args[I].get()))
      return false;
  return true;
}

} // namespace

std::string programDiff(const Program &A, const Program &B) {
  auto at = [](const char *What, size_t I) {
    return std::string(What) + " " + std::to_string(I) + " differs";
  };
  if (A.numLocs() != B.numLocs())
    return "loc table size differs";
  for (size_t I = 0; I < A.numLocs(); ++I) {
    const LocInfo &LA = A.Locs[I], &LB = B.Locs[I];
    if (LA.Kind != LB.Kind || LA.Name != LB.Name || LA.Owner != LB.Owner ||
        LA.Site != LB.Site)
      return at("loc", I);
  }
  if (A.numFuncs() != B.numFuncs())
    return "function table size differs";
  for (size_t I = 0; I < A.numFuncs(); ++I) {
    const FunctionInfo &FA = A.Funcs[I], &FB = B.Funcs[I];
    if (FA.Name != FB.Name || FA.Params != FB.Params ||
        FA.Locals != FB.Locals || FA.RetSlot != FB.RetSlot ||
        FA.Entry != FB.Entry || FA.Exit != FB.Exit || FA.Points != FB.Points)
      return at("function", I);
  }
  if (A.numPoints() != B.numPoints())
    return "point table size differs";
  for (size_t I = 0; I < A.numPoints(); ++I) {
    const Point &PA = A.Points[I], &PB = B.Points[I];
    if (PA.Func != PB.Func || PA.Line != PB.Line || !cmdEq(PA.Cmd, PB.Cmd))
      return at("point", I);
  }
  if (A.Succs != B.Succs)
    return "successor edges differ";
  if (A.Preds != B.Preds)
    return "predecessor edges differ";
  if (A.Start != B.Start || A.Main != B.Main)
    return "start/main function differs";
  if (A.FuncByName.size() != B.FuncByName.size())
    return "function name index size differs";
  for (const auto &[Name, Id] : A.FuncByName) {
    auto It = B.FuncByName.find(Name);
    if (It == B.FuncByName.end() || It->second != Id)
      return "function name index entry '" + Name + "' differs";
  }
  return "";
}

} // namespace spa
