//===- Snapshot.h - Versioned binary IR serialization --------------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `spa-ir-v1` snapshot: a versioned, endian-fixed binary serialization
/// of ir::Program.  A snapshot is the unit of work the shard coordinator
/// ships across process (and eventually machine) boundaries: the parent
/// parses and lowers a program once, and every shard worker reconstructs
/// the identical Program from the bytes instead of re-running the
/// frontend.
///
/// Wire format (all integers little-endian, fixed width):
///
///   [0..8)    magic  "SPAIR\n\x1a\0"  (PNG-style: catches text-mode and
///                                      truncation mangling up front)
///   [8..12)   u32    version (1 or 2; 2 adds the optional depgraph section)
///   [12..16)  u32    section count
///   [16..)    section table: per section 32 bytes
///               { u32 kind; u32 reserved; u64 offset; u64 length;
///                 u64 checksum }            (checksum = FNV-1a 64 of the
///                                            section's payload bytes)
///   sections, contiguous and in table order, tiling the rest of the file
///
/// Section kinds: 1 = Meta (table sizes + start/main ids, decoded first so
/// every id in later sections can be bounds-checked), 2 = Locs, 3 = Funcs,
/// 4 = Points (commands with their expression trees), 5 = Edges (Succs and
/// Preds vectors verbatim — predecessor *order* is part of deterministic
/// join/phi behavior, so it is serialized, not rebuilt).  All five are
/// required exactly once.  FuncByName is derived state and is rebuilt on
/// load.
///
/// Version 2 adds an *optional* sixth section, 6 = DepGraph: the sparse
/// dependency graph serialized alongside the IR, so a consumer (the
/// spa-serve daemon, `spa-analyze --snapshot-in`) can warm-start the
/// fixpoint without re-running dependency generation.  Its payload is
/// opaque at this layer — the graph types live above the IR library —
/// and is encoded/decoded by core/DepSnapshot.h; here it is just a
/// checksummed byte range handed back verbatim.  Version-1 files (five
/// sections, no depgraph) still load unchanged.
///
/// The loader is strict: every offset, length, count, enum and id is
/// validated against bounds before use, unconsumed section bytes are an
/// error, and any malformed input yields a typed SnapshotError — never UB,
/// never abort.  Mutated bytes that sneak past the header are caught by the
/// per-section checksums before deep decoding begins.
///
//===----------------------------------------------------------------------===//

#ifndef SPA_IR_SNAPSHOT_H
#define SPA_IR_SNAPSHOT_H

#include "ir/Program.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace spa {

/// Current snapshot format version (the version new writers emit).
/// Readers accept [MinSnapshotVersion, SnapshotVersion] and reject
/// anything else with SnapErrc::BadVersion; bumping this is a format
/// change that must be announced by regenerating tests/golden/*.snap
/// (a v1 artifact stays checked in as tests/golden/v1_baseline.snap to
/// pin backward compatibility).
constexpr uint32_t SnapshotVersion = 2;
constexpr uint32_t MinSnapshotVersion = 1;

/// Loader failure taxonomy.  Every malformed input maps to exactly one of
/// these; the batch driver classifies any of them as a build_error outcome
/// (the snapshot equivalent of a source file that does not parse).
enum class SnapErrc {
  None = 0,
  Io,                ///< File could not be opened/read.
  BadMagic,          ///< First 8 bytes are not the spa-ir magic.
  BadVersion,        ///< Version outside [MinSnapshotVersion, SnapshotVersion].
  Truncated,         ///< Header or section table extends past the buffer.
  BadSectionTable,   ///< Sections overlap, leave gaps, or exceed bounds.
  DuplicateSection,  ///< A section kind appears twice.
  MissingSection,    ///< A required section kind is absent.
  ChecksumMismatch,  ///< Section payload does not hash to its table entry.
  Malformed,         ///< In-section structure error (bad count, enum,
                     ///< string length, trailing bytes, expr nesting).
  BadId,             ///< A point/func/loc id is out of bounds.
};

/// Stable lowercase name of \p C ("bad_magic", "checksum_mismatch", ...).
const char *snapshotErrorName(SnapErrc C);

/// One typed loader error: the code plus a human message naming the
/// offending section/offset.
struct SnapshotError {
  SnapErrc Code = SnapErrc::None;
  std::string Message;

  bool ok() const { return Code == SnapErrc::None; }
  /// "checksum_mismatch: section 4 (points) payload hash ..." rendering.
  std::string str() const;
};

/// Serializes \p Prog to spa-ir snapshot bytes.  Deterministic: the same
/// Program always produces the same bytes (pinned byte-for-byte by the
/// golden corpus test), so snapshots can be content-compared and cached.
/// When \p DepGraphPayload is non-null and non-empty, it is embedded
/// verbatim as the optional depgraph section (see the file comment); the
/// IR sections' bytes are unaffected.
std::vector<uint8_t>
saveSnapshot(const Program &Prog,
             const std::vector<uint8_t> *DepGraphPayload = nullptr);

/// Result of loading a snapshot: the Program, or a typed error.
struct SnapshotLoadResult {
  std::unique_ptr<Program> Prog;
  SnapshotError Error;
  /// Verbatim payload of the optional depgraph section (empty when the
  /// snapshot carried none).  Decoded by core/DepSnapshot.h.
  std::vector<uint8_t> DepGraph;
  bool HasDepGraph = false;
  bool ok() const { return Prog != nullptr; }
};

/// Strict loader (see file comment).  \p Data need not outlive the call.
SnapshotLoadResult loadSnapshot(const uint8_t *Data, size_t Size);
SnapshotLoadResult loadSnapshot(const std::vector<uint8_t> &Bytes);

/// Reads and loads a snapshot file.  I/O failures come back as
/// SnapErrc::Io; everything else is the in-memory loader's verdict.
SnapshotLoadResult loadSnapshotFile(const std::string &Path);

/// Serializes \p Prog (plus an optional depgraph payload) and writes it
/// to \p Path.  Returns false with \p Error set on I/O failure.
bool writeSnapshotFile(const std::string &Path, const Program &Prog,
                       std::string &Error,
                       const std::vector<uint8_t> *DepGraphPayload = nullptr);

/// Shallow header/section inspection for the spa-snapshot tool: parses
/// the header and section table and re-hashes every section without deep
/// decoding.  Fills \p Info for whatever was readable.
struct SnapshotSectionInfo {
  uint32_t Kind = 0;
  const char *Name = "?"; ///< "meta", "locs", ... ("?" for unknown kinds).
  uint64_t Offset = 0, Length = 0;
  uint64_t Checksum = 0;  ///< Value recorded in the table.
  bool ChecksumOk = false;
};
struct SnapshotInfo {
  uint32_t Version = 0;
  uint64_t TotalBytes = 0;
  std::vector<SnapshotSectionInfo> Sections;
};
SnapshotError inspectSnapshot(const uint8_t *Data, size_t Size,
                              SnapshotInfo &Info);

/// Structural equality of two Programs (every table, command, expression
/// tree, and edge vector).  Returns "" when identical, else a one-line
/// description of the first difference — the roundtrip property the fuzz
/// suite pins is programDiff(P, load(save(P))) == "".
std::string programDiff(const Program &A, const Program &B);

} // namespace spa

#endif // SPA_IR_SNAPSHOT_H
