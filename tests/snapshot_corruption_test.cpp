//===- snapshot_corruption_test.cpp - Hostile-input fuzzing of the loader -------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The snapshot loader's negative contract: *no* byte sequence makes it
/// crash, read out of bounds, or abort — a mutated input either loads to
/// a program structurally identical in meaning (mutations in dead bytes)
/// or comes back as one typed SnapErrc.  Exercised with exhaustive
/// single-bit flips, every truncation length, oversized section lengths
/// and element counts, and targeted header attacks; the suite carries
/// both sanitizer labels so the asan/ubsan build proves "no UB" rather
/// than just "no visible crash".  The batch driver rides the same
/// contract: a corrupt snapshot fed to a shard worker classifies as
/// BuildError (the snapshot analogue of unparseable source), never Crash.
///
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"
#include "ir/Snapshot.h"
#include "workload/Batch.h"
#include "workload/Generator.h"
#include "workload/ShardCoordinator.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include <unistd.h>

using namespace spa;

namespace {

std::vector<uint8_t> referenceSnapshot(uint64_t Seed = 0xc0de) {
  GenConfig C;
  C.Seed = Seed;
  C.NumFunctions = 3;
  C.StmtsPerFunction = 8;
  C.PointerLocals = 2;
  BuildResult Built = buildProgramFromSource(generateSource(C));
  EXPECT_TRUE(Built.ok()) << Built.Error;
  return saveSnapshot(*Built.Prog);
}

/// The whole negative contract in one call: loading must come back —
/// cleanly or with a typed error — and an "ok" result must be a usable
/// program (re-serializable, self-consistent).
void expectLoadIsTotal(const std::vector<uint8_t> &Bytes,
                       const char *Ctx) {
  SnapshotLoadResult L = loadSnapshot(Bytes);
  if (!L.ok()) {
    EXPECT_NE(L.Error.Code, SnapErrc::None) << Ctx;
    EXPECT_FALSE(L.Error.Message.empty()) << Ctx;
    EXPECT_EQ(L.Prog, nullptr) << Ctx;
    return;
  }
  ASSERT_NE(L.Prog, nullptr) << Ctx;
  // A survivor must be internally consistent enough to re-encode.
  std::vector<uint8_t> Again = saveSnapshot(*L.Prog);
  EXPECT_FALSE(Again.empty()) << Ctx;
}

void putU32At(std::vector<uint8_t> &B, size_t Off, uint32_t V) {
  ASSERT_LE(Off + 4, B.size());
  std::memcpy(B.data() + Off, &V, 4);
}

void putU64At(std::vector<uint8_t> &B, size_t Off, uint64_t V) {
  ASSERT_LE(Off + 8, B.size());
  std::memcpy(B.data() + Off, &V, 8);
}

} // namespace

//===----------------------------------------------------------------------===//
// Exhaustive structured mutations
//===----------------------------------------------------------------------===//

TEST(SnapshotCorruption, EverySingleBitFlipIsHandled) {
  std::vector<uint8_t> Ref = referenceSnapshot();
  for (size_t Byte = 0; Byte < Ref.size(); ++Byte)
    for (int Bit = 0; Bit < 8; ++Bit) {
      std::vector<uint8_t> Mut = Ref;
      Mut[Byte] ^= static_cast<uint8_t>(1u << Bit);
      expectLoadIsTotal(
          Mut, ("bit flip at byte " + std::to_string(Byte)).c_str());
    }
}

TEST(SnapshotCorruption, EveryTruncationLengthIsRejected) {
  std::vector<uint8_t> Ref = referenceSnapshot();
  for (size_t Len = 0; Len < Ref.size(); ++Len) {
    std::vector<uint8_t> Mut(Ref.begin(), Ref.begin() + Len);
    SnapshotLoadResult L = loadSnapshot(Mut);
    ASSERT_FALSE(L.ok()) << "truncated to " << Len << " bytes loaded";
    ASSERT_NE(L.Error.Code, SnapErrc::None) << Len;
  }
}

TEST(SnapshotCorruption, RandomMultiByteMutationsAreHandled) {
  std::vector<uint8_t> Ref = referenceSnapshot();
  std::mt19937_64 Rng(0xf022ed); // Fixed seed: reproducible corpus.
  for (unsigned Round = 0; Round < 300; ++Round) {
    std::vector<uint8_t> Mut = Ref;
    unsigned Edits = 1 + Rng() % 8;
    for (unsigned E = 0; E < Edits; ++E) {
      switch (Rng() % 4) {
      case 0: // Overwrite a byte.
        Mut[Rng() % Mut.size()] = static_cast<uint8_t>(Rng());
        break;
      case 1: { // Chop a tail.  (erase, not resize: GCC 12 cannot rule
                // out resize's grow path and fails -Wstringop-overflow.)
        size_t Chop = Rng() % (Mut.size() / 2 + 1);
        Mut.erase(Mut.end() - static_cast<std::ptrdiff_t>(Chop), Mut.end());
        break;
      }
      case 2: // Duplicate-append a slice (grows the buffer).
        Mut.insert(Mut.end(), Mut.begin(),
                   Mut.begin() + Rng() % (Mut.size() / 4 + 1));
        break;
      case 3: { // Stomp a word with an adversarial value.
        uint64_t Vals[] = {0, 0xFFFFFFFFull, 0xFFFFFFFFFFFFFFFFull,
                           Mut.size(), Mut.size() - 1, 1ull << 62};
        if (Mut.size() >= 8)
          std::memcpy(Mut.data() + Rng() % (Mut.size() - 7),
                      &Vals[Rng() % 6], 8);
        break;
      }
      }
      if (Mut.empty())
        break;
    }
    expectLoadIsTotal(Mut, ("random round " + std::to_string(Round)).c_str());
  }
}

//===----------------------------------------------------------------------===//
// Targeted header/table attacks pin the specific taxonomy entries
//===----------------------------------------------------------------------===//

TEST(SnapshotCorruption, BadMagicIsTyped) {
  std::vector<uint8_t> Mut = referenceSnapshot();
  Mut[0] = 'X';
  EXPECT_EQ(loadSnapshot(Mut).Error.Code, SnapErrc::BadMagic);
  EXPECT_EQ(loadSnapshot(nullptr, 0).Error.Code, SnapErrc::Truncated);
}

TEST(SnapshotCorruption, FutureVersionIsTyped) {
  std::vector<uint8_t> Mut = referenceSnapshot();
  putU32At(Mut, 8, SnapshotVersion + 1); // Version field after magic.
  SnapshotLoadResult L = loadSnapshot(Mut);
  EXPECT_EQ(L.Error.Code, SnapErrc::BadVersion);
  // The message names both versions so a future reader knows what to do.
  EXPECT_NE(L.Error.Message.find(std::to_string(SnapshotVersion + 1)),
            std::string::npos);
}

TEST(SnapshotCorruption, OversizedSectionLengthIsTyped) {
  // Table entry 0 starts at byte 16; its length field is at offset +12.
  std::vector<uint8_t> Mut = referenceSnapshot();
  putU64At(Mut, 16 + 12, Mut.size() * 16);
  EXPECT_EQ(loadSnapshot(Mut).Error.Code, SnapErrc::BadSectionTable);
}

TEST(SnapshotCorruption, ChecksumMismatchIsTypedAndNamesSection) {
  std::vector<uint8_t> Ref = referenceSnapshot();
  SnapshotInfo Info;
  ASSERT_TRUE(inspectSnapshot(Ref.data(), Ref.size(), Info).ok());
  for (const SnapshotSectionInfo &S : Info.Sections) {
    std::vector<uint8_t> Mut = Ref;
    Mut[S.Offset] ^= 0xFF; // Payload flip: table intact, checksum not.
    SnapshotLoadResult L = loadSnapshot(Mut);
    ASSERT_FALSE(L.ok()) << S.Name;
    EXPECT_EQ(L.Error.Code, SnapErrc::ChecksumMismatch) << S.Name;
    EXPECT_NE(L.Error.Message.find(S.Name), std::string::npos)
        << L.Error.Message;
    // inspect keeps going where load stops: the report flags exactly
    // the flipped section and validates the others.
    SnapshotInfo MutInfo;
    ASSERT_TRUE(inspectSnapshot(Mut.data(), Mut.size(), MutInfo).ok());
    for (const SnapshotSectionInfo &MS : MutInfo.Sections)
      EXPECT_EQ(MS.ChecksumOk, std::string(MS.Name) != S.Name) << MS.Name;
  }
}

TEST(SnapshotCorruption, CountLiesCannotForceAllocations) {
  // Stomp the Meta section's numPoints with 2^62: the loader must reject
  // on arithmetic (count x min-size > remaining), not by attempting a
  // multi-exabyte vector.  Checksums are recomputed so the lie survives
  // to the decode stage it attacks.
  std::vector<uint8_t> Ref = referenceSnapshot();
  SnapshotInfo Info;
  ASSERT_TRUE(inspectSnapshot(Ref.data(), Ref.size(), Info).ok());
  const SnapshotSectionInfo *Meta = nullptr;
  for (const SnapshotSectionInfo &S : Info.Sections)
    if (std::string(S.Name) == "meta")
      Meta = &S;
  ASSERT_NE(Meta, nullptr);

  std::vector<uint8_t> Mut = Ref;
  putU64At(Mut, Meta->Offset, 1ull << 62);
  // Rewrite the stored checksum (entry 0, field at 16 + 24) to match the
  // mutated payload, computed with the same public FNV the format uses.
  SnapshotInfo MutInfo;
  ASSERT_TRUE(inspectSnapshot(Mut.data(), Mut.size(), MutInfo).ok());
  uint64_t H = 14695981039346656037ull;
  for (uint64_t I = 0; I < Meta->Length; ++I) {
    H ^= Mut[Meta->Offset + I];
    H *= 1099511628211ull;
  }
  putU64At(Mut, 16 + 24, H);
  SnapshotLoadResult L = loadSnapshot(Mut);
  ASSERT_FALSE(L.ok());
  EXPECT_TRUE(L.Error.Code == SnapErrc::Malformed ||
              L.Error.Code == SnapErrc::BadId)
      << snapshotErrorName(L.Error.Code);
}

//===----------------------------------------------------------------------===//
// Batch integration: corrupt snapshots are build errors, not crashes
//===----------------------------------------------------------------------===//

TEST(SnapshotCorruption, IsolatedChildClassifiesCorruptSnapshotAsBuildError) {
  std::vector<uint8_t> Good = referenceSnapshot();
  std::vector<uint8_t> Bad = Good;
  Bad[Good.size() / 2] ^= 0xA5; // Payload corruption: checksum trips.

  std::string Dir = testing::TempDir();
  std::string GoodPath = Dir + "/spa_corrupt_good_" +
                         std::to_string(::getpid()) + ".snap";
  std::string BadPath = Dir + "/spa_corrupt_bad_" +
                        std::to_string(::getpid()) + ".snap";
  for (const auto &[Path, Bytes] :
       {std::pair(GoodPath, Good), std::pair(BadPath, Bad)}) {
    std::ofstream Out(Path, std::ios::binary);
    Out.write(reinterpret_cast<const char *>(Bytes.data()),
              static_cast<std::streamsize>(Bytes.size()));
    ASSERT_TRUE(Out.good());
  }

  std::vector<BatchItem> Items;
  BatchItem GoodItem;
  GoodItem.Name = "good";
  GoodItem.SnapshotPath = GoodPath;
  BatchItem BadItem;
  BadItem.Name = "bad";
  BadItem.SnapshotPath = BadPath;
  Items.push_back(GoodItem);
  Items.push_back(BadItem);

  ShardOptions Opts; // The isolated executor: workers load the bytes.
  Opts.Batch.Check = true;
  BatchResult R = runSharded(Items, Opts).Batch;
  ASSERT_EQ(R.Items.size(), 2u);
  EXPECT_TRUE(R.Items[0].Ok) << R.Items[0].Error;
  EXPECT_EQ(R.Items[0].Outcome, BatchOutcome::Ok);
  EXPECT_FALSE(R.Items[1].Ok);
  EXPECT_EQ(R.Items[1].Outcome, BatchOutcome::BuildError)
      << batchOutcomeName(R.Items[1].Outcome) << ": " << R.Items[1].Error;
  EXPECT_NE(R.Items[1].Error.find("checksum"), std::string::npos)
      << R.Items[1].Error;
  // Exit-code taxonomy: a corrupt input is a failure (2), not a crash
  // that would also be 2 — the outcome distinction above is the point.
  EXPECT_EQ(exitCodeFor(R), 2);

  ::unlink(GoodPath.c_str());
  ::unlink(BadPath.c_str());
}

TEST(SnapshotCorruption, InProcessBatchAlsoClassifiesBuildError) {
  std::vector<uint8_t> Bad = referenceSnapshot();
  Bad.resize(Bad.size() / 3); // Truncation instead of a flip.
  std::string Path = testing::TempDir() + "/spa_corrupt_trunc_" +
                     std::to_string(::getpid()) + ".snap";
  std::ofstream Out(Path, std::ios::binary);
  Out.write(reinterpret_cast<const char *>(Bad.data()),
            static_cast<std::streamsize>(Bad.size()));
  ASSERT_TRUE(Out.good());
  Out.close();

  BatchItem It;
  It.Name = "trunc";
  It.SnapshotPath = Path;
  BatchOptions Opts; // runBatch: the in-process loader path.
  BatchResult R = runBatch({It}, Opts);
  ASSERT_EQ(R.Items.size(), 1u);
  EXPECT_FALSE(R.Items[0].Ok);
  EXPECT_EQ(R.Items[0].Outcome, BatchOutcome::BuildError);
  ::unlink(Path.c_str());
}
