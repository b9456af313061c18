//===- BddDepStorage.cpp - BDD-backed dependency storage -----------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/BddDepStorage.h"

#include "obs/Metrics.h"

#include <algorithm>
#include <cassert>

using namespace spa;

uint32_t BddDepStorage::bitsFor(uint32_t N) {
  uint32_t Bits = 1;
  while ((1u << Bits) < N)
    ++Bits;
  return Bits;
}

BddDepStorage::BddDepStorage(uint32_t NumNodes, uint32_t NumLocs)
    : SrcBits(bitsFor(NumNodes)), DstBits(bitsFor(NumNodes)),
      LocBits(bitsFor(NumLocs)), Mgr(SrcBits + DstBits + LocBits),
      Root(Mgr.falseBdd()) {
  assert(DstBits + LocBits <= 64 && "model word too wide");
}

bool BddDepStorage::add(uint32_t Src, LocId L, uint32_t Dst) {
  // Variable order: source bits (MSB first), then target bits, then
  // location bits.  Cube construction from the bottom up keeps every
  // intermediate node reduced.
  BddRef Cube = Mgr.trueBdd();
  uint32_t Var = SrcBits + DstBits + LocBits;
  auto Emit = [&](uint32_t Value, uint32_t Bits) {
    for (uint32_t I = 0; I < Bits; ++I) {
      --Var;
      bool Bit = (Value >> I) & 1;
      BddRef Lit = Bit ? Mgr.var(Var) : Mgr.nvar(Var);
      Cube = Mgr.andOp(Lit, Cube);
    }
  };
  Emit(L.value(), LocBits);
  Emit(Dst, DstBits);
  Emit(Src, SrcBits);

  BddRef NewRoot = Mgr.orOp(Root, Cube);
  if (NewRoot == Root)
    return false;
  Root = NewRoot;
  CofactorCache.clear();
  ++Edges;
  return true;
}

void BddDepStorage::forEachOut(uint32_t Src, EdgeFn F) const {
  // Fix the source bits, then enumerate (target, location) models.
  if (CofactorCache.empty())
    CofactorCache.assign(1u << SrcBits, BddRef(UINT32_MAX));
  BddRef Sub = CofactorCache[Src];
  if (Sub == UINT32_MAX) {
    SPA_OBS_COUNT("bdd.cofactor.misses", 1);
    Sub = Root;
    for (uint32_t I = 0; I < SrcBits; ++I) {
      uint32_t Var = SrcBits - 1 - I; // MSB of Src has the smallest index.
      bool Bit = (Src >> (SrcBits - 1 - Var)) & 1;
      Sub = Mgr.restrict(Sub, Var, Bit);
    }
    CofactorCache[Src] = Sub;
  } else {
    SPA_OBS_COUNT("bdd.cofactor.hits", 1);
  }
  Mgr.forEachModel(Sub, SrcBits, SrcBits + DstBits + LocBits,
                   [&](uint64_t Word) {
                     // Bit i of Word is variable SrcBits + i.  Variables
                     // SrcBits..SrcBits+DstBits-1 hold Dst MSB-first.
                     uint32_t Dst = 0, Loc = 0;
                     for (uint32_t I = 0; I < DstBits; ++I)
                       if (Word & (1ULL << I))
                         Dst |= 1u << (DstBits - 1 - I);
                     for (uint32_t I = 0; I < LocBits; ++I)
                       if (Word & (1ULL << (DstBits + I)))
                         Loc |= 1u << (LocBits - 1 - I);
                     F(LocId(Loc), Dst);
                   });
}

void BddDepStorage::forEachOutOn(uint32_t Src,
                                 const std::vector<LocId> &Labels,
                                 EdgeFn F) const {
  forEachOut(Src, [&](LocId L, uint32_t Dst) {
    if (std::binary_search(Labels.begin(), Labels.end(), L))
      F(L, Dst);
  });
}
