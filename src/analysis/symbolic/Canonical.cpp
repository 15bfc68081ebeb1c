//===- analysis/symbolic/Canonical.cpp - Canonical sim-equivalence --------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//

#include "analysis/symbolic/Canonical.h"

#include <map>

using namespace metaopt;

Loop metaopt::canonicalSimForm(const Loop &L) {
  Loop Out = L;
  Out.setName("L");
  Out.setSourceFile("");
  Out.setHeaderLine(0);
  Out.setLanguage(SourceLanguage::C);
  Out.setNestLevel(1);

  // Registers: canonical names in first-appearance order (phis before
  // body, dest before operands before guard), so loops that built the
  // same structure through different register-creation orders still
  // collide. Unreferenced registers get trailing names for stability.
  std::map<RegId, unsigned> Order;
  auto Visit = [&](RegId Reg) {
    if (Reg != NoReg)
      Order.emplace(Reg, static_cast<unsigned>(Order.size()));
  };
  for (const PhiNode &Phi : Out.phis()) {
    Visit(Phi.Dest);
    Visit(Phi.Init);
    Visit(Phi.Recur);
  }
  for (const Instruction &Instr : Out.body()) {
    Visit(Instr.Dest);
    for (RegId Operand : Instr.Operands)
      Visit(Operand);
    Visit(Instr.Pred);
  }
  for (RegId Reg = 0; Reg < Out.numRegs(); ++Reg)
    Visit(Reg);
  for (const auto &[Reg, Index] : Order)
    Out.setRegName(Reg, "c" + std::to_string(Index));

  // Base symbols: dense renumbering in first-use body order.
  std::map<int32_t, int32_t> SymOrder;
  for (Instruction &Instr : Out.body()) {
    if (!Instr.isMemory())
      continue;
    auto [It, Inserted] = SymOrder.emplace(
        Instr.Mem.BaseSym, static_cast<int32_t>(SymOrder.size()));
    Instr.Mem.BaseSym = It->second;
    (void)Inserted;
  }

  // Source lines are diagnostic metadata; drop them so differently
  // formatted sources of one structure canonicalize identically.
  for (Instruction &Instr : Out.body())
    Instr.SrcLine = 0;
  for (PhiNode &Phi : Out.phis())
    Phi.SrcLine = 0;
  return Out;
}

void metaopt::hashCanonicalSimStructure(FingerprintHasher &H,
                                        const Loop &L) {
  // Registers renumbered in the same first-appearance order
  // canonicalSimForm uses, without materializing the clone. Unreferenced
  // registers are omitted: no simulator pass can observe them (liveness
  // skips ids with neither a definition nor a use).
  std::vector<uint32_t> Renumber(L.numRegs(), NoReg);
  uint32_t NextReg = 0;
  auto Visit = [&](RegId Reg) {
    if (Reg != NoReg && Renumber[Reg] == NoReg)
      Renumber[Reg] = NextReg++;
  };
  for (const PhiNode &Phi : L.phis()) {
    Visit(Phi.Dest);
    Visit(Phi.Init);
    Visit(Phi.Recur);
  }
  for (const Instruction &Instr : L.body()) {
    Visit(Instr.Dest);
    for (RegId Operand : Instr.Operands)
      Visit(Operand);
    Visit(Instr.Pred);
  }
  auto Renum = [&](RegId Reg) -> uint64_t {
    return Reg == NoReg ? static_cast<uint64_t>(NoReg) : Renumber[Reg];
  };

  // Every field at full width, each list led by its length, so the
  // stream is injective for any loop. The key lives only in memory (the
  // per-run body-stats cache), so its layout is free to evolve, unlike
  // cache/SimCache.h's persistent key.
  H.u64(L.phis().size());
  for (const PhiNode &Phi : L.phis()) {
    H.u64(Renum(Phi.Dest));
    H.u64(Renum(Phi.Init));
    H.u64(Renum(Phi.Recur));
  }

  // Base symbols renumbered densely in first-use body order.
  std::map<int32_t, int32_t> SymOrder;
  H.u64(L.body().size());
  for (const Instruction &Instr : L.body()) {
    H.u64(static_cast<uint64_t>(Instr.Op));
    H.u64(Renum(Instr.Dest));
    H.u64(Instr.Operands.size());
    for (RegId Operand : Instr.Operands)
      H.u64(Renum(Operand));
    H.u64(Renum(Instr.Pred));
    H.i64(Instr.Imm);
    H.boolean(Instr.isMemory());
    if (Instr.isMemory()) {
      auto [It, Inserted] = SymOrder.emplace(
          Instr.Mem.BaseSym, static_cast<int32_t>(SymOrder.size()));
      (void)Inserted;
      H.i64(It->second);
      H.i64(Instr.Mem.Stride);
      H.i64(Instr.Mem.Offset);
      H.boolean(Instr.Mem.Indirect);
      H.i64(Instr.Mem.SizeBytes);
    }
    // Exact IEEE-754 bits: the printed canonical text truncates exit
    // probabilities to six significant digits, which would merge loops
    // whose exit-penalty terms genuinely differ.
    H.f64(Instr.TakenProb);
    H.boolean(Instr.Paired);
  }

  // Classes of the referenced registers, in renumbered order.
  std::vector<uint8_t> Classes(NextReg, 0);
  for (RegId Reg = 0; Reg < L.numRegs(); ++Reg)
    if (Renumber[Reg] != NoReg)
      Classes[Renumber[Reg]] = static_cast<uint8_t>(L.regClass(Reg));
  H.u64(NextReg);
  for (uint8_t RC : Classes)
    H.u64(RC);
}
