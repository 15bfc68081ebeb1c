//===- analysis/Liveness.cpp ----------------------------------------------===//

#include "analysis/Liveness.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <limits>
#include <numeric>

using namespace metaopt;

// One pass over the phis and the body collects, per register, its flags,
// definition position and last use; each register then contributes one
// inclusive live interval [Begin, End] to a per-class delta array, and a
// single prefix-sum sweep over the positions yields every maximum and the
// average. O(body + registers) instead of O(positions x intervals).
LivenessInfo metaopt::analyzeLiveness(const Loop &L,
                                      const std::vector<uint32_t> &Order) {
  const std::vector<Instruction> &Body = L.body();
  uint32_t N = static_cast<uint32_t>(Body.size());
  unsigned R = L.numRegs();
  assert((Order.empty() || Order.size() == N) &&
         "order must cover the whole body");

  // Position of each body instruction in the evaluation order.
  std::vector<uint32_t> Position(N);
  if (Order.empty())
    std::iota(Position.begin(), Position.end(), 0);
  else
    for (uint32_t Pos = 0; Pos < N; ++Pos)
      Position[Order[Pos]] = Pos;

  enum : uint8_t {
    // Loop-control registers (the induction variable and trip-test
    // predicate) live in dedicated machine state (counted-branch
    // registers) and do not contribute to allocatable pressure.
    Control = 1,
    PhiDest = 2,
    // Defined by a phi or a body instruction; the rest are live-ins.
    Defined = 4,
    // Recurs into the next iteration (live to the end).
    AcrossBack = 8,
  };
  constexpr uint32_t NoPos = std::numeric_limits<uint32_t>::max();
  std::vector<uint8_t> Flags(R, 0);
  std::vector<uint32_t> DefPos(R, NoPos);
  std::vector<uint32_t> LastUse(R, NoPos);

  for (const PhiNode &Phi : L.phis()) {
    if (Phi.Recur != NoReg)
      Flags[Phi.Recur] |= AcrossBack;
    if (Phi.Dest != NoReg)
      Flags[Phi.Dest] |= PhiDest | Defined;
  }
  for (uint32_t I = 0; I < N; ++I) {
    const Instruction &Instr = Body[I];
    if (Instr.hasDest())
      Flags[Instr.Dest] |= Defined;
    if (Instr.isLoopControl()) {
      if (Instr.hasDest())
        Flags[Instr.Dest] |= Control;
      for (RegId Operand : Instr.Operands)
        Flags[Operand] |= Control;
      continue;
    }
    uint32_t Pos = Position[I];
    if (Instr.hasDest())
      DefPos[Instr.Dest] = Pos;
    auto NoteUse = [&](RegId Reg) {
      if (LastUse[Reg] == NoPos || LastUse[Reg] < Pos)
        LastUse[Reg] = Pos;
    };
    for (RegId Operand : Instr.Operands)
      NoteUse(Operand);
    if (Instr.Pred != NoReg)
      NoteUse(Instr.Pred);
  }

  LivenessInfo Info;

  // Live interval per register: [DefPos, LastUsePos]. Phi destinations are
  // live from position 0; recurrence sources extend to the end; live-ins
  // are live everywhere and counted separately.
  std::vector<std::array<int, 3>> Delta(N + 2, {0, 0, 0});
  for (RegId Reg = 0; Reg < R; ++Reg) {
    uint8_t F = Flags[Reg];
    if (F & Control)
      continue;
    if (!(F & Defined)) {
      // Invariant inputs occupy a register for the whole loop; only count
      // ones that are actually read (phi initial values are consumed
      // before the steady state and are not loop-long pressure).
      if (LastUse[Reg] != NoPos)
        ++Info.NumLiveIn;
      continue;
    }
    uint32_t Begin = 0, End = 0;
    if (F & PhiDest) {
      End = LastUse[Reg] == NoPos ? 0 : LastUse[Reg];
    } else {
      if (DefPos[Reg] == NoPos)
        continue; // Unused register id.
      Begin = DefPos[Reg];
      End = LastUse[Reg] == NoPos ? Begin : std::max(Begin, LastUse[Reg]);
    }
    if (F & AcrossBack) {
      End = N;
      ++Info.NumAcrossBack;
    }
    size_t RC = static_cast<size_t>(L.regClass(Reg));
    ++Delta[Begin][RC];
    --Delta[End + 1][RC];
  }

  // Sweep the positions counting overlaps per class.
  std::array<int, 3> Live = {0, 0, 0};
  double LiveSum = 0.0;
  for (uint32_t Pos = 0; Pos < N; ++Pos) {
    for (size_t RC = 0; RC < 3; ++RC)
      Live[RC] += Delta[Pos][RC];
    unsigned LiveInt = static_cast<unsigned>(Live[0]);
    unsigned LiveFloat = static_cast<unsigned>(Live[1]);
    unsigned LivePred = static_cast<unsigned>(Live[2]);
    Info.MaxLiveInt = std::max(Info.MaxLiveInt, LiveInt);
    Info.MaxLiveFloat = std::max(Info.MaxLiveFloat, LiveFloat);
    Info.MaxLivePred = std::max(Info.MaxLivePred, LivePred);
    Info.MaxLiveTotal =
        std::max(Info.MaxLiveTotal, LiveInt + LiveFloat + LivePred);
    LiveSum += LiveInt + LiveFloat + LivePred;
  }
  if (N > 0)
    Info.AvgLiveTotal = LiveSum / N;
  return Info;
}
