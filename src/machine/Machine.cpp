//===- machine/Machine.cpp ------------------------------------------------===//

#include "machine/Machine.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace metaopt;

MachineModel::MachineModel(MachineConfig C) : Config(std::move(C)) {
  for (unsigned I = 0; I < NumOpcodes; ++I)
    assert(Config.Latency[I] >= 1 && "every opcode needs a latency");
  assert(Config.IssueWidth >= 1 && "machine must issue something");
}

UnitKind MachineModel::unitFor(Opcode Op) const {
  switch (Op) {
  case Opcode::Load:
  case Opcode::Store:
    return UnitKind::Mem;
  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
  case Opcode::FMA:
  case Opcode::FDiv:
  case Opcode::FSqrt:
  case Opcode::FCmp:
  case Opcode::FConst:
  case Opcode::FCvt:
  case Opcode::IMul: // Integer multiply executes on the FP unit (Itanium).
  case Opcode::IDiv:
  case Opcode::IRem:
    return UnitKind::Fp;
  case Opcode::ExitIf:
  case Opcode::Call:
  case Opcode::BackBr:
    return UnitKind::Br;
  default:
    return UnitKind::Int;
  }
}

bool MachineModel::canUseMemUnit(Opcode Op) const {
  switch (Op) {
  case Opcode::IAdd:
  case Opcode::ISub:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Copy:
  case Opcode::IConst:
  case Opcode::AddrGen:
  case Opcode::IvAdd:
    return true;
  default:
    return false;
  }
}

int MachineModel::codeBytes(int NumInstructions) const {
  int Bundles = (NumInstructions + Config.SlotsPerBundle - 1) /
                Config.SlotsPerBundle;
  return Bundles * Config.BundleBytes;
}

double MachineModel::resourceMII(
    const std::array<int, NumUnitKinds> &OpsPerKind, int TotalOps) const {
  double MII = static_cast<double>(TotalOps) / Config.IssueWidth;
  for (unsigned Kind = 0; Kind < NumUnitKinds; ++Kind) {
    int Units = Config.UnitCount[Kind];
    if (Units <= 0)
      continue;
    MII = std::max(MII, static_cast<double>(OpsPerKind[Kind]) / Units);
  }
  return std::max(MII, 1.0);
}

bool metaopt::occupiesIssueSlot(const Instruction &Instr) {
  if (Instr.Op == Opcode::IvAdd || Instr.Op == Opcode::IvCmp)
    return false;
  if (Instr.isLoad() && Instr.Paired)
    return false;
  return true;
}

/// Fills a latency table with Itanium-2-flavored values.
static std::array<int, NumOpcodes> baseLatencies() {
  std::array<int, NumOpcodes> Latency;
  Latency.fill(1);
  auto Set = [&](Opcode Op, int Cycles) {
    Latency[static_cast<unsigned>(Op)] = Cycles;
  };
  Set(Opcode::IMul, 4);
  // Divides and square roots expand into pipelined software sequences
  // (frcpa/frsqrta plus Newton steps) rather than monolithic stalls, so
  // their effective latencies are moderate.
  Set(Opcode::IDiv, 16);
  Set(Opcode::IRem, 16);
  Set(Opcode::FAdd, 4);
  Set(Opcode::FSub, 4);
  Set(Opcode::FMul, 4);
  Set(Opcode::FMA, 4);
  Set(Opcode::FDiv, 12);
  Set(Opcode::FSqrt, 14);
  Set(Opcode::FCmp, 2);
  Set(Opcode::FConst, 1);
  Set(Opcode::FCvt, 4);
  Set(Opcode::Load, 3); // L1D hit to integer side; FP side adds a cycle.
  Set(Opcode::Store, 1);
  Set(Opcode::Call, 40);
  return Latency;
}

MachineConfig metaopt::itanium2Config() {
  MachineConfig Config;
  Config.Name = "itanium2";
  Config.IssueWidth = 6;
  Config.UnitCount = {4, 2, 2, 3};
  Config.IntRegs = 64;
  Config.FloatRegs = 64;
  Config.PredRegs = 32;
  Config.Latency = baseLatencies();
  Config.L1ICapacityBytes = 16 * 1024;
  Config.L1IMissCycles = 4; // Amortized by next-line prefetch.
  Config.MispredictPenalty = 6;
  Config.SpillCycles = 3;
  return Config;
}

MachineConfig metaopt::altVliwConfig() {
  MachineConfig Config;
  Config.Name = "altvliw";
  Config.IssueWidth = 4;
  Config.UnitCount = {2, 2, 1, 1};
  Config.IntRegs = 32;
  Config.FloatRegs = 32;
  Config.PredRegs = 16;
  Config.Latency = baseLatencies();
  auto Set = [&](Opcode Op, int Cycles) {
    Config.Latency[static_cast<unsigned>(Op)] = Cycles;
  };
  Set(Opcode::Load, 5);   // Slower cache.
  Set(Opcode::FAdd, 3);   // Shorter FP pipeline.
  Set(Opcode::FSub, 3);
  Set(Opcode::FMul, 5);
  Set(Opcode::FMA, 5);
  Config.L1ICapacityBytes = 8 * 1024;
  Config.L1IMissCycles = 6;
  Config.MispredictPenalty = 8;
  Config.SpillCycles = 4;
  return Config;
}

void metaopt::hashMachineConfig(FingerprintHasher &H, const MachineConfig &C) {
  H.str(C.Name);
  H.i64(C.IssueWidth);
  H.u64(C.UnitCount.size());
  for (int Units : C.UnitCount)
    H.i64(Units);
  H.i64(C.IntRegs);
  H.i64(C.FloatRegs);
  H.i64(C.PredRegs);
  H.u64(C.Latency.size());
  for (int Latency : C.Latency)
    H.i64(Latency);
  H.i64(C.BundleBytes);
  H.i64(C.SlotsPerBundle);
  H.i64(C.L1ICapacityBytes);
  H.i64(C.L1ILineBytes);
  H.i64(C.L1IMissCycles);
  H.i64(C.MispredictPenalty);
  H.i64(C.SpillCycles);
}
