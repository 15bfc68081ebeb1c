//===- machine/Machine.h - In-order VLIW machine model ----------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The machine model the schedulers and the loop simulator target. The
/// default configuration approximates a 6-issue Itanium 2: M/I/F/B unit
/// pools, per-opcode latencies, large rotating register files, a 16KB L1I.
/// A second "alternate VLIW" configuration exists so the paper's claim
/// that retuning the heuristic to an architectural change is automatic can
/// be demonstrated (bench/ablation_retune).
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_MACHINE_MACHINE_H
#define METAOPT_MACHINE_MACHINE_H

#include "ir/Instruction.h"
#include "support/Fingerprint.h"

#include <array>
#include <string>

namespace metaopt {

/// Functional unit pools of the EPIC-style machine.
enum class UnitKind { Mem, Int, Fp, Br };
constexpr unsigned NumUnitKinds = 4;

/// Tunable description of a machine. Plain data so experiments can derive
/// variants by copying and editing fields.
struct MachineConfig {
  std::string Name = "machine";
  int IssueWidth = 6;
  /// Units per pool, indexed by UnitKind.
  std::array<int, NumUnitKinds> UnitCount = {4, 2, 2, 3};
  /// Registers a single loop may occupy before spilling (the rest of the
  /// file is reserved for the surrounding function and the RSE).
  int IntRegs = 64;
  int FloatRegs = 64;
  int PredRegs = 32;
  /// Latency (cycles) per opcode.
  std::array<int, NumOpcodes> Latency = {};
  /// Instruction bytes: EPIC bundles hold 3 slots in 16 bytes.
  int BundleBytes = 16;
  int SlotsPerBundle = 3;
  /// L1 instruction cache capacity and per-line refill cost.
  int L1ICapacityBytes = 16 * 1024;
  int L1ILineBytes = 64;
  int L1IMissCycles = 7;
  /// Cycles lost when the loop exit is mispredicted (pipeline flush).
  int MispredictPenalty = 6;
  /// Extra cycles per dynamic spill (store+reload pair around the loop
  /// body once live values exceed the register budget).
  int SpillCycles = 2;
};

/// A machine model: unit bindings, latencies, code-size arithmetic.
class MachineModel {
public:
  explicit MachineModel(MachineConfig Config);

  const std::string &name() const { return Config.Name; }
  const MachineConfig &config() const { return Config; }

  int issueWidth() const { return Config.IssueWidth; }
  int unitCount(UnitKind Kind) const {
    return Config.UnitCount[static_cast<unsigned>(Kind)];
  }

  /// Latency of \p Op in cycles (>= 1 for anything that defines a value).
  int latency(Opcode Op) const {
    return Config.Latency[static_cast<unsigned>(Op)];
  }

  /// Primary functional unit pool for \p Op.
  UnitKind unitFor(Opcode Op) const;

  /// True when \p Op is an "A-type" simple ALU operation that may issue on
  /// either an I or an M slot (as on Itanium).
  bool canUseMemUnit(Opcode Op) const;

  /// Code bytes occupied by \p NumInstructions instructions after
  /// bundling.
  int codeBytes(int NumInstructions) const;

  /// Resource-constrained minimum initiation interval for a body with the
  /// given per-pool operation counts (fractional; ceil for an integral
  /// schedule).
  double resourceMII(const std::array<int, NumUnitKinds> &OpsPerKind,
                     int TotalOps) const;

private:
  MachineConfig Config;
};

/// True when \p Instr competes for issue slots and unit pools. The
/// induction update and trip test fold into post-increment addressing and
/// the counted branch; the second load of a merged wide access rides
/// along with its partner.
bool occupiesIssueSlot(const Instruction &Instr);

/// Feeds every MachineConfig field into \p H: the schedulers and the cost
/// model read all of them, so every cache of their output keys on all of
/// them (the SimCache key and the simulator's body-stats cache).
void hashMachineConfig(FingerprintHasher &H, const MachineConfig &C);

/// Returns the default Itanium-2-like configuration.
MachineConfig itanium2Config();

/// Returns a deliberately different machine (narrower issue, slower cache
/// hierarchy, fewer registers) used by the retuning ablation.
MachineConfig altVliwConfig();

} // namespace metaopt

#endif // METAOPT_MACHINE_MACHINE_H
