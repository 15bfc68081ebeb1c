//===- sched/ListScheduler.h - Cycle-driven list scheduling -----*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A classic cycle-driven list scheduler for the acyclic (intra-iteration)
/// dependence graph, targeting the EPIC machine model: per-cycle unit
/// pools, issue-width limit, critical-path priority, and speculation of
/// pure operations above early exits (speculatable control edges are
/// ignored, mirroring an aggressively speculating compiler). This is the
/// code generator used when software pipelining is disabled.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_SCHED_LISTSCHEDULER_H
#define METAOPT_SCHED_LISTSCHEDULER_H

#include "analysis/DependenceGraph.h"
#include "ir/Loop.h"
#include "machine/Machine.h"
#include "sched/Schedule.h"

#include <array>

namespace metaopt {

/// Schedules the body of \p L onto \p Machine. The dependence graph must
/// belong to \p L.
Schedule listSchedule(const Loop &L, const DependenceGraph &DG,
                      const MachineModel &Machine);

// The pieces below are shared with the arena list scheduler behind the
// compiled simulation path (sim/SimCompile.cpp), so both schedulers make
// the same issue decisions by construction.

/// Per-cycle resource bookkeeping.
class ResourceTable {
public:
  explicit ResourceTable(const MachineModel &Machine) : Machine(Machine) {}

  /// Tries to issue \p Instr in the current cycle; returns false when
  /// the required unit pool or the issue width is exhausted.
  bool tryIssue(const Instruction &Instr) {
    // Folded loop control and paired wide-load halves are free.
    if (!occupiesIssueSlot(Instr))
      return true;
    Opcode Op = Instr.Op;
    if (Issued >= Machine.issueWidth())
      return false;
    UnitKind Primary = Machine.unitFor(Op);
    if (take(Primary)) {
      ++Issued;
      return true;
    }
    // A-type integer operations may fall over to a free memory slot.
    if (Primary == UnitKind::Int && Machine.canUseMemUnit(Op) &&
        take(UnitKind::Mem)) {
      ++Issued;
      return true;
    }
    return false;
  }

  void nextCycle() {
    Used.fill(0);
    Issued = 0;
  }

private:
  bool take(UnitKind Kind) {
    unsigned Index = static_cast<unsigned>(Kind);
    if (Used[Index] >= Machine.unitCount(Kind))
      return false;
    ++Used[Index];
    return true;
  }

  const MachineModel &Machine;
  std::array<int, NumUnitKinds> Used = {};
  int Issued = 0;
};

/// The schedulers' priority order: greater height first, ties by body
/// position — a strict total order, so every sort under it is stable.
struct HeightPriority {
  const std::vector<int> &Height;
  bool operator()(uint32_t A, uint32_t B) const {
    return Height[A] != Height[B] ? Height[A] > Height[B] : A < B;
  }
};

/// Priority: longest latency-weighted path to any sink over enforced
/// edges ("height"), written into \p Height. Computed backwards in body
/// order (a reverse topological order of the distance-0 subgraph).
void listScheduleHeights(const Loop &L, const DependenceGraph &DG,
                         const std::vector<int> &EffectiveLatency,
                         std::vector<int> &Height);

/// Fills \p Order with the body indices in issue order (cycle, then body
/// position) and returns the schedule length: last issue cycle plus one.
uint32_t finalizeListSchedule(const std::vector<uint32_t> &CycleOf,
                              std::vector<uint32_t> &Order);

} // namespace metaopt

#endif // METAOPT_SCHED_LISTSCHEDULER_H
