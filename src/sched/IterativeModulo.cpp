//===- sched/IterativeModulo.cpp ------------------------------------------===//

#include "sched/IterativeModulo.h"

#include "analysis/Recurrence.h"
#include "sched/ListScheduler.h"
#include "sched/ModuloScheduler.h"
#include "sched/ScheduleValidate.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

using namespace metaopt;

namespace {

/// The modulo reservation table: per (cycle mod II) slot, which nodes
/// hold which unit, so eviction can identify victims.
class ReservationTable {
public:
  ReservationTable(const MachineModel &Machine, int II)
      : Machine(Machine), II(II),
        SlotNodes(static_cast<size_t>(II)) {}

  /// Nodes that must be evicted for \p Node (with \p Op) to issue in the
  /// modulo slot of \p Cycle. Empty if it fits without eviction.
  /// Simplification: when the unit pool or the issue width is full, the
  /// eviction victim is the youngest-placed holder of the same slot.
  std::vector<uint32_t> conflictsAt(const Instruction &Instr,
                                    int Cycle) const {
    if (!occupiesIssueSlot(Instr))
      return {};
    Opcode Op = Instr.Op;
    const std::vector<Placed> &Here =
        SlotNodes[static_cast<size_t>(Cycle % II)];
    int Width = 0;
    int UnitUse = 0;
    UnitKind Kind = Machine.unitFor(Op);
    for (const Placed &P : Here) {
      ++Width;
      if (P.Kind == Kind)
        ++UnitUse;
    }
    bool WidthFull = Width >= Machine.issueWidth();
    bool UnitFull = UnitUse >= Machine.unitCount(Kind) &&
                    !(Kind == UnitKind::Int && Machine.canUseMemUnit(Op) &&
                      memSlack(Here) > 0);
    if (!WidthFull && !UnitFull)
      return {};
    // Evict the most recently placed conflicting occupant.
    for (auto It = Here.rbegin(); It != Here.rend(); ++It)
      if (WidthFull || It->Kind == Kind)
        return {It->Node};
    return {Here.back().Node};
  }

  void place(uint32_t Node, const Instruction &Instr, int Cycle) {
    if (!occupiesIssueSlot(Instr))
      return;
    Opcode Op = Instr.Op;
    UnitKind Kind = Machine.unitFor(Op);
    // A-type ops take a spare M slot when the I pool is full.
    const std::vector<Placed> &Here =
        SlotNodes[static_cast<size_t>(Cycle % II)];
    if (Kind == UnitKind::Int && Machine.canUseMemUnit(Op)) {
      int IntUse = 0;
      for (const Placed &P : Here)
        IntUse += P.Kind == UnitKind::Int;
      if (IntUse >= Machine.unitCount(UnitKind::Int))
        Kind = UnitKind::Mem;
    }
    SlotNodes[static_cast<size_t>(Cycle % II)].push_back({Node, Kind});
  }

  void remove(uint32_t Node, int Cycle) {
    std::vector<Placed> &Here = SlotNodes[static_cast<size_t>(Cycle % II)];
    for (size_t I = 0; I < Here.size(); ++I) {
      if (Here[I].Node == Node) {
        Here.erase(Here.begin() + static_cast<long>(I));
        return;
      }
    }
  }

private:
  struct Placed {
    uint32_t Node;
    UnitKind Kind;
  };

  int memSlack(const std::vector<Placed> &Here) const {
    int MemUse = 0;
    for (const Placed &P : Here)
      MemUse += P.Kind == UnitKind::Mem;
    return Machine.unitCount(UnitKind::Mem) - MemUse;
  }

  const MachineModel &Machine;
  int II;
  std::vector<std::vector<Placed>> SlotNodes;
};

} // namespace

ModuloScheduleResult
metaopt::iterativeModuloSchedule(const Loop &L, const DependenceGraph &DG,
                                 const MachineModel &Machine,
                                 const ImsOptions &Options) {
  ModuloScheduleResult Result;
  for (const Instruction &Instr : L.body())
    if (Instr.Op == Opcode::ExitIf || Instr.isCall())
      return Result;

  size_t N = DG.numNodes();
  if (N == 0)
    return Result;

  int MinII = std::max(
      {1,
       static_cast<int>(std::ceil(resourceMIIForLoop(L, Machine) - 1e-9)),
       static_cast<int>(std::ceil(
           recurrenceMII(L, DG,
                         [&Machine](Opcode Op) {
                           return Machine.latency(Op);
                         }) -
           1e-9))});

  // Height priority over intra-iteration edges (machine latencies).
  std::vector<int> Height(N, 0);
  for (uint32_t Node = static_cast<uint32_t>(N); Node-- > 0;) {
    Height[Node] = Machine.latency(L.body()[Node].Op);
    for (uint32_t EdgeIdx : DG.successors(Node)) {
      const DepEdge &Edge = DG.edge(EdgeIdx);
      if (Edge.Distance != 0)
        continue;
      Height[Node] = std::max(Height[Node],
                              machineEdgeDelay(Edge, L, Machine) +
                                  Height[Edge.Dst]);
    }
  }
  std::vector<uint32_t> Priority(N);
  std::iota(Priority.begin(), Priority.end(), 0);
  std::sort(Priority.begin(), Priority.end(), HeightPriority{Height});

  for (int II = MinII; II <= MinII * Options.MaxIIFactor; ++II) {
    std::vector<int> Time(N, -1);
    std::vector<int> LastTried(N, -II); // Forces fresh placement windows.
    ReservationTable Table(Machine, II);
    unsigned Budget = Options.BudgetPerOp * static_cast<unsigned>(N);
    unsigned Attempts = 0;

    // Worklist seeded in priority order.
    std::vector<uint32_t> Worklist(Priority.begin(), Priority.end());
    bool Failed = false;
    while (!Worklist.empty()) {
      if (Attempts++ >= Budget) {
        Failed = true;
        break;
      }
      uint32_t Node = Worklist.front();
      Worklist.erase(Worklist.begin());

      // Earliest start from placed predecessors.
      int Earliest = 0;
      for (uint32_t EdgeIdx : DG.predecessors(Node)) {
        const DepEdge &Edge = DG.edge(EdgeIdx);
        if (Edge.Src == Node || Time[Edge.Src] < 0)
          continue;
        Earliest = std::max(Earliest, Time[Edge.Src] +
                                          machineEdgeDelay(Edge, L, Machine) -
                                          II * static_cast<int>(Edge.Distance));
      }
      // Never retry the same cycle for the same node back to back.
      if (Earliest <= LastTried[Node])
        Earliest = LastTried[Node] + 1;

      // Find a resource-feasible cycle within one II window; otherwise
      // force the earliest and evict.
      int Chosen = -1;
      for (int Cycle = Earliest; Cycle < Earliest + II; ++Cycle) {
        if (Table.conflictsAt(L.body()[Node], Cycle).empty()) {
          Chosen = Cycle;
          break;
        }
      }
      bool Forced = Chosen < 0;
      if (Forced)
        Chosen = Earliest;

      if (Forced) {
        for (uint32_t Victim :
             Table.conflictsAt(L.body()[Node], Chosen)) {
          Table.remove(Victim, Time[Victim]);
          Time[Victim] = -1;
          Worklist.push_back(Victim);
        }
      }
      Table.place(Node, L.body()[Node], Chosen);
      Time[Node] = Chosen;
      LastTried[Node] = Chosen;

      // Evict placed successors whose dependence now fails.
      for (uint32_t EdgeIdx : DG.successors(Node)) {
        const DepEdge &Edge = DG.edge(EdgeIdx);
        uint32_t Succ = Edge.Dst;
        if (Succ == Node || Time[Succ] < 0)
          continue;
        int Needed = Chosen + machineEdgeDelay(Edge, L, Machine) -
                     II * static_cast<int>(Edge.Distance);
        if (Time[Succ] < Needed) {
          Table.remove(Succ, Time[Succ]);
          Time[Succ] = -1;
          Worklist.push_back(Succ);
        }
      }
      // Self-edges (carried) must hold with the chosen II.
      for (uint32_t EdgeIdx : DG.successors(Node)) {
        const DepEdge &Edge = DG.edge(EdgeIdx);
        if (Edge.Src != Edge.Dst || Edge.Distance == 0)
          continue;
        if (machineEdgeDelay(Edge, L, Machine) >
            II * static_cast<int>(Edge.Distance)) {
          Failed = true; // II too small for this self-recurrence.
          break;
        }
      }
      if (Failed)
        break;
    }

    if (Failed)
      continue;
    Result.Succeeded = true;
    Result.II = II;
    Result.CycleOf.assign(Time.begin(), Time.end());
    int Last = 0;
    for (int T : Time)
      Last = std::max(Last, T);
    Result.StageCount = Last / II + 1;
    Result.AttemptsUsed = Attempts;
    // The greedy eviction is heuristic; accept the II only if the final
    // placement actually validates.
    if (!validateModuloSchedule(L, DG, Machine, Result).empty()) {
      Result = ModuloScheduleResult();
      continue;
    }
    return Result;
  }
  return Result;
}

std::vector<std::string>
metaopt::validateModuloSchedule(const Loop &L, const DependenceGraph &DG,
                                const MachineModel &Machine,
                                const ModuloScheduleResult &Sched) {
  std::vector<std::string> Errors;
  if (!Sched.Succeeded) {
    Errors.push_back("schedule did not succeed");
    return Errors;
  }
  size_t N = DG.numNodes();
  if (Sched.CycleOf.size() != N) {
    Errors.push_back("cycle vector size mismatch");
    return Errors;
  }

  for (const DepEdge &Edge : DG.edges()) {
    int Needed = Sched.CycleOf[Edge.Src] + machineEdgeDelay(Edge, L, Machine) -
                 Sched.II * static_cast<int>(Edge.Distance);
    if (Sched.CycleOf[Edge.Dst] < Needed)
      Errors.push_back("dependence " + std::to_string(Edge.Src) + "->" +
                       std::to_string(Edge.Dst) + " violated");
  }

  // Modulo resource usage.
  std::vector<int> SlotWidth(static_cast<size_t>(Sched.II), 0);
  std::vector<std::array<int, NumUnitKinds>> SlotUnits(
      static_cast<size_t>(Sched.II));
  for (auto &Units : SlotUnits)
    Units.fill(0);
  for (uint32_t Node = 0; Node < N; ++Node) {
    Opcode Op = L.body()[Node].Op;
    if (!occupiesIssueSlot(L.body()[Node]))
      continue;
    size_t Slot = static_cast<size_t>(Sched.CycleOf[Node] % Sched.II);
    ++SlotWidth[Slot];
    ++SlotUnits[Slot][static_cast<unsigned>(Machine.unitFor(Op))];
  }
  for (size_t Slot = 0; Slot < static_cast<size_t>(Sched.II); ++Slot) {
    if (SlotWidth[Slot] > Machine.issueWidth())
      Errors.push_back("issue width exceeded in slot " +
                       std::to_string(Slot));
    // A-type spill-over means Int can borrow Mem slots: check the pools
    // jointly where borrowing applies.
    auto &Units = SlotUnits[Slot];
    if (Units[static_cast<unsigned>(UnitKind::Fp)] >
        Machine.unitCount(UnitKind::Fp))
      Errors.push_back("FP pool exceeded in slot " + std::to_string(Slot));
    if (Units[static_cast<unsigned>(UnitKind::Br)] >
        Machine.unitCount(UnitKind::Br))
      Errors.push_back("BR pool exceeded in slot " + std::to_string(Slot));
    if (Units[static_cast<unsigned>(UnitKind::Mem)] +
            Units[static_cast<unsigned>(UnitKind::Int)] >
        Machine.unitCount(UnitKind::Mem) +
            Machine.unitCount(UnitKind::Int))
      Errors.push_back("M+I pools exceeded in slot " +
                       std::to_string(Slot));
  }
  return Errors;
}
