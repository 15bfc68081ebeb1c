//===- sim/SimCompile.cpp -------------------------------------------------===//
//
// The arena kernels of the compiled simulation path: a list scheduler and
// a liveness pass that reuse one scratch arena across a loop's bodies and
// must produce exactly what sched/ListScheduler.cpp's listSchedule and
// analysis/Liveness.cpp's analyzeLiveness produce (the cost model itself
// is shared, in sim/Simulator.cpp). tests/perf_test.cpp asserts
// compile+evaluate == simulateLoop over the synthetic corpus and the fuzz
// seed corpus; tests/sim_golden_test.cpp pins simulateLoop itself.
//
//===----------------------------------------------------------------------===//

#include "sim/SimCompile.h"

#include "analysis/DependenceGraph.h"
#include "analysis/symbolic/Canonical.h"
#include "sched/ListScheduler.h"
#include "sched/ScheduleValidate.h"
#include "transform/Unroller.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>

using namespace metaopt;

namespace {

/// Reusable buffers for one compileLoopSim call: eight factors plus the
/// epilogue schedule through the same arena, so the inner scheduler and
/// liveness passes allocate only on the first body and high-water-mark
/// growth afterwards.
struct Scratch {
  // Scheduler.
  std::vector<int> Height;
  std::vector<uint32_t> Prio;
  std::vector<int> PredsLeft;
  std::vector<uint32_t> EarliestCycle;
  std::vector<uint32_t> ReadyFrom;
  std::vector<char> Done;
  std::vector<uint32_t> CycleOf;
  std::vector<uint32_t> Order;
  uint32_t Length = 0;
  // Liveness.
  std::vector<uint32_t> Position;
  std::vector<uint8_t> RegFlags;
  std::vector<uint32_t> DefPos;
  std::vector<uint32_t> LastUse;
  std::vector<int> DeltaInt;
  std::vector<int> DeltaFloat;
};

constexpr uint32_t NoPos = std::numeric_limits<uint32_t>::max();

constexpr uint8_t RegControl = 1;    ///< Dest/operand of loop control.
constexpr uint8_t RegPhiDest = 2;    ///< Loop::isPhiDest.
constexpr uint8_t RegDefined = 4;    ///< !Loop::isLiveIn.
constexpr uint8_t RegAcrossBack = 8; ///< Phi recurrence source.

//===----------------------------------------------------------------------===//
// Fast list scheduler. Produces the identical Schedule to
// sched/ListScheduler.cpp's listSchedule() without rebuilding and
// re-sorting a Candidates vector every cycle: the tie-break (Height
// descending, index ascending) is a strict total order, so one static
// priority-sorted order scanned per cycle visits each cycle's candidate
// set in exactly the reference's issue order. Two invariants carry the
// equivalence proof:
//
//  - Cycle-start snapshot: the reference only considers nodes whose
//    PredsLeft hit zero *before* the current cycle (Candidates is built
//    from the Ready list at cycle start). ReadyFrom[Dst] = Cycle + 1,
//    stamped when the count reaches zero mid-cycle, defers such nodes
//    exactly one scan — without it, a delay-0 enforced edge would let the
//    successor issue a cycle early.
//
//  - No mid-cycle constraint changes for eligible nodes: if a node is
//    eligible this cycle, all its enforced predecessors were Done before
//    the cycle began, so no issue during the scan can raise its
//    EarliestCycle. Checking eligibility at visit time is therefore the
//    same as checking at cycle start.
//===----------------------------------------------------------------------===//

void fastListSchedule(const Loop &L, const DependenceGraph &DG,
                      const MachineModel &Machine, Scratch &S) {
  size_t N = DG.numNodes();
  S.CycleOf.assign(N, 0);
  S.Order.clear();
  S.Length = 0;
  if (N == 0)
    return;

  std::vector<int> EffectiveLatency =
      schedEffectiveLatencies(L, DG, Machine);

  listScheduleHeights(L, DG, EffectiveLatency, S.Height);

  // The static priority order: every per-cycle Candidates sort in the
  // reference is a filtered copy of this one permutation.
  S.Prio.resize(N);
  std::iota(S.Prio.begin(), S.Prio.end(), 0);
  std::sort(S.Prio.begin(), S.Prio.end(), HeightPriority{S.Height});

  S.PredsLeft.assign(N, 0);
  for (const DepEdge &Edge : DG.edges())
    if (schedEdgeEnforced(L, Edge))
      ++S.PredsLeft[Edge.Dst];

  S.EarliestCycle.assign(N, 0);
  S.ReadyFrom.assign(N, 0);
  S.Done.assign(N, 0);

  ResourceTable Resources(Machine);
  size_t Scheduled = 0;
  uint32_t Cycle = 0;
  uint32_t CycleCap = static_cast<uint32_t>(64 * N + 1024);

  // Two scan reductions on top of the reference-equivalent loop, neither
  // of which can change an issue decision:
  //  - Issued nodes are stably compacted out of the priority order; the
  //    surviving nodes are visited in exactly the same relative order.
  //  - A cycle in which no node passed the dependence/readiness checks
  //    changed no state (tryIssue was never reached), so Cycle can jump
  //    straight to the earliest ReadyFrom/EarliestCycle constraint among
  //    dependence-free nodes instead of re-scanning every empty cycle.
  size_t Active = N;
  while (Scheduled < N && Cycle < CycleCap) {
    bool AnyEligible = false;
    bool AnyIssued = false;
    uint32_t NextReady = std::numeric_limits<uint32_t>::max();
    for (size_t PI = 0; PI < Active; ++PI) {
      uint32_t Node = S.Prio[PI];
      if (S.Done[Node] || S.PredsLeft[Node] != 0)
        continue;
      uint32_t ReadyAt = std::max(S.ReadyFrom[Node], S.EarliestCycle[Node]);
      if (ReadyAt > Cycle) {
        NextReady = std::min(NextReady, ReadyAt);
        continue;
      }
      AnyEligible = true;
      if (!Resources.tryIssue(L.body()[Node]))
        continue;
      S.Done[Node] = 1;
      S.CycleOf[Node] = Cycle;
      AnyIssued = true;
      ++Scheduled;
      for (uint32_t EdgeIdx : DG.successors(Node)) {
        const DepEdge &Edge = DG.edge(EdgeIdx);
        if (!schedEdgeEnforced(L, Edge))
          continue;
        uint32_t SuccReady =
            Cycle +
            static_cast<uint32_t>(schedEdgeDelay(Edge, L, EffectiveLatency));
        S.EarliestCycle[Edge.Dst] =
            std::max(S.EarliestCycle[Edge.Dst], SuccReady);
        if (--S.PredsLeft[Edge.Dst] == 0)
          S.ReadyFrom[Edge.Dst] = Cycle + 1;
      }
    }
    if (AnyIssued) {
      size_t W = 0;
      for (size_t PI = 0; PI < Active; ++PI)
        if (!S.Done[S.Prio[PI]])
          S.Prio[W++] = S.Prio[PI];
      Active = W;
    }
    Resources.nextCycle();
    if (!AnyEligible && NextReady != std::numeric_limits<uint32_t>::max() &&
        NextReady > Cycle + 1)
      Cycle = NextReady;
    else
      ++Cycle;
  }
  assert(Scheduled == N && "fast list scheduler failed to place all ops");

  S.Length = finalizeListSchedule(S.CycleOf, S.Order);
}

//===----------------------------------------------------------------------===//
// Fast liveness: the per-class maxima of analyzeLiveness
// (analysis/Liveness.cpp) via delta arrays instead of an O(positions x
// intervals) sweep. Interval construction copies the reference case by
// case: control registers excluded, live-ins skipped, phi destinations
// live from 0, recurrence sources extended to N, unused ids skipped,
// inclusive [Begin, End] with positions swept in [0, N).
//===----------------------------------------------------------------------===//

void fastLiveness(const Loop &L, Scratch &S, unsigned &MaxLiveInt,
                  unsigned &MaxLiveFloat) {
  const std::vector<Instruction> &Body = L.body();
  size_t N = Body.size();
  unsigned R = L.numRegs();
  MaxLiveInt = 0;
  MaxLiveFloat = 0;

  // fastListSchedule left S.Order holding all N body indices.
  S.Position.assign(N, 0);
  for (uint32_t Pos = 0; Pos < S.Order.size(); ++Pos)
    S.Position[S.Order[Pos]] = Pos;

  S.RegFlags.assign(R, 0);
  S.DefPos.assign(R, NoPos);
  S.LastUse.assign(R, NoPos);

  for (const PhiNode &Phi : L.phis()) {
    if (Phi.Recur != NoReg)
      S.RegFlags[Phi.Recur] |= RegAcrossBack;
    if (Phi.Dest != NoReg)
      S.RegFlags[Phi.Dest] |= RegPhiDest | RegDefined;
  }

  for (uint32_t I = 0; I < N; ++I) {
    const Instruction &Instr = Body[I];
    if (Instr.hasDest()) {
      S.RegFlags[Instr.Dest] |= RegDefined;
      if (!Instr.isLoopControl())
        S.DefPos[Instr.Dest] = S.Position[I];
    }
    if (Instr.isLoopControl()) {
      if (Instr.hasDest())
        S.RegFlags[Instr.Dest] |= RegControl;
      for (RegId Operand : Instr.Operands)
        S.RegFlags[Operand] |= RegControl;
      continue;
    }
    uint32_t Pos = S.Position[I];
    auto NoteUse = [&](RegId Reg) {
      if (S.LastUse[Reg] == NoPos || S.LastUse[Reg] < Pos)
        S.LastUse[Reg] = Pos;
    };
    for (RegId Operand : Instr.Operands)
      NoteUse(Operand);
    if (Instr.Pred != NoReg)
      NoteUse(Instr.Pred);
  }

  uint32_t EndPos = static_cast<uint32_t>(N);
  S.DeltaInt.assign(N + 2, 0);
  S.DeltaFloat.assign(N + 2, 0);

  for (RegId Reg = 0; Reg < R; ++Reg) {
    uint8_t Flags = S.RegFlags[Reg];
    if (Flags & RegControl)
      continue;
    if (!(Flags & RegDefined))
      continue; // Live-in: whole-loop pressure is counted separately by
                // the reference and never feeds the spill model.
    uint32_t Begin = 0, End = 0;
    if (Flags & RegPhiDest) {
      Begin = 0;
      End = S.LastUse[Reg] == NoPos ? 0 : S.LastUse[Reg];
    } else {
      if (S.DefPos[Reg] == NoPos)
        continue; // Defined only by loop control: excluded via RegControl,
                  // or an unused id the reference also skips.
      Begin = S.DefPos[Reg];
      End = S.LastUse[Reg] == NoPos ? Begin
                                    : std::max(Begin, S.LastUse[Reg]);
    }
    if (Flags & RegAcrossBack)
      End = EndPos;
    switch (L.regClass(Reg)) {
    case RegClass::Int:
      ++S.DeltaInt[Begin];
      --S.DeltaInt[End + 1];
      break;
    case RegClass::Float:
      ++S.DeltaFloat[Begin];
      --S.DeltaFloat[End + 1];
      break;
    case RegClass::Pred:
      break; // The spill model only consumes the int/float maxima.
    }
  }

  int LiveInt = 0, LiveFloat = 0;
  for (uint32_t Pos = 0; Pos < EndPos; ++Pos) {
    LiveInt += S.DeltaInt[Pos];
    LiveFloat += S.DeltaFloat[Pos];
    MaxLiveInt = std::max(MaxLiveInt, static_cast<unsigned>(LiveInt));
    MaxLiveFloat = std::max(MaxLiveFloat, static_cast<unsigned>(LiveFloat));
  }
}

//===----------------------------------------------------------------------===//
// Body stats: schedule + liveness + static body counts, cached across
// structurally identical bodies.
//===----------------------------------------------------------------------===//

SimBodyStats computeBodyStats(const Loop &L, const MachineModel &Machine,
                              SimBodyStatsCache *Cache, Scratch &S) {
  Fingerprint Key;
  if (Cache) {
    FingerprintHasher H;
    H.str("metaopt-simbody-stats-key-v1");
    hashCanonicalSimStructure(H, L);
    Key = H.digest();
    if (std::optional<SimBodyStats> Found = Cache->lookup(Key))
      return *Found;
  }
  SimBodyStats Stats = bodyOpStats(L);
  DependenceGraph DG(L);
  fastListSchedule(L, DG, Machine, S);
  Stats.Length = S.Length;
  Stats.Interval =
      listScheduledIterationCycles(L, DG, S.CycleOf, S.Length, Machine);
  fastLiveness(L, S, Stats.MaxLiveInt, Stats.MaxLiveFloat);
  if (Cache)
    Cache->insert(Key, Stats);
  return Stats;
}

} // namespace

//===----------------------------------------------------------------------===//
// SimBodyStatsCache
//===----------------------------------------------------------------------===//

std::optional<SimBodyStats>
SimBodyStatsCache::lookup(const Fingerprint &Key) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Map.find(Key);
  if (It == Map.end()) {
    Misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  Hits.fetch_add(1, std::memory_order_relaxed);
  return It->second;
}

void SimBodyStatsCache::insert(const Fingerprint &Key,
                               const SimBodyStats &Stats) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Map.emplace(Key, Stats);
}

size_t SimBodyStatsCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Map.size();
}

//===----------------------------------------------------------------------===//
// compileLoopSim / evaluatePlan
//===----------------------------------------------------------------------===//

LoopSimPlan metaopt::compileLoopSim(const Loop &L,
                                    const MachineModel &Machine,
                                    const SimContext &Ctx, bool EnableSwp,
                                    SimBodyStatsCache *Cache) {
  LoopSimPlan Plan;
  Plan.LoopName = L.name();
  Plan.Trip = simulatedTripCount(L);
  Plan.HasKnownTrip = L.hasKnownTripCount();
  Plan.Swp = EnableSwp;

  Scratch S;
  auto Arena = [&](const Loop &Body) {
    return computeBodyStats(Body, Machine, Cache, S);
  };
  for (unsigned Factor = 1; Factor <= MaxUnrollFactor; ++Factor)
    Plan.Factors[Factor - 1] =
        compileFactor(L, Factor, Machine, Ctx, EnableSwp, Arena);

  // One epilogue body serves every factor: unrolledTripInfo(Trip, F)
  // leaves Trip % F leftover iterations of the *original* body, so
  // simulateLoop's per-factor epilogue always lands on the same loop.
  // Factor 1 never has an epilogue (Trip % 1 == 0).
  for (unsigned Factor = 2; Factor <= MaxUnrollFactor; ++Factor) {
    if (unrolledTripInfo(Plan.Trip, Factor).EpilogueIterations > 0) {
      Plan.HasEpilogue = true;
      Plan.Epilogue = compileEpilogue(L, Arena);
      break;
    }
  }
  return Plan;
}

SimResult metaopt::evaluatePlan(const LoopSimPlan &Plan, unsigned Factor,
                                const MachineModel &Machine,
                                const SimContext &Ctx) {
  checkUnrollFactor(Factor, Plan.LoopName);
  return evaluateCompiledFactor(Plan.Factors[Factor - 1],
                                Plan.HasEpilogue ? &Plan.Epilogue : nullptr,
                                Factor, Plan.Trip, Plan.HasKnownTrip, Machine,
                                Ctx);
}
