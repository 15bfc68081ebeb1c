//===- sim/Simulator.cpp --------------------------------------------------===//

#include "sim/Simulator.h"

#include "analysis/DependenceGraph.h"
#include "analysis/Liveness.h"
#include "analysis/symbolic/Canonical.h"
#include "analysis/symbolic/StrideInterval.h"
#include "sched/ListScheduler.h"
#include "sched/ModuloScheduler.h"
#include "sched/ScheduleValidate.h"
#include "sim/SimCompile.h"
#include "transform/MemoryOpt.h"
#include "transform/Unroller.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <stdexcept>
#include <string>

using namespace metaopt;

namespace {

/// Code-layout tax of non-power-of-two unroll factors: bundle padding,
/// modulo-variable-expansion copies, and remainder-loop structure all tile
/// evenly only for power-of-two bodies (the paper observes that "non-power
/// of two unroll factors are rarely optimal"). Charged per unrolled
/// iteration; bench/ablation_align_tax quantifies its effect.
double alignmentTax(unsigned Factor) {
  bool PowerOfTwo = (Factor & (Factor - 1)) == 0;
  return PowerOfTwo ? 0.0 : 1.4;
}

/// Per-iteration penalty for a body whose code no longer fits in the
/// loop's effective share of the instruction cache.
double icachePenaltyPerIteration(int CodeBytes, const MachineModel &Machine,
                                 const SimContext &Ctx) {
  int Effective = std::min(Ctx.EffectiveIcacheBytes,
                           Machine.config().L1ICapacityBytes);
  if (CodeBytes <= Effective)
    return 0.0;
  int OverflowLines = (CodeBytes - Effective +
                       Machine.config().L1ILineBytes - 1) /
                      Machine.config().L1ILineBytes;
  return static_cast<double>(OverflowLines) *
         Machine.config().L1IMissCycles;
}

/// Expected visible d-cache stall cycles per body execution. The second
/// half of a merged wide load shares its partner's cache access.
double dcacheStallPerIteration(const SimBodyStats &Body,
                               const SimContext &Ctx) {
  return Body.UnpairedLoads * Ctx.DcacheMissRate * Ctx.DcacheMissCycles *
         Ctx.DcacheVisibleFraction;
}

/// Expected mispredict cost per body execution from replicated early
/// exits: the rare taken exit flushes the pipe, and every replicated
/// side-exit branch also occupies branch-predictor capacity that the rest
/// of the program wants (a fixed per-branch tax).
double exitPenaltyPerIteration(const SimBodyStats &Body,
                               const MachineModel &Machine) {
  return Body.ExitProbSum * Machine.config().MispredictPenalty +
         0.15 * Body.ExitCount;
}

/// Spill pairs needed once the scheduled body's live values exceed the
/// register budget (machine file capped by the loop's program context).
unsigned spillPairs(const SimBodyStats &Body, const MachineModel &Machine,
                    const SimContext &Ctx) {
  unsigned IntBudget = static_cast<unsigned>(
      std::min(Machine.config().IntRegs, Ctx.IntRegBudget));
  unsigned FpBudget = static_cast<unsigned>(
      std::min(Machine.config().FloatRegs, Ctx.FpRegBudget));
  unsigned Spills = 0;
  if (Body.MaxLiveInt > IntBudget)
    Spills += Body.MaxLiveInt - IntBudget;
  if (Body.MaxLiveFloat > FpBudget)
    Spills += Body.MaxLiveFloat - FpBudget;
  return Spills;
}

/// Cost of one execution of a list-scheduled body (no SWP) under \p Ctx.
struct BodyCost {
  double PerIteration = 0.0;
  unsigned Spills = 0;
  int CodeBytes = 0;
};

BodyCost listScheduledBodyCost(const SimBodyStats &Body,
                               const MachineModel &Machine,
                               const SimContext &Ctx) {
  BodyCost Cost;
  Cost.Spills = spillPairs(Body, Machine, Ctx);
  Cost.CodeBytes = Machine.codeBytes(
      static_cast<int>(Body.BodyOps + 2 * Cost.Spills));
  Cost.PerIteration =
      Body.Interval + Cost.Spills * Machine.config().SpillCycles +
      icachePenaltyPerIteration(Cost.CodeBytes, Machine, Ctx) +
      dcacheStallPerIteration(Body, Ctx) +
      exitPenaltyPerIteration(Body, Machine);
  return Cost;
}

/// The memory cleanups unrolling enables (Section 3 of the paper):
/// store-to-load forwarding, redundant load elimination, wide-load
/// pairing across the copies. The symbolic analysis lets the pass act on
/// proven guard facts and same-iteration disjointness instead of its
/// conservative bail-outs (analysis/symbolic).
void optimizeBodyMemory(Loop &L) {
  SymbolicAnalysis Symbolic(L);
  optimizeMemory(L, &Symbolic);
}

/// The op counts of \p L's body (BodyOps, UnpairedLoads, exit terms);
/// the schedule-derived fields are left zero.
SimBodyStats bodyOpStats(const Loop &L) {
  SimBodyStats Stats;
  Stats.BodyOps = L.body().size();
  for (const Instruction &Instr : L.body()) {
    if (Instr.isLoad() && !Instr.Paired)
      ++Stats.UnpairedLoads;
    if (Instr.Op == Opcode::ExitIf) {
      Stats.ExitProbSum += Instr.TakenProb;
      ++Stats.ExitCount;
    }
  }
  return Stats;
}

/// Cost of one steady-state execution of a list-scheduled body, including
/// cross-iteration recurrence stalls: consecutive iterations issue
/// back-to-back, but a loop-carried dependence u -> v (distance d) forces
/// iteration spacing of at least (cycle(u) + latency(u) - cycle(v)) / d.
double listScheduledIterationCycles(const Loop &L, const DependenceGraph &DG,
                                    const std::vector<uint32_t> &CycleOf,
                                    uint32_t Length,
                                    const MachineModel &Machine) {
  double Interval = Length;
  for (const DepEdge &Edge : DG.edges()) {
    if (Edge.Distance == 0)
      continue;
    int Delay = machineEdgeDelay(Edge, L, Machine);
    double Needed =
        (static_cast<double>(CycleOf[Edge.Src]) + Delay - CycleOf[Edge.Dst]) /
        Edge.Distance;
    Interval = std::max(Interval, Needed);
  }
  return Interval;
}

// Real diagnostics, not asserts: callers feed policy outputs and corpus
// data straight into the simulator, and the default build is Release
// (NDEBUG), where an assert would compile out and let a bad factor
// corrupt the unroller or a negative trip count poison every cycle count
// downstream.

/// \p L's runtime trip count; throws std::domain_error when it has none.
int64_t simulatedTripCount(const Loop &L) {
  int64_t Trip = L.runtimeTripCount();
  if (Trip < 0)
    throw std::domain_error("simulateLoop: loop '" + L.name() +
                            "' has no concrete runtime trip count");
  return Trip;
}

/// Throws std::invalid_argument when \p Factor is outside
/// [1, MaxUnrollFactor]; \p LoopName goes into the message.
void checkUnrollFactor(unsigned Factor, const std::string &LoopName) {
  if (Factor < 1 || Factor > MaxUnrollFactor)
    throw std::invalid_argument(
        "simulateLoop: unroll factor " + std::to_string(Factor) +
        " for loop '" + LoopName + "' is outside [1, " +
        std::to_string(MaxUnrollFactor) + "]");
}

/// The stats of a list-scheduled body: its op counts, listSchedule, the
/// recurrence-constrained interval and analyzeLiveness over the issue
/// order. \p Cache, when non-null, shares them across structurally
/// identical bodies on the same machine.
SimBodyStats bodyStats(const Loop &L, const MachineModel &Machine,
                       SimBodyStatsCache *Cache) {
  Fingerprint Key;
  if (Cache) {
    FingerprintHasher H;
    H.str("metaopt-simbody-stats-key-v2");
    hashMachineConfig(H, Machine.config());
    hashCanonicalSimStructure(H, L);
    Key = H.digest();
    if (std::optional<SimBodyStats> Found = Cache->lookup(Key))
      return *Found;
  }
  SimBodyStats Stats = bodyOpStats(L);
  DependenceGraph DG(L);
  Schedule Sched = listSchedule(L, DG, Machine);
  Stats.Length = Sched.Length;
  Stats.Interval = listScheduledIterationCycles(L, DG, Sched.CycleOf,
                                                Sched.Length, Machine);
  LivenessInfo Live = analyzeLiveness(L, Sched.Order);
  Stats.MaxLiveInt = Live.MaxLiveInt;
  Stats.MaxLiveFloat = Live.MaxLiveFloat;
  if (Cache)
    Cache->insert(Key, Stats);
  return Stats;
}

/// The per-factor compile step: unroll, symbolic memory optimization, an
/// SWP attempt against \p Ctx's register budgets when \p EnableSwp, and
/// the body stats of the unrolled body when it was not pipelined.
CompiledFactor compileFactor(const Loop &L, unsigned Factor,
                             const MachineModel &Machine,
                             const SimContext &Ctx, bool EnableSwp,
                             SimBodyStatsCache *Cache) {
  Loop Unrolled = unrollLoop(L, Factor);
  optimizeBodyMemory(Unrolled);
  CompiledFactor CF;
  if (EnableSwp) {
    DependenceGraph DG(Unrolled);
    RegBudget Budget{Ctx.IntRegBudget, Ctx.FpRegBudget};
    SwpResult Swp = moduloSchedule(Unrolled, DG, Machine, Budget);
    if (Swp.Pipelined) {
      CF.Pipelined = true;
      CF.II = Swp.II;
      CF.StageCount = Swp.StageCount;
      CF.SwpSpills = Swp.SpillsPerIteration;
      CF.Main = bodyOpStats(Unrolled);
      return CF;
    }
  }
  CF.Main = bodyStats(Unrolled, Machine, Cache);
  return CF;
}

/// The epilogue body: the original body, memory-optimized, never
/// software pipelined.
SimBodyStats compileEpilogue(const Loop &L, const MachineModel &Machine,
                             SimBodyStatsCache *Cache) {
  Loop EpilogueLoop = L;
  optimizeBodyMemory(EpilogueLoop);
  return bodyStats(EpilogueLoop, Machine, Cache);
}

/// The cost model: prices factor \p Factor of a loop with runtime trip
/// count \p Trip under \p Ctx. \p Epilogue may be null when Trip % Factor
/// is zero.
SimResult evaluateCompiledFactor(const CompiledFactor &CF,
                                 const SimBodyStats *Epilogue,
                                 unsigned Factor, int64_t Trip,
                                 bool HasKnownTrip,
                                 const MachineModel &Machine,
                                 const SimContext &Ctx) {
  UnrolledTripInfo TripInfo = unrolledTripInfo(Trip, Factor);
  SimResult Result;
  double MainCycles = 0.0;

  if (CF.Pipelined) {
    Result.UsedSwp = true;
    Result.II = CF.II;
    Result.SpillPairs = CF.SwpSpills;
    Result.CodeBytes = Machine.codeBytes(
        static_cast<int>(CF.Main.BodyOps + 2 * CF.SwpSpills));
    double PerIteration =
        CF.II + CF.SwpSpills * Machine.config().SpillCycles +
        icachePenaltyPerIteration(Result.CodeBytes, Machine, Ctx) +
        dcacheStallPerIteration(CF.Main, Ctx) + alignmentTax(Factor);
    MainCycles = PerIteration * TripInfo.MainIterations +
                 static_cast<double>(CF.StageCount - 1) * CF.II * 2.0;
    Result.CyclesPerIteration = PerIteration / Factor;
  } else {
    BodyCost Cost = listScheduledBodyCost(CF.Main, Machine, Ctx);
    Result.SpillPairs = Cost.Spills;
    Result.ScheduleLength = CF.Main.Length;
    Result.CodeBytes = Cost.CodeBytes;
    double PerIteration = Cost.PerIteration + alignmentTax(Factor);
    MainCycles = PerIteration * TripInfo.MainIterations;
    Result.CyclesPerIteration = PerIteration / Factor;
  }

  // Epilogue: the N mod U leftover iterations run the original body (never
  // software pipelined - it is short by construction). Entering it costs a
  // mispredicted backedge plus setup, which is what makes factors that
  // divide the trip count preferable.
  double EpilogueCycles = 0.0;
  if (TripInfo.EpilogueIterations > 0) {
    assert(Epilogue && "epilogue iterations without epilogue body stats");
    BodyCost Cost = listScheduledBodyCost(*Epilogue, Machine, Ctx);
    EpilogueCycles = Cost.PerIteration * TripInfo.EpilogueIterations +
                     Machine.config().MispredictPenalty + 2.0;
  }

  // Fixed overheads: loop setup, plus a trip-count check and a mispredict
  // risk when unrolling a loop whose trip count is unknown at compile time
  // (the runtime must select between the unrolled and rolled versions).
  double Overhead = 10.0;
  if (Factor > 1 && !HasKnownTrip)
    Overhead += 10.0 + Machine.config().MispredictPenalty;
  // Final exit mispredicts once per execution.
  Overhead += Machine.config().MispredictPenalty;
  // Cold-entry refill: each entry touches the loop's code, and part of it
  // was evicted since the last entry (more of it the smaller this loop's
  // effective cache share). Code expansion multiplies this cost, which is
  // what makes unrolling short-trip, frequently re-entered loops a loss.
  double ColdFraction = std::clamp(
      64.0 / std::max(1, Ctx.EffectiveIcacheBytes), 0.01, 0.5);
  Overhead += static_cast<double>(Result.CodeBytes) /
              Machine.config().L1ILineBytes *
              Machine.config().L1IMissCycles * ColdFraction;

  Result.Cycles = MainCycles + EpilogueCycles + Overhead;
  return Result;
}

} // namespace

SimResult metaopt::simulateLoop(const Loop &L, unsigned Factor,
                                const MachineModel &Machine,
                                const SimContext &Ctx, bool EnableSwp) {
  checkUnrollFactor(Factor, L.name());
  int64_t Trip = simulatedTripCount(L);
  CompiledFactor CF =
      compileFactor(L, Factor, Machine, Ctx, EnableSwp, /*Cache=*/nullptr);
  std::optional<SimBodyStats> Epilogue;
  if (unrolledTripInfo(Trip, Factor).EpilogueIterations > 0)
    Epilogue = compileEpilogue(L, Machine, /*Cache=*/nullptr);
  return evaluateCompiledFactor(CF, Epilogue ? &*Epilogue : nullptr, Factor,
                                Trip, L.hasKnownTripCount(), Machine, Ctx);
}

//===----------------------------------------------------------------------===//
// The compiled labeling path (sim/SimCompile.h)
//===----------------------------------------------------------------------===//

std::optional<SimBodyStats>
SimBodyStatsCache::lookup(const Fingerprint &Key) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Map.find(Key);
  if (It == Map.end())
    return std::nullopt;
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

LoopSimPlan metaopt::compileLoopSim(const Loop &L,
                                    const MachineModel &Machine,
                                    const SimContext &Ctx, bool EnableSwp,
                                    SimBodyStatsCache *Cache) {
  LoopSimPlan Plan;
  Plan.LoopName = L.name();
  Plan.Trip = simulatedTripCount(L);
  Plan.HasKnownTrip = L.hasKnownTripCount();
  Plan.Swp = EnableSwp;
  for (unsigned Factor = 1; Factor <= MaxUnrollFactor; ++Factor)
    Plan.Factors[Factor - 1] =
        compileFactor(L, Factor, Machine, Ctx, EnableSwp, Cache);

  // One epilogue body serves every factor: unrolledTripInfo(Trip, F)
  // leaves Trip % F leftover iterations of the *original* body, so
  // simulateLoop's per-factor epilogue always lands on the same loop.
  // Factor 1 never has an epilogue (Trip % 1 == 0).
  for (unsigned Factor = 2; Factor <= MaxUnrollFactor; ++Factor) {
    if (unrolledTripInfo(Plan.Trip, Factor).EpilogueIterations > 0) {
      Plan.HasEpilogue = true;
      Plan.Epilogue = compileEpilogue(L, Machine, Cache);
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
