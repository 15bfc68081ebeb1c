//===- sim/SimCompile.h - Compiled simulation fast path ---------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiled fast path for the labeling hot loop: simulateLoop() split
/// into a context-independent *compile* step and a cheap per-context
/// *evaluate* step.
///
/// There is one cost model. Its building blocks, declared here and
/// defined in sim/Simulator.cpp, split each factor into a compile step
/// (compileFactor: unroll, memory-optimize, attempt SWP, reduce the body
/// to SimBodyStats) and an evaluate step (evaluateCompiledFactor); only
/// the evaluate step reads the SimContext's cache shares, d-cache rates
/// and register budgets. simulateLoop runs both steps for one factor
/// with the reference kernels (listSchedule + analyzeLiveness).
/// compileLoopSim runs the compile step once for all eight factors with
/// the arena kernels of sim/SimCompile.cpp, and the labeling sweep
/// exploits that twice:
///
///  1. compileLoopSim() bakes every factor into a LoopSimPlan of plain
///     numbers; evaluatePlan() then prices any factor under any
///     SimContext — so one sim-equivalence class
///     (analysis/symbolic/Canonical.h) compiles one plan and evaluates it
///     under every member's own context, byte-identically to simulating
///     each member from scratch.
///
///  2. Different classes (and different factors of one class) frequently
///     unroll to structurally identical post-memopt bodies — the unrolled
///     body of a loop is independent of its trip metadata. The
///     SimBodyStatsCache shares the schedule/liveness work across them,
///     keyed by the trip-stripped canonical structure
///     (hashCanonicalSimStructure), which is sound because nothing
///     downstream of the memory optimizer reads trip counts.
///
/// The exception is software pipelining: moduloSchedule() reads the
/// context's register budgets while scheduling, so SWP attempts run at
/// compile time under the provided context and the resulting plan is only
/// valid for contexts with the same (IntRegBudget, FpRegBudget) pair. The
/// labeling pruner folds the budgets into the class key when SWP is
/// enabled (core/driver/LabelCollector.cpp).
///
/// The arena list scheduler shares ResourceTable, the height pass and the
/// order/length finalization with listSchedule (sched/ListScheduler.h).
/// What remains to cross-check is the kernels: tests/perf_test.cpp
/// asserts compile+evaluate == simulateLoop over a corpus slice and the
/// fuzz seeds, the fuzz `sim-cache` oracle asserts it on every campaign
/// case, and tests/sim_golden_test.cpp pins simulateLoop's own output.
///
/// See docs/PERF.md for the design rationale and measurements.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_SIM_SIMCOMPILE_H
#define METAOPT_SIM_SIMCOMPILE_H

#include "analysis/DependenceGraph.h"
#include "sim/Simulator.h"
#include "support/Fingerprint.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace metaopt {

//===----------------------------------------------------------------------===//
// The cost model's building blocks. simulateLoop and compileLoopSim both
// compile each factor with compileFactor and price it with
// evaluateCompiledFactor; they differ only in the kernels that turn a
// body into SimBodyStats.
//===----------------------------------------------------------------------===//

/// Everything the cost model reads about one scheduled body that does not
/// depend on the SimContext. Captured once per unique post-memopt body
/// structure; the Ctx-dependent terms (spills against the budget, i-cache
/// overflow against the effective share, d-cache stall rates) are applied
/// at evaluate time.
struct SimBodyStats {
  /// Steady-state cycles per body execution before Ctx terms: the
  /// recurrence-constrained iteration interval of the list schedule.
  double Interval = 0.0;
  /// Schedule length in cycles (SimResult::ScheduleLength).
  uint32_t Length = 0;
  /// Peak register pressure per class over the scheduled order.
  unsigned MaxLiveInt = 0;
  unsigned MaxLiveFloat = 0;
  /// Body size feeding codeBytes(); size_t to mirror body().size().
  size_t BodyOps = 0;
  /// Loads that pay their own d-cache access (unpaired).
  unsigned UnpairedLoads = 0;
  /// Sum of ExitIf taken-probabilities in body order (FP addition order
  /// matters for bit-identity with the reference) and their count.
  double ExitProbSum = 0.0;
  unsigned ExitCount = 0;
};

/// Compiled form of one unroll factor of one loop.
struct CompiledFactor {
  /// Stats of the unrolled, memory-optimized main body. When Pipelined,
  /// only BodyOps and UnpairedLoads are meaningful (the SWP cost model
  /// replaces the list schedule and ignores allocatable pressure).
  SimBodyStats Main;
  bool Pipelined = false;
  int II = 0;
  int StageCount = 0;
  unsigned SwpSpills = 0;
};

/// Schedules one body and measures its SimBodyStats.
using SimBodyStatsFn = std::function<SimBodyStats(const Loop &)>;

/// The op counts of \p L's body (BodyOps, UnpairedLoads, exit terms);
/// the schedule-derived fields are left zero.
SimBodyStats bodyOpStats(const Loop &L);

/// Cost of one steady-state execution of a list-scheduled body, including
/// cross-iteration recurrence stalls: consecutive iterations issue
/// back-to-back, but a loop-carried dependence u -> v (distance d) forces
/// iteration spacing of at least (cycle(u) + latency(u) - cycle(v)) / d.
double listScheduledIterationCycles(const Loop &L, const DependenceGraph &DG,
                                    const std::vector<uint32_t> &CycleOf,
                                    uint32_t Length,
                                    const MachineModel &Machine);

/// \p L's runtime trip count; throws std::domain_error when it has none.
int64_t simulatedTripCount(const Loop &L);

/// Throws std::invalid_argument when \p Factor is outside
/// [1, MaxUnrollFactor]; \p LoopName goes into the message.
void checkUnrollFactor(unsigned Factor, const std::string &LoopName);

/// The per-factor compile step: unroll, symbolic memory optimization, an
/// SWP attempt against \p Ctx's register budgets when \p EnableSwp, and
/// \p BodyStats over the unrolled body when it was not pipelined.
CompiledFactor compileFactor(const Loop &L, unsigned Factor,
                             const MachineModel &Machine,
                             const SimContext &Ctx, bool EnableSwp,
                             const SimBodyStatsFn &BodyStats);

/// The epilogue body: the original body, memory-optimized, never
/// software pipelined.
SimBodyStats compileEpilogue(const Loop &L, const SimBodyStatsFn &BodyStats);

/// The cost model: prices factor \p Factor of a loop with runtime trip
/// count \p Trip under \p Ctx. \p Epilogue may be null when Trip % Factor
/// is zero.
SimResult evaluateCompiledFactor(const CompiledFactor &CF,
                                 const SimBodyStats *Epilogue,
                                 unsigned Factor, int64_t Trip,
                                 bool HasKnownTrip,
                                 const MachineModel &Machine,
                                 const SimContext &Ctx);

/// Context-independent compilation of one loop at every unroll factor —
/// everything evaluatePlan() needs to reproduce simulateLoop() for an
/// arbitrary SimContext (same register budgets required when Swp).
struct LoopSimPlan {
  /// For diagnostics: evaluatePlan throws the same exceptions, with the
  /// same loop name, as simulateLoop would.
  std::string LoopName;
  int64_t Trip = 0;
  bool HasKnownTrip = false;
  /// Whether SWP was attempted at compile time; evaluate must be queried
  /// with the same flag the plan was compiled with.
  bool Swp = false;
  std::array<CompiledFactor, MaxUnrollFactor> Factors;
  /// Epilogue body stats, shared by every factor with Trip % F > 0.
  /// simulateLoop compiles the epilogue per call; it is the same
  /// memopt(L) body each time, so the plan computes it once.
  bool HasEpilogue = false;
  SimBodyStats Epilogue;
};

/// Thread-safe structural cache of SimBodyStats, keyed by the
/// trip-stripped canonical body structure. Shared across loops, classes,
/// and factors within one process; one machine model per instance (the
/// key deliberately excludes the machine — callers own that contract,
/// mirroring SimCache's one-global-config usage).
class SimBodyStatsCache {
public:
  std::optional<SimBodyStats> lookup(const Fingerprint &Key) const;
  /// First writer wins (all writers of one key carry identical stats).
  void insert(const Fingerprint &Key, const SimBodyStats &Stats);

  size_t size() const;
  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t misses() const { return Misses.load(std::memory_order_relaxed); }

private:
  struct Hash {
    size_t operator()(const Fingerprint &Key) const {
      return static_cast<size_t>(Key.Lo);
    }
  };
  mutable std::mutex Mutex;
  std::unordered_map<Fingerprint, SimBodyStats, Hash> Map;
  mutable std::atomic<uint64_t> Hits{0};
  mutable std::atomic<uint64_t> Misses{0};
};

/// Runs the structure-dependent half of simulateLoop for every factor in
/// [1, MaxUnrollFactor]: unroll, memory-optimize, schedule (modulo when
/// \p EnableSwp, against \p Ctx's register budgets), measure liveness.
/// \p Cache, when non-null, shares body stats across structurally
/// identical post-memopt bodies. Throws std::domain_error exactly as
/// simulateLoop does when the loop has no concrete runtime trip count.
LoopSimPlan compileLoopSim(const Loop &L, const MachineModel &Machine,
                           const SimContext &Ctx, bool EnableSwp,
                           SimBodyStatsCache *Cache = nullptr);

/// Prices one factor of a compiled plan with the shared cost model
/// (evaluateCompiledFactor): byte-identical to
/// simulateLoop(L, Factor, Machine, Ctx, EnableSwp) for the loop the plan
/// was compiled from, any \p Ctx (same register budgets when the plan was
/// compiled with SWP), and the same \p Machine. Throws
/// std::invalid_argument on an out-of-range factor, as simulateLoop does.
SimResult evaluatePlan(const LoopSimPlan &Plan, unsigned Factor,
                       const MachineModel &Machine, const SimContext &Ctx);

} // namespace metaopt

#endif // METAOPT_SIM_SIMCOMPILE_H
