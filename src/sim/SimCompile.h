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
/// There is one simulator (sim/Simulator.cpp). Each factor is compiled
/// (unroll, memory-optimize, attempt SWP, reduce the body to SimBodyStats
/// with listSchedule + analyzeLiveness) and then priced by the cost
/// model; only the pricing reads the SimContext's cache shares, d-cache
/// rates and register budgets. simulateLoop runs both steps for one
/// factor. compileLoopSim runs the compile step once for all eight
/// factors, and the labeling sweep exploits that twice:
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
///     keyed by the machine and the trip-stripped canonical structure
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
/// simulateLoop and compileLoopSim share every step, kernels included;
/// the one thing to cross-check is the plan bookkeeping (one epilogue per
/// plan, the body-stats cache). tests/perf_test.cpp asserts
/// compile+evaluate == simulateLoop over a corpus slice on two machines
/// and the fuzz seeds, the fuzz `sim-cache` oracle asserts it on every
/// campaign case, and tests/sim_golden_test.cpp pins simulateLoop's
/// output and the kernels' own.
///
/// See docs/PERF.md for the design rationale and measurements.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_SIM_SIMCOMPILE_H
#define METAOPT_SIM_SIMCOMPILE_H

#include "sim/Simulator.h"
#include "support/Fingerprint.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace metaopt {

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
  /// matters for bit-identity) and their count.
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

/// Thread-safe structural cache of SimBodyStats, keyed by every
/// MachineConfig field (hashMachineConfig) and the trip-stripped
/// canonical body structure. Shared across loops, classes, factors and
/// machines within one process.
class SimBodyStatsCache {
public:
  std::optional<SimBodyStats> lookup(const Fingerprint &Key) const;
  /// First writer wins (all writers of one key carry identical stats).
  void insert(const Fingerprint &Key, const SimBodyStats &Stats);

  size_t size() const;
  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }

private:
  struct Hash {
    size_t operator()(const Fingerprint &Key) const {
      return static_cast<size_t>(Key.Lo);
    }
  };
  mutable std::mutex Mutex;
  std::unordered_map<Fingerprint, SimBodyStats, Hash> Map;
  mutable std::atomic<uint64_t> Hits{0};
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

/// Prices one factor of a compiled plan with the cost model:
/// byte-identical to simulateLoop(L, Factor, Machine, Ctx, EnableSwp) for
/// the loop the plan was compiled from, any \p Ctx (same register budgets
/// when the plan was compiled with SWP), and the same \p Machine. Throws
/// std::invalid_argument on an out-of-range factor, as simulateLoop does.
SimResult evaluatePlan(const LoopSimPlan &Plan, unsigned Factor,
                       const MachineModel &Machine, const SimContext &Ctx);

} // namespace metaopt

#endif // METAOPT_SIM_SIMCOMPILE_H
