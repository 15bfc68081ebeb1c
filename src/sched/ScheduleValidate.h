//===- sched/ScheduleValidate.h - Schedule legality checking ----*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Independent legality checking for acyclic (list) schedules, plus the
/// shared latency/delay model the list scheduler plans with. Factoring the
/// model out of ListScheduler.cpp lets a validator re-derive every timing
/// constraint from the dependence graph and check a Schedule against it
/// without trusting the scheduler's own bookkeeping — which is what the
/// differential fuzzer (fuzz/Oracles.h) and sched_test lean on. The
/// modulo-schedule counterpart is validateModuloSchedule
/// (sched/IterativeModulo.h).
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_SCHED_SCHEDULEVALIDATE_H
#define METAOPT_SCHED_SCHEDULEVALIDATE_H

#include "analysis/DependenceGraph.h"
#include "ir/Loop.h"
#include "machine/Machine.h"
#include "sched/Schedule.h"

#include <string>
#include <vector>

namespace metaopt {

/// Per-node latencies as the code generator sees them: direct loads not
/// behind an exit and not fed by a carried store are rotated (latency 1),
/// everything else keeps its machine latency.
std::vector<int> schedEffectiveLatencies(const Loop &L,
                                         const DependenceGraph &DG,
                                         const MachineModel &Machine);

/// Scheduling delay of \p Edge: data dependences wait out the producer's
/// effective latency (one cycle into a store's data operand), memory
/// ordering needs one cycle, control ordering allows same-cycle issue.
int schedEdgeDelay(const DepEdge &Edge, const Loop &L,
                   const std::vector<int> &EffectiveLatency);

/// Delay of \p Edge under raw machine latencies, the rule the modulo
/// schedulers and the simulator's recurrence interval use: data waits out
/// the producer's latency, memory ordering needs one cycle, and control
/// ordering allows same-cycle issue within an iteration but serializes a
/// whole operation (a call) across iterations.
int machineEdgeDelay(const DepEdge &Edge, const Loop &L,
                     const MachineModel &Machine);

/// True when the list scheduler must honor \p Edge: every distance-0 edge
/// except speculatable control edges, which are re-enforced only into the
/// backedge branch (the loop cannot branch back before its work issued).
bool schedEdgeEnforced(const Loop &L, const DepEdge &Edge);

/// Checks \p Sched against every constraint listSchedule promises:
/// complete placement, deterministic issue order, enforced-edge timing,
/// per-cycle issue width and unit-pool feasibility (including the
/// Int-to-Mem overflow for A-type operations), folded instructions issuing
/// for free, the backedge branch issuing last, and Length consistency.
/// Returns human-readable violations; empty means legal.
std::vector<std::string> validateListSchedule(const Loop &L,
                                              const DependenceGraph &DG,
                                              const MachineModel &Machine,
                                              const Schedule &Sched);

} // namespace metaopt

#endif // METAOPT_SCHED_SCHEDULEVALIDATE_H
