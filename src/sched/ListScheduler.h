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
/// code generator used when software pipelining is disabled, and the only
/// list scheduler: simulateLoop, the compiled labeling path
/// (sim/SimCompile.h) and the fuzz oracles all run it.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_SCHED_LISTSCHEDULER_H
#define METAOPT_SCHED_LISTSCHEDULER_H

#include "analysis/DependenceGraph.h"
#include "ir/Loop.h"
#include "machine/Machine.h"
#include "sched/Schedule.h"

#include <cstdint>
#include <vector>

namespace metaopt {

/// Schedules the body of \p L onto \p Machine. The dependence graph must
/// belong to \p L.
Schedule listSchedule(const Loop &L, const DependenceGraph &DG,
                      const MachineModel &Machine);

/// The schedulers' priority order: greater height first, ties by body
/// position — a strict total order, so every sort under it is stable.
/// Shared with the iterative modulo scheduler (sched/IterativeModulo.cpp).
struct HeightPriority {
  const std::vector<int> &Height;
  bool operator()(uint32_t A, uint32_t B) const {
    return Height[A] != Height[B] ? Height[A] > Height[B] : A < B;
  }
};

} // namespace metaopt

#endif // METAOPT_SCHED_LISTSCHEDULER_H
