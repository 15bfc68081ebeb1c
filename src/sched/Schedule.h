//===- sched/Schedule.h - Schedule representations --------------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The result types produced by the schedulers: an acyclic body schedule
/// from the list scheduler, and a steady-state initiation interval from
/// the modulo scheduler.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_SCHED_SCHEDULE_H
#define METAOPT_SCHED_SCHEDULE_H

#include <cstdint>
#include <vector>

namespace metaopt {

/// An acyclic schedule of one loop body (produced by the list scheduler).
struct Schedule {
  /// Issue cycle of each body instruction (indexed by body position).
  std::vector<uint32_t> CycleOf;
  /// Body instruction indices in issue order (ties broken by cycle then
  /// original position, so the order is deterministic).
  std::vector<uint32_t> Order;
  /// Cycle of the backedge branch plus one: the iteration issue length.
  uint32_t Length = 0;
};

/// Modulo-scheduling outcome (produced by the modulo scheduler).
struct SwpResult {
  /// False when the loop cannot be software pipelined (early exits or
  /// calls in the body) and the compiler falls back to the list schedule.
  bool Pipelined = false;
  /// Steady-state initiation interval in cycles per (unrolled) iteration.
  int II = 0;
  /// Pipeline depth in stages; prologue/epilogue cost ~ (StageCount-1)*II.
  int StageCount = 0;
  /// Spill pairs per iteration after the register-pressure-driven II
  /// bumps were exhausted.
  unsigned SpillsPerIteration = 0;
  /// Diagnostics: the two lower bounds.
  int ResMII = 0;
  double RecMII = 0.0;
};

} // namespace metaopt

#endif // METAOPT_SCHED_SCHEDULE_H
