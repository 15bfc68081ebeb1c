//===- analysis/Liveness.h - Register pressure estimation -------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Live-range computation over the body order or a schedule's issue
/// order. Produces the "live range size" feature (Table 3/4) and the ORC
/// heuristic's pressure estimate, and feeds the simulator's spill model
/// (over the list schedule's order, in simulateLoop and the compiled
/// labeling path alike): loop-invariant live-ins occupy registers for the
/// whole loop, phi values are live across the backedge, and temporaries
/// live from definition to last use. This is the only liveness pass; it
/// runs in O(body + registers) via per-class delta arrays.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_ANALYSIS_LIVENESS_H
#define METAOPT_ANALYSIS_LIVENESS_H

#include "ir/Loop.h"

namespace metaopt {

/// Register pressure summary of a loop body.
struct LivenessInfo {
  unsigned MaxLiveInt = 0;   ///< Peak simultaneously-live int values.
  unsigned MaxLiveFloat = 0; ///< Peak simultaneously-live float values.
  unsigned MaxLivePred = 0;  ///< Peak simultaneously-live predicates.
  unsigned MaxLiveTotal = 0; ///< Peak over all classes at one point.
  double AvgLiveTotal = 0.0; ///< Mean liveness across body points.
  unsigned NumLiveIn = 0;    ///< Loop-invariant inputs (always live).
  unsigned NumAcrossBack = 0; ///< Values live across the backedge (phis).
};

/// Computes liveness of \p L over its body order. An instruction sequence
/// permutation (a schedule) can be analyzed by passing the permuted order
/// in \p Order; an empty order means body order.
LivenessInfo analyzeLiveness(const Loop &L,
                             const std::vector<uint32_t> &Order = {});

} // namespace metaopt

#endif // METAOPT_ANALYSIS_LIVENESS_H
