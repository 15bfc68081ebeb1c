//===- analysis/symbolic/Canonical.h - Canonical sim-equivalence -*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The canonical simulation form: a quotient of the loop IR by everything
/// simulateLoop() provably ignores. Two loops with equal canonical forms
/// receive identical SimResults at every unroll factor. The simulator's
/// per-run body-stats cache (sim/SimCompile.h) keys unrolled bodies on
/// hashCanonicalSimStructure(), so loops that differ only in these
/// dimensions share their schedule and liveness work during labeling
/// (LabelingStats::BodyStatsShared, core/driver/LabelCollector.h).
///
/// The normalized dimensions — each one verified against the simulator
/// by the static-claims fuzz oracle on every campaign case:
///
///  - loop name, source file, header line, per-instruction source lines
///    (diagnostic metadata; the simulator prices structure only);
///  - register names (the sim path is RegId-structural; names only feed
///    interpreter live-in synthesis and diagnostics), renamed in
///    first-appearance order;
///  - base-symbol numbering (only compared for equality, never used as
///    an address), renumbered in first-use order;
///  - source language and nest level (classifier features, not machine
///    behavior).
///
/// Trip metadata (compile-time and runtime trip counts) is semantic and
/// survives into the canonical form. The structure hash leaves it out on
/// purpose: it keys bodies after unrolling and memory optimization, and
/// nothing downstream of the memory optimizer reads trip counts. The
/// simulation context is not part of the loop and so never part of the
/// key; the cost model applies it when a body's stats are priced.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_ANALYSIS_SYMBOLIC_CANONICAL_H
#define METAOPT_ANALYSIS_SYMBOLIC_CANONICAL_H

#include "ir/Loop.h"
#include "support/Fingerprint.h"

namespace metaopt {

/// Returns a copy of \p L with every sim-irrelevant dimension normalized.
Loop canonicalSimForm(const Loop &L);

/// Feeds the trip-*independent* canonical structure of \p L into \p H:
/// phis, body (opcodes, registers and base symbols renumbered as
/// canonicalSimForm() renumbers them, immediates, memory shapes, exact
/// exit-probability bits, pairing), and referenced register classes.
/// Equal streams certify (up to 128-bit collision odds) equal canonical
/// forms apart from trip metadata, *including* the exact bits of every
/// ExitIf TakenProb the printer rounds. Computed on the fly — no Loop
/// clone, no printing — because the body-stats cache hashes every
/// unrolled body it sees.
void hashCanonicalSimStructure(FingerprintHasher &H, const Loop &L);

} // namespace metaopt

#endif // METAOPT_ANALYSIS_SYMBOLIC_CANONICAL_H
