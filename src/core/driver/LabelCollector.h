//===- core/driver/LabelCollector.h - Empirical labeling --------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the labeled training set: every loop in the corpus is compiled
/// and "run" at unroll factors 1..8, each configuration is measured 30
/// times through the noisy instrumentation model and the median kept, and
/// the factor with the fewest cycles becomes the label. The paper's usable-
/// loop filters apply: the loop must run at least 50,000 cycles, and its
/// best factor must beat the average over all factors by at least 1.05x.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_CORE_DRIVER_LABELCOLLECTOR_H
#define METAOPT_CORE_DRIVER_LABELCOLLECTOR_H

#include "core/ml/Dataset.h"
#include "corpus/BenchmarkSuite.h"
#include "machine/Machine.h"
#include "sim/Measurement.h"

namespace metaopt {

class SimCache;

/// Label-collection configuration.
struct LabelingOptions {
  bool EnableSwp = false;           ///< Figure 4 (off) vs Figure 5 (on).
  MachineConfig Machine = itanium2Config();
  MeasurementProtocol Protocol = {};
  /// Paper filter: keep loops "whose optimal unroll factor is measurably
  /// better than the average (1.05x) over all unroll factors".
  double MinBestVsAverage = 1.05;
  uint64_t MeasurementSeed = 0x10adedD1CEull; // Per-loop noise streams.
  /// Simulation cache the sweep reads and fills: every (loop, factor)
  /// result is looked up under its simCacheKey and, on a miss, computed
  /// from the loop's compiled plan (sim/SimCompile.h) and inserted. Null
  /// selects the process-global SimCache::global(). Cold, warm and
  /// disabled caches produce byte-identical datasets (cache/SimCache.h).
  SimCache *Cache = nullptr;
};

/// What one collectLabels sweep did.
struct LabelingStats {
  size_t TotalLoops = 0;     ///< Pre-filter loop count.
  size_t SimulationsRun = 0; ///< (loop, factor) simulations requested.
  /// Always 0: the sweep prunes no simulations. Kept because benchmark
  /// reports still read and print it.
  size_t SimulationsPruned = 0;
  /// Body-level structural sharing inside the compiled plans
  /// (sim/SimCompile.h): unique post-memopt bodies actually scheduled,
  /// and schedule/liveness computations avoided because a structurally
  /// identical body (same canonical structure, any trip count, any loop
  /// name) was already in the per-sweep cache. Both are 0 when every
  /// simulation was served from the sim cache.
  size_t BodyStatsComputed = 0;
  size_t BodyStatsShared = 0;
};

/// Labels one loop of \p Bench; returns the measured medians per factor.
/// The loop's measurement-noise stream is seeded from the benchmark name
/// *and* the loop name, so two same-named loops in different benchmarks
/// can never share a noise stream.
std::array<double, MaxUnrollFactor>
measureLoopAtAllFactors(const Benchmark &Bench, const CorpusLoop &Entry,
                        const MachineModel &Machine,
                        const LabelingOptions &Options);

/// Labels every usable loop in the corpus into a Dataset. Unusable loops
/// (too short or too insensitive) are dropped, mirroring the paper's
/// dataset construction. \p OutTotalLoops optionally receives the raw
/// (pre-filter) loop count.
///
/// Loops are labeled in parallel on the global thread pool (this is the
/// paper's week-of-machine-time step); each loop's noise stream comes
/// from MeasurementSeed + its name, and examples are collected in corpus
/// order, so the dataset is bit-identical however many threads run.
/// \p OutStats optionally receives the sweep's statistics.
Dataset collectLabels(const std::vector<Benchmark> &Corpus,
                      const LabelingOptions &Options,
                      size_t *OutTotalLoops = nullptr,
                      LabelingStats *OutStats = nullptr);

} // namespace metaopt

#endif // METAOPT_CORE_DRIVER_LABELCOLLECTOR_H
