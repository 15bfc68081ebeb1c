//===- core/driver/LabelCollector.cpp -------------------------------------===//

#include "core/driver/LabelCollector.h"

#include "analysis/lint/UnrollInvariants.h"
#include "cache/SimCache.h"
#include "concurrency/Parallel.h"
#include "core/features/FeatureExtractor.h"
#include "ir/Printer.h"
#include "sim/SimCompile.h"
#include "support/Statistics.h"

using namespace metaopt;

namespace {

SimCache &simCacheOf(const LabelingOptions &Options) {
  return Options.Cache ? *Options.Cache : SimCache::global();
}

/// Raw per-entry simulated cycles of one loop at factors 1..8. The loop is
/// printed once and all eight sim-cache keys derive from that text; hits
/// are served from the cache, and on any miss the loop is compiled once
/// (sim/SimCompile.h, sharing body stats through \p BodyCache when given)
/// and the missing factors are evaluated under the loop's own context and
/// inserted. A disabled cache misses every lookup and stores nothing, so
/// it takes this same path.
std::array<double, MaxUnrollFactor>
simulateAllFactors(const CorpusLoop &Entry, const MachineModel &Machine,
                   const LabelingOptions &Options,
                   SimBodyStatsCache *BodyCache) {
  SimCache &Cache = simCacheOf(Options);
  std::string Printed = printLoop(Entry.TheLoop);
  std::array<SimKey, MaxUnrollFactor> Keys;
  std::array<bool, MaxUnrollFactor> Hit = {};
  std::array<double, MaxUnrollFactor> Cycles = {};
  bool AllHit = true;
  for (unsigned F = 1; F <= MaxUnrollFactor; ++F) {
    Keys[F - 1] = simCacheKey(Entry.TheLoop, Printed, F, Machine, Entry.Ctx,
                              Options.EnableSwp);
    if (std::optional<SimResult> Found = Cache.lookup(Keys[F - 1])) {
      Cycles[F - 1] = Found->Cycles;
      Hit[F - 1] = true;
    } else {
      AllHit = false;
    }
  }
  if (AllHit)
    return Cycles; // Warm cache: nothing to compile.

  LoopSimPlan Plan = compileLoopSim(Entry.TheLoop, Machine, Entry.Ctx,
                                    Options.EnableSwp, BodyCache);
  for (unsigned F = 1; F <= MaxUnrollFactor; ++F) {
    if (Hit[F - 1])
      continue;
    SimResult Result = evaluatePlan(Plan, F, Machine, Entry.Ctx);
    Cache.insert(Keys[F - 1], Result);
    Cycles[F - 1] = Result.Cycles;
  }
  return Cycles;
}

/// Measured medians of one loop at factors 1..8: the simulated per-entry
/// cycles pushed through this loop's instrumentation model (scale by
/// execution count, then take the median of the noisy repeated
/// measurements).
std::array<double, MaxUnrollFactor>
measureAllFactors(const Benchmark &Bench, const CorpusLoop &Entry,
                  const MachineModel &Machine, const LabelingOptions &Options,
                  SimBodyStatsCache *BodyCache) {
  std::array<double, MaxUnrollFactor> Cycles =
      simulateAllFactors(Entry, Machine, Options, BodyCache);
  // One deterministic noise stream per (benchmark, loop): re-labeling the
  // corpus reproduces identical datasets, serial or parallel. The
  // benchmark name is mixed into the stream index because loop names are
  // only required to be unique corpus-wide by buildCorpus's check —
  // seeding by loop name alone would hand two same-named loops in
  // different benchmarks identical noise, silently correlating their
  // labels.
  Rng Noise = Rng::splitStream(
      Options.MeasurementSeed,
      Rng::hashString(Bench.Name + "\x1f" + Entry.TheLoop.name()));
  std::array<double, MaxUnrollFactor> Medians = {};
  for (unsigned Factor = 1; Factor <= MaxUnrollFactor; ++Factor) {
    double TotalCycles =
        Cycles[Factor - 1] * static_cast<double>(Entry.Executions);
    Medians[Factor - 1] = measureMedian(TotalCycles, Options.Protocol,
                                        Noise);
  }
  return Medians;
}

/// Per-loop labeling result; Usable mirrors the paper's filters.
struct LabeledLoop {
  bool Usable = false;
  Example Ex;
};

/// Labels one loop: measure it at every factor, pick the best factor,
/// apply the paper's usability filters. Pure function of its arguments
/// (the noise stream is derived from the benchmark and loop names, and
/// \p BodyCache only shares identical body stats), so loops can be
/// labeled in any order on any thread.
LabeledLoop labelOneLoop(const Benchmark &Bench, const CorpusLoop &Entry,
                         const MachineModel &Machine,
                         const LabelingOptions &Options,
                         SimBodyStatsCache &BodyCache) {
  LabeledLoop Result;
  std::array<double, MaxUnrollFactor> Medians =
      measureAllFactors(Bench, Entry, Machine, Options, &BodyCache);

  unsigned Best = 1;
  double BestCycles = Medians[0];
  double Sum = 0.0;
  for (unsigned Factor = 1; Factor <= MaxUnrollFactor; ++Factor) {
    double Cycles = Medians[Factor - 1];
    Sum += Cycles;
    if (Cycles < BestCycles) {
      BestCycles = Cycles;
      Best = Factor;
    }
  }
  double Average = Sum / MaxUnrollFactor;

  // Paper filters: the 50k-cycle noise floor and the 1.05x
  // best-vs-average sensitivity requirement.
  if (!isReliablyMeasurable(BestCycles, Options.Protocol))
    return Result;
  if (BestCycles * Options.MinBestVsAverage > Average)
    return Result;

  Result.Usable = true;
  Result.Ex.Features = extractFeatures(Entry.TheLoop);
  Result.Ex.Label = Best;
  Result.Ex.CyclesPerFactor = Medians;
  Result.Ex.LoopName = Entry.TheLoop.name();
  Result.Ex.BenchmarkName = Bench.Name;
  return Result;
}

} // namespace

std::array<double, MaxUnrollFactor>
metaopt::measureLoopAtAllFactors(const Benchmark &Bench,
                                 const CorpusLoop &Entry,
                                 const MachineModel &Machine,
                                 const LabelingOptions &Options) {
  return measureAllFactors(Bench, Entry, Machine, Options,
                           /*BodyCache=*/nullptr);
}

Dataset metaopt::collectLabels(const std::vector<Benchmark> &Corpus,
                               const LabelingOptions &Options,
                               size_t *OutTotalLoops,
                               LabelingStats *OutStats) {
  MachineModel Machine(Options.Machine);

  // Every unroll this sweep performs is audited against the
  // post-transform invariants; a violation throws out of the sweep
  // (deterministically — the runtime propagates the lowest-index
  // exception) rather than silently corrupting the training labels.
  UnrollAuditGuard AuditGuard;

  // Flatten to an ordered work-list so every loop has a stable index;
  // results are collected by that index, which makes the parallel dataset
  // (and its CSV) byte-identical to the serial one.
  std::vector<std::pair<const Benchmark *, const CorpusLoop *>> Loops;
  for (const Benchmark &Bench : Corpus)
    for (const CorpusLoop &Entry : Bench.Loops)
      Loops.emplace_back(&Bench, &Entry);

  // Loops (and factors of one loop) that unroll to structurally identical
  // post-memopt bodies share their schedule and liveness work here.
  SimBodyStatsCache BodyCache;
  std::vector<LabeledLoop> Labeled =
      parallelMap<LabeledLoop>(Loops.size(), [&](size_t I) {
        return labelOneLoop(*Loops[I].first, *Loops[I].second, Machine,
                            Options, BodyCache);
      });

  Dataset Data;
  for (LabeledLoop &L : Labeled)
    if (L.Usable)
      Data.add(std::move(L.Ex));
  if (OutTotalLoops)
    *OutTotalLoops = Loops.size();
  if (OutStats) {
    OutStats->TotalLoops = Loops.size();
    OutStats->SimulationsRun = Loops.size() * MaxUnrollFactor;
    OutStats->SimulationsPruned = 0;
    OutStats->BodyStatsComputed = BodyCache.size();
    OutStats->BodyStatsShared = BodyCache.hits();
  }

  // Warm-start later processes: flush new simulation results to the
  // persistent tier (no-op for in-memory-only caches).
  simCacheOf(Options).savePersistentIfDirty();
  return Data;
}
