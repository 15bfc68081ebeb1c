//===- tests/driver_test.cpp - Unit tests for core/driver -----------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//

#include "cache/SimCache.h"
#include "core/driver/Heuristics.h"
#include "core/driver/Pipeline.h"
#include "core/driver/SpeedupEvaluator.h"
#include "core/ml/NearNeighbor.h"
#include "heuristics/OrcLikeHeuristic.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <sstream>
#include <stdexcept>

using namespace metaopt;

namespace {

/// A small corpus that labels in well under a second.
CorpusOptions tinyCorpus() {
  CorpusOptions Options;
  Options.MinLoopsPerBenchmark = 2;
  Options.MaxLoopsPerBenchmark = 3;
  return Options;
}

LabelingOptions tinyLabeling() {
  LabelingOptions Options;
  Options.EnableSwp = false;
  return Options;
}

/// Labels \p Corpus through a fresh cold cache and returns the sweep's
/// stats; \p OutData optionally receives the dataset.
LabelingStats labelCold(const std::vector<Benchmark> &Corpus,
                        Dataset *OutData = nullptr) {
  SimCache Cold;
  LabelingOptions Options = tinyLabeling();
  Options.Cache = &Cold;
  LabelingStats Stats;
  Dataset Data = collectLabels(Corpus, Options, nullptr, &Stats);
  if (OutData)
    *OutData = std::move(Data);
  return Stats;
}

/// The rows of \p Data that belong to benchmark \p Name, as CSV lines.
std::vector<std::string> rowsOf(const Dataset &Data, const std::string &Name) {
  std::vector<std::string> Rows;
  std::istringstream Csv(Data.toCsv());
  for (std::string Line; std::getline(Csv, Line);)
    if (Line.rfind(Name + ",", 0) == 0)
      Rows.push_back(Line);
  return Rows;
}

} // namespace

//===----------------------------------------------------------------------===//
// Label collection
//===----------------------------------------------------------------------===//

TEST(LabelCollectorTest, ProducesValidExamples) {
  std::vector<Benchmark> Corpus = buildCorpus(tinyCorpus());
  size_t Raw = 0;
  Dataset Data = collectLabels(Corpus, tinyLabeling(), &Raw);
  EXPECT_GT(Raw, 100u);
  EXPECT_GT(Data.size(), 50u);
  EXPECT_LE(Data.size(), Raw);
  for (const Example &Ex : Data.examples()) {
    EXPECT_GE(Ex.Label, 1u);
    EXPECT_LE(Ex.Label, MaxUnrollFactor);
    // The label is the argmin of the measured cycles.
    double Best = Ex.CyclesPerFactor[Ex.Label - 1];
    for (double Cycles : Ex.CyclesPerFactor)
      EXPECT_GE(Cycles + 1e-9, Best);
    EXPECT_FALSE(Ex.LoopName.empty());
    EXPECT_FALSE(Ex.BenchmarkName.empty());
  }
}

TEST(LabelCollectorTest, AppliesTheNoiseFloor) {
  std::vector<Benchmark> Corpus = buildCorpus(tinyCorpus());
  LabelingOptions Options = tinyLabeling();
  Dataset Data = collectLabels(Corpus, Options);
  for (const Example &Ex : Data.examples())
    EXPECT_GE(Ex.CyclesPerFactor[Ex.Label - 1],
              Options.Protocol.MinReliableCycles);
}

TEST(LabelCollectorTest, AppliesTheSensitivityFilter) {
  std::vector<Benchmark> Corpus = buildCorpus(tinyCorpus());
  LabelingOptions Options = tinyLabeling();
  Dataset Data = collectLabels(Corpus, Options);
  for (const Example &Ex : Data.examples()) {
    double Sum = 0.0;
    for (double Cycles : Ex.CyclesPerFactor)
      Sum += Cycles;
    double Average = Sum / MaxUnrollFactor;
    EXPECT_LE(Ex.CyclesPerFactor[Ex.Label - 1] * Options.MinBestVsAverage,
              Average + 1e-6);
  }
}

TEST(LabelCollectorTest, DeterministicAcrossRuns) {
  std::vector<Benchmark> Corpus = buildCorpus(tinyCorpus());
  Dataset A = collectLabels(Corpus, tinyLabeling());
  Dataset B = collectLabels(Corpus, tinyLabeling());
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Label, B[I].Label);
    EXPECT_DOUBLE_EQ(A[I].CyclesPerFactor[0], B[I].CyclesPerFactor[0]);
  }
}

TEST(LabelCollectorTest, ReportsOneSimulationPerLoopAndFactor) {
  std::vector<Benchmark> Corpus = buildCorpus(tinyCorpus());
  SimCache Cold;
  LabelingOptions Options = tinyLabeling();
  Options.Cache = &Cold;
  LabelingStats Stats;
  size_t Raw = 0;
  collectLabels(Corpus, Options, &Raw, &Stats);
  EXPECT_EQ(Stats.TotalLoops, Raw);
  EXPECT_EQ(Stats.SimulationsRun, Raw * MaxUnrollFactor);
  EXPECT_EQ(Stats.SimulationsPruned, 0u);
  // Cold: every (loop, factor) missed once and was inserted.
  EXPECT_EQ(Cold.stats().Misses, Stats.SimulationsRun);
  EXPECT_EQ(Cold.stats().Inserts, Stats.SimulationsRun);
  EXPECT_GT(Stats.BodyStatsComputed, 0u);

  // Warm: every simulation is a hit, so no body is compiled.
  LabelingStats Warm;
  collectLabels(Corpus, Options, nullptr, &Warm);
  EXPECT_EQ(Warm.SimulationsRun, Stats.SimulationsRun);
  EXPECT_EQ(Warm.BodyStatsComputed, 0u);
  EXPECT_EQ(Warm.BodyStatsShared, 0u);
}

TEST(LabelCollectorTest, EquivalentLoopsShareOneSimulationClass) {
  // Clone a benchmark and rename it and its loops: the renamed loops
  // miss the sim cache (its key covers the printed loop, name included),
  // but every one unrolls to the same canonical bodies as its original
  // (the body-stats key erases names), so the clone schedules no body of
  // its own.
  std::vector<Benchmark> Corpus = buildCorpus(tinyCorpus());
  std::vector<Benchmark> Doubled = {Corpus[0], Corpus[0]};
  Doubled[1].Name = "clone." + Doubled[1].Name;
  for (CorpusLoop &Entry : Doubled[1].Loops)
    Entry.TheLoop.setName("clone." + Entry.TheLoop.name());

  LabelingStats Single = labelCold({Corpus[0]});
  LabelingStats Both = labelCold(Doubled);
  ASSERT_EQ(Both.TotalLoops, 2 * Corpus[0].Loops.size());
  EXPECT_EQ(Both.BodyStatsComputed, Single.BodyStatsComputed);
  EXPECT_GT(Both.BodyStatsShared, Single.BodyStatsShared);
}

TEST(LabelCollectorTest, ContextMutatedClonesStillShareClasses) {
  // Regression for a context-keyed sharing key: every corpus loop carries
  // its own randomized SimContext, so a key that folds the context in
  // shares nothing. Structurally equivalent loops must share their body
  // stats even when their cache/budget contexts differ, while each loop
  // is priced under its own context — so the clone's rows are exactly
  // the rows it gets when labeled alone.
  std::vector<Benchmark> Corpus = buildCorpus(tinyCorpus());
  std::vector<Benchmark> Doubled = {Corpus[0], Corpus[0]};
  Doubled[1].Name = "ctxclone." + Doubled[1].Name;
  for (CorpusLoop &Entry : Doubled[1].Loops) {
    Entry.Ctx.EffectiveIcacheBytes /= 2;
    Entry.Ctx.DcacheMissRate *= 1.5;
    Entry.Ctx.IntRegBudget -= 4;
  }

  Dataset Both, Alone;
  LabelingStats Single = labelCold({Corpus[0]});
  LabelingStats Stats = labelCold(Doubled, &Both);
  labelCold({Doubled[1]}, &Alone);
  ASSERT_EQ(Stats.TotalLoops, 2 * Corpus[0].Loops.size());
  std::vector<std::string> CloneRows = rowsOf(Both, Doubled[1].Name);
  EXPECT_FALSE(CloneRows.empty());
  EXPECT_EQ(CloneRows, rowsOf(Alone, Doubled[1].Name));
  // Every mutated clone still shares its original's bodies.
  EXPECT_EQ(Stats.BodyStatsComputed, Single.BodyStatsComputed);
}

TEST(LabelCollectorTest, SwpConfigurationDiffers) {
  std::vector<Benchmark> Corpus = buildCorpus(tinyCorpus());
  LabelingOptions NoSwp = tinyLabeling();
  LabelingOptions Swp = tinyLabeling();
  Swp.EnableSwp = true;
  Dataset A = collectLabels(Corpus, NoSwp);
  Dataset B = collectLabels(Corpus, Swp);
  // The two configurations must produce different label distributions.
  auto HistA = A.labelHistogram();
  auto HistB = B.labelHistogram();
  EXPECT_NE(HistA, HistB);
}

//===----------------------------------------------------------------------===//
// Learned and oracle policies
//===----------------------------------------------------------------------===//

TEST(LearnedHeuristicTest, DelegatesToClassifier) {
  std::vector<Benchmark> Corpus = buildCorpus(tinyCorpus());
  Dataset Data = collectLabels(Corpus, tinyLabeling());
  NearNeighborClassifier Nn(paperReducedFeatureSet());
  Nn.train(Data);
  LearnedHeuristic Policy(Nn);
  EXPECT_EQ(Policy.name(), "learned-near-neighbor");
  for (const Benchmark &Bench : Corpus) {
    for (const CorpusLoop &Entry : Bench.Loops) {
      unsigned Factor = Policy.chooseFactor(Entry.TheLoop);
      EXPECT_GE(Factor, 1u);
      EXPECT_LE(Factor, MaxUnrollFactor);
    }
  }
}

TEST(OracleHeuristicTest, ReplaysLabels) {
  std::vector<Benchmark> Corpus = buildCorpus(tinyCorpus());
  Dataset Data = collectLabels(Corpus, tinyLabeling());
  OracleHeuristic Oracle(Data, 1);
  for (const Benchmark &Bench : Corpus) {
    for (const CorpusLoop &Entry : Bench.Loops) {
      unsigned Factor = Oracle.chooseFactor(Entry.TheLoop);
      // Labeled loops replay their label; filtered loops fall back to 1.
      bool Found = false;
      for (const Example &Ex : Data.examples()) {
        if (Ex.LoopName == Entry.TheLoop.name()) {
          EXPECT_EQ(Factor, Ex.Label);
          Found = true;
        }
      }
      if (!Found) {
        EXPECT_EQ(Factor, 1u);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Speedup evaluation
//===----------------------------------------------------------------------===//

TEST(SpeedupEvaluatorTest, OracleNeverLosesToBaselineLoopTime) {
  // On pure loop time (no noise, same simulator), the oracle's per-loop
  // choices are by construction at least as good as any other policy for
  // labeled loops; whole-benchmark times include unlabeled loops where
  // oracle falls back, so allow slack but demand rough sanity.
  std::vector<Benchmark> Corpus = buildCorpus(tinyCorpus());
  Dataset Data = collectLabels(Corpus, tinyLabeling());
  SpeedupOptions Options;
  Options.Labeling = tinyLabeling();
  std::vector<std::string> Eval = {"164.gzip", "171.swim", "179.art"};
  SpeedupReport Report =
      evaluateSpeedups(Corpus, Eval, Data, paperReducedFeatureSet(),
                       Options);
  ASSERT_EQ(Report.Rows.size(), 3u);
  for (const SpeedupRow &Row : Report.Rows) {
    EXPECT_GT(Row.OracleVsOrc, -0.25) << Row.Benchmark;
    EXPECT_LT(Row.OracleVsOrc, 3.0) << Row.Benchmark;
  }
}

TEST(SpeedupEvaluatorTest, FpFlagsMatchSuite) {
  std::vector<Benchmark> Corpus = buildCorpus(tinyCorpus());
  Dataset Data = collectLabels(Corpus, tinyLabeling());
  SpeedupOptions Options;
  Options.Labeling = tinyLabeling();
  std::vector<std::string> Eval = {"164.gzip", "171.swim"};
  SpeedupReport Report =
      evaluateSpeedups(Corpus, Eval, Data, paperReducedFeatureSet(),
                       Options);
  EXPECT_FALSE(Report.Rows[0].FloatingPoint); // gzip.
  EXPECT_TRUE(Report.Rows[1].FloatingPoint);  // swim.
}

TEST(SpeedupEvaluatorTest, NonLoopTimeDilutes) {
  std::vector<Benchmark> Corpus = buildCorpus(tinyCorpus());
  MachineModel Machine(itanium2Config());
  OrcLikeHeuristic Orc(Machine, false);
  const Benchmark &Bench = Corpus.front();
  double NonLoop = nonLoopCycles(Bench, Orc, Machine, false);
  double LoopOnly = benchmarkCycles(Bench, Orc, Machine, false, 0.0);
  EXPECT_GT(NonLoop, 0.0);
  EXPECT_NEAR(NonLoop / (NonLoop + LoopOnly), Bench.NonLoopFraction,
              1e-9);
}

namespace {

/// A broken policy that answers an out-of-range factor — what a buggy or
/// corrupted classifier could produce. The evaluator must refuse it in
/// every build mode rather than feed it to the unroller.
class RogueHeuristic : public UnrollHeuristic {
public:
  std::string name() const override { return "rogue"; }
  unsigned chooseFactor(const Loop &) const override {
    return MaxUnrollFactor + 3;
  }
};

} // namespace

TEST(SpeedupEvaluatorTest, RejectsOutOfRangePolicyFactors) {
  std::vector<Benchmark> Corpus = buildCorpus(tinyCorpus());
  MachineModel Machine(itanium2Config());
  RogueHeuristic Rogue;
  EXPECT_THROW(benchmarkCycles(Corpus.front(), Rogue, Machine, false, 0.0),
               std::runtime_error);
}

TEST(SpeedupEvaluatorTest, RejectsBadNonLoopFraction) {
  std::vector<Benchmark> Corpus = buildCorpus(tinyCorpus());
  // NonLoopFraction == 1 would divide by zero; > 1 and < 0 produce
  // negative times. All must throw, in Release builds too.
  for (double Bad : {1.0, 1.5, -0.1}) {
    Benchmark Broken = Corpus.front();
    Broken.NonLoopFraction = Bad;
    EXPECT_THROW(nonLoopFromLoopCycles(Broken, 1e6), std::domain_error)
        << "fraction " << Bad;
  }
  EXPECT_GE(nonLoopFromLoopCycles(Corpus.front(), 1e6), 0.0);
}

TEST(SpeedupEvaluatorTest, RejectsUnknownEvalBenchmark) {
  std::vector<Benchmark> Corpus = buildCorpus(tinyCorpus());
  Dataset Data = collectLabels(Corpus, tinyLabeling());
  SpeedupOptions Options;
  Options.Labeling = tinyLabeling();
  std::vector<std::string> Eval = {"164.gzip", "999.nosuch"};
  EXPECT_THROW(evaluateSpeedups(Corpus, Eval, Data,
                                paperReducedFeatureSet(), Options),
               std::invalid_argument);
}

//===----------------------------------------------------------------------===//
// Pipeline
//===----------------------------------------------------------------------===//

TEST(PipelineTest, LazyAndConsistent) {
  PipelineOptions Options;
  Options.Corpus = tinyCorpus();
  Pipeline Pipe(Options);
  EXPECT_EQ(Pipe.corpus().size(), 72u);
  const Dataset &First = Pipe.dataset(false);
  const Dataset &Second = Pipe.dataset(false);
  EXPECT_EQ(&First, &Second); // Same object: labeled once.
  EXPECT_GT(Pipe.totalLoops(false), First.size());
}

/// Regression for the deleted dataset-CSV cache, whose key held only the
/// machine name, SWP and the corpus seed: two pipelines differing only in
/// measurement noise must not share labels, while an identical rerun is
/// served warm from the simulation cache's persistent tier (keyed on
/// every simulation input) and reproduces the dataset byte for byte.
TEST(PipelineTest, LabelsTrackEveryInputAndRerunsServeWarm) {
  std::string CacheDir =
      ::testing::TempDir() + "/metaopt_pipeline_simcache_test";
  std::filesystem::remove_all(CacheDir);

  auto Label = [&](double NoiseStdDev, SimCacheStats *Stats) {
    SimCacheConfig Config;
    Config.PersistentDir = CacheDir;
    SimCache::configureGlobal(Config);
    PipelineOptions Options;
    Options.Corpus = tinyCorpus();
    Options.Protocol.NoiseStdDev = NoiseStdDev;
    Pipeline Pipe(Options);
    Dataset Data = Pipe.dataset(false);
    if (Stats)
      *Stats = SimCache::global().stats();
    return Data;
  };

  Dataset Quiet = Label(0.008, nullptr);
  Dataset Noisy = Label(0.25, nullptr);
  std::map<std::string, unsigned> QuietLabels;
  for (const Example &Ex : Quiet.examples())
    QuietLabels[Ex.LoopName] = Ex.Label;
  size_t Differing = 0;
  for (const Example &Ex : Noisy.examples()) {
    auto It = QuietLabels.find(Ex.LoopName);
    Differing += It != QuietLabels.end() && It->second != Ex.Label;
  }
  EXPECT_GT(Differing, 0u) << "noise level ignored: labels were reused";

  SimCacheStats Warm;
  Dataset Again = Label(0.008, &Warm);
  EXPECT_GT(Warm.Hits, 0u);
  EXPECT_EQ(Again.toCsv(), Quiet.toCsv());

  SimCache::configureGlobal(SimCacheConfig());
  std::filesystem::remove_all(CacheDir);
}

TEST(PipelineTest, ExportWritesCsv) {
  PipelineOptions Options;
  Options.Corpus = tinyCorpus();
  Pipeline Pipe(Options);
  std::string Path = ::testing::TempDir() + "/metaopt_export_test.csv";
  ASSERT_TRUE(Pipe.exportDatasetCsv(false, Path));
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  ASSERT_NE(File, nullptr);
  std::fclose(File);
  std::filesystem::remove(Path);
}
