//===- perfbench/src/Layers.cpp - Timed calls into the program ------------===//

#include "Layers.h"
#include "Pins.h"

#include "analysis/DependenceGraph.h"
#include "analysis/lint/Lint.h"
#include "core/features/FeatureExtractor.h"
#include "core/features/Normalizer.h"
#include "core/ml/CrossValidation.h"
#include "core/ml/NearNeighbor.h"
#include "core/ml/OutputCode.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "linalg/Cholesky.h"
#include "sched/ListScheduler.h"
#include "serve/Protocol.h"
#include "sim/SimCompile.h"
#include "transform/Unroller.h"

#include <algorithm>
#include <random>
#include <stdexcept>

using namespace metaopt;

namespace perfbench {

const Pin &pinFor(uint64_t Seed) {
  return PinnedSeeds[Seed % (sizeof(PinnedSeeds) / sizeof(PinnedSeeds[0]))];
}

std::vector<Benchmark> buildCorpus(uint64_t CorpusSeed, double &Seconds) {
  CorpusOptions Options;
  Options.Seed = CorpusSeed;
  Options.MinLoopsPerBenchmark = 30;
  Options.MaxLoopsPerBenchmark = 55;
  Span S("corpus.build");
  std::vector<Benchmark> Corpus = metaopt::buildCorpus(Options);
  Seconds = S.stop();
  return Corpus;
}

LabelingOptions labelingOptions(bool Swp, SimCache &Cache) {
  LabelingOptions Options;
  Options.EnableSwp = Swp;
  Options.Cache = &Cache;
  return Options;
}

Labeled labelCorpus(const std::vector<Benchmark> &Corpus, bool Swp,
                    SimCache &Cache) {
  Labeled Out;
  Span S(Swp ? "driver.label_swp" : "driver.label_noswp");
  Out.Data = collectLabels(Corpus, labelingOptions(Swp, Cache), nullptr,
                           &Out.Stats);
  Out.Seconds = S.stop();
  return Out;
}

void reportLabeling(const std::vector<const Labeled *> &Sweeps,
                    const SimCacheStats &Cache, double CorpusSeconds,
                    Report &Out) {
  double Run = 0, Pruned = 0, Shared = 0;
  for (const Labeled *Sweep : Sweeps) {
    Run += Sweep->Stats.SimulationsRun;
    Pruned += Sweep->Stats.SimulationsPruned;
    Shared += Sweep->Stats.BodyStatsShared;
  }
  Out.metric("corpus.build_s", CorpusSeconds, "s");
  Out.metric("driver.sims_run", Run, "count");
  Out.metric("driver.sims_pruned", Pruned, "count");
  Out.metric("driver.body_stats_shared", Shared, "count");
  Out.metric("cache.label.hits", static_cast<double>(Cache.Hits), "count");
  Out.metric("cache.label.misses", static_cast<double>(Cache.Misses), "count");
  Out.metric("cache.label.inserts", static_cast<double>(Cache.Inserts),
             "count");
}

void reportUnitTimes(const std::vector<double> &Ms, Report &Out) {
  Out.metric("p50_ms", median(Ms), "ms");
  Out.metric("units", static_cast<double>(Ms.size()), "count");
}

uint64_t datasetDigest(const Dataset &Data) {
  Digest D;
  for (const Example &Ex : Data.examples()) {
    D.str(Ex.BenchmarkName);
    D.str(Ex.LoopName);
    D.u64(Ex.Label);
    for (double Cycles : Ex.CyclesPerFactor)
      D.f64(Cycles);
    for (double Value : Ex.Features)
      D.f64(Value);
  }
  return D.value();
}

uint64_t reportDigest(const SpeedupReport &Report) {
  Digest D;
  for (const SpeedupRow &Row : Report.Rows) {
    D.str(Row.Benchmark);
    D.u64(Row.FloatingPoint);
    D.f64(Row.NnVsOrc);
    D.f64(Row.SvmVsOrc);
    D.f64(Row.OracleVsOrc);
  }
  for (double Mean : {Report.MeanNn, Report.MeanSvm, Report.MeanOracle,
                      Report.MeanNnFp, Report.MeanSvmFp, Report.MeanOracleFp})
    D.f64(Mean);
  D.u64(Report.NnWins);
  D.u64(Report.SvmWins);
  return D.value();
}

uint64_t predictionsDigest(const std::vector<unsigned> &Predictions) {
  Digest D;
  for (unsigned P : Predictions)
    D.u64(P);
  return D.value();
}

SvmSystem svmSystem(const Dataset &Data) {
  FeatureSet Features = paperReducedFeatureSet();
  SvmOptions Defaults;
  Normalizer Norm;
  Norm.fit(Data.featureMatrix(), Features);
  std::vector<std::vector<double>> Points;
  Points.reserve(Data.size());
  for (const Example &Ex : Data.examples())
    Points.push_back(Norm.apply(Ex.Features));
  return {std::move(Points),
          RbfKernel(Defaults.SigmaSquaredPerDim *
                    static_cast<double>(Features.size())),
          Defaults.Gamma};
}

namespace {

/// The LS-SVM half of Table 2 staged through public calls, in the order
/// and with the arithmetic of LsSvmSolver and SvmClassifier (one-vs-rest
/// code, Hamming decoding with the 1e-6 margin tie-break).
std::vector<unsigned> stagedSvmLoocv(const Dataset &Data, LoocvResult &R) {
  Span NormalizeSpan("ml.normalize");
  SvmSystem System = svmSystem(Data);
  R.Normalize = NormalizeSpan.stop();
  size_t N = System.Points.size();

  Span KernelSpan("ml.kernel_matrix");
  Matrix A = kernelMatrix(System.Kernel, System.Points);
  A.addToDiagonal(1.0 / System.Gamma);
  R.Kernel = KernelSpan.stop();

  Span FactorSpan("linalg.cholesky");
  std::optional<Cholesky> Factor = Cholesky::factor(A);
  R.Factor = FactorSpan.stop();
  if (!Factor)
    throw std::runtime_error("kernel system is not positive definite");

  Span SolveSpan("linalg.solve");
  std::vector<double> V = Factor->solve(std::vector<double>(N, 1.0));
  double S = 0.0;
  for (double Value : V)
    S += Value;
  std::vector<std::vector<double>> Y(MaxUnrollFactor), Alpha(MaxUnrollFactor);
  for (unsigned Bit = 0; Bit < MaxUnrollFactor; ++Bit) {
    for (const Example &Ex : Data.examples())
      Y[Bit].push_back(Ex.Label == Bit + 1 ? 1.0 : -1.0);
    Alpha[Bit] = Factor->solve(Y[Bit]);
    double EtaSum = 0.0;
    for (double Value : Alpha[Bit])
      EtaSum += Value;
    addScaled(Alpha[Bit], -(EtaSum / S), V);
  }
  R.Solve = SolveSpan.stop();

  Span InverseSpan("linalg.inverse");
  Matrix Inverse = Factor->inverse();
  R.Inverse = InverseSpan.stop();

  Span LooSpan("ml.loo_decisions");
  std::vector<unsigned> Predictions(N);
  for (size_t I = 0; I < N; ++I) {
    double Diag = Inverse.at(I, I) - V[I] * V[I] / S;
    std::array<double, MaxUnrollFactor> Scores = {};
    for (unsigned Class = 0; Class < MaxUnrollFactor; ++Class)
      for (unsigned Bit = 0; Bit < MaxUnrollFactor; ++Bit) {
        double Decision = Y[Bit][I] - Alpha[Bit][I] / Diag;
        double Target = Class == Bit ? 1.0 : -1.0;
        double Sign = Decision >= 0.0 ? 1.0 : -1.0;
        Scores[Class] += (Sign == Target ? 1.0 : 0.0);
        Scores[Class] += 1e-6 * Target * Decision;
      }
    unsigned Best = 0;
    for (unsigned Class = 1; Class < MaxUnrollFactor; ++Class)
      if (Scores[Class] > Scores[Best])
        Best = Class;
    Predictions[I] = Best + 1;
  }
  R.Loo = LooSpan.stop();
  return Predictions;
}

} // namespace

LoocvResult tableTwoLoocv(const Dataset &Data, bool Staged) {
  LoocvResult Out;
  FeatureSet Features = paperReducedFeatureSet();
  {
    Span S("ml.nn_loocv");
    NearNeighborClassifier Nn(Features, 0.3);
    Out.Nn = loocvPredictions(Nn, Data);
    Out.NnSeconds = S.stop();
  }
  if (Staged) {
    Out.Svm = stagedSvmLoocv(Data, Out);
    return Out;
  }
  SvmClassifier Svm(Features);
  {
    Span S("ml.svm_train");
    Svm.train(Data);
    Out.Train = S.stop();
  }
  Span S("ml.svm_loo");
  Out.Svm = Svm.loocvPredictions();
  Out.Loo = S.stop();
  return Out;
}

void reportMlStages(const Dataset &Data, const LoocvResult &Loocv,
                    double WallSeconds, Report &Out) {
  Out.metric("ml.loocv_n", static_cast<double>(Data.size()), "count");
  Out.metric("ml.normalize_s", Loocv.Normalize, "s");
  Out.metric("ml.kernel_matrix_s", Loocv.Kernel, "s");
  Out.metric("linalg.cholesky_s", Loocv.Factor, "s");
  Out.metric("linalg.solve_s", Loocv.Solve, "s");
  Out.metric("linalg.inverse_s", Loocv.Inverse, "s");
  Out.metric("ml.loo_decisions_s", Loocv.Loo, "s");
  Out.metric("ml.svm_loocv_s", Loocv.svmSeconds(), "s");
  Out.metric("ml.nn_loocv_s", Loocv.NnSeconds, "s");
  Out.metric("ml.stage_sum_ratio",
             (Loocv.NnSeconds + Loocv.svmSeconds()) / WallSeconds, "ratio");
}

namespace {

/// Mean microseconds per call of \p Fn over \p Calls calls.
template <typename Fn>
double perCallUs(const char *Name, size_t Calls, Fn Body) {
  Span S(Name);
  Body();
  return S.stop() * 1e6 / static_cast<double>(std::max<size_t>(Calls, 1));
}

} // namespace

void probeLayers(const std::vector<Benchmark> &Corpus, const Classifier &Model,
                 uint64_t Seed, Report &Out) {
  std::vector<const CorpusLoop *> All;
  for (const Benchmark &Bench : Corpus)
    for (const CorpusLoop &Entry : Bench.Loops)
      All.push_back(&Entry);
  std::mt19937_64 Gen(Seed ^ 0x5eedULL);
  std::shuffle(All.begin(), All.end(), Gen);
  All.resize(std::min<size_t>(All.size(), 200));

  MachineModel Machine(itanium2Config());
  std::vector<std::string> Printed;
  for (const CorpusLoop *Entry : All)
    Printed.push_back(printLoop(Entry->TheLoop));
  size_t Loops = All.size(), FactorCalls = Loops * MaxUnrollFactor;

  Out.metric("transform.unroll_us",
             perCallUs("transform.unroll", FactorCalls, [&] {
               for (const CorpusLoop *E : All)
                 for (unsigned F = 1; F <= MaxUnrollFactor; ++F)
                   unrollLoop(E->TheLoop, F);
             }),
             "us");
  std::vector<DependenceGraph> Graphs;
  for (const CorpusLoop *E : All)
    Graphs.emplace_back(E->TheLoop);
  Out.metric("sched.list_schedule_us",
             perCallUs("sched.list_schedule", Loops, [&] {
               for (size_t I = 0; I < Loops; ++I)
                 listSchedule(All[I]->TheLoop, Graphs[I], Machine);
             }),
             "us");
  Out.metric("sim.simulate_us",
             perCallUs("sim.simulate", FactorCalls, [&] {
               for (const CorpusLoop *E : All)
                 for (unsigned F = 1; F <= MaxUnrollFactor; ++F)
                   simulateLoop(E->TheLoop, F, Machine, E->Ctx, false);
             }),
             "us");
  std::vector<LoopSimPlan> Plans;
  Plans.reserve(Loops);
  Out.metric("sim.plan_compile_us",
             perCallUs("sim.plan_compile", Loops, [&] {
               for (const CorpusLoop *E : All)
                 Plans.push_back(
                     compileLoopSim(E->TheLoop, Machine, E->Ctx, false));
             }),
             "us");
  Out.metric("sim.plan_eval_us",
             perCallUs("sim.plan_eval", FactorCalls, [&] {
               for (size_t I = 0; I < Loops; ++I)
                 for (unsigned F = 1; F <= MaxUnrollFactor; ++F)
                   evaluatePlan(Plans[I], F, Machine, All[I]->Ctx);
             }),
             "us");

  std::vector<Loop> Parsed;
  Out.metric("ir.parse_us", perCallUs("ir.parse", Loops, [&] {
               for (const std::string &Text : Printed) {
                 ParseResult R = parseLoops(Text);
                 if (!R.succeeded() || R.Loops.size() != 1)
                   throw std::runtime_error("printed corpus loop does not "
                                            "parse back: " + R.Error);
                 Parsed.push_back(std::move(R.Loops[0]));
               }
             }),
             "us");
  // The verifier-only options the prediction service applies.
  LintOptions Verify;
  Verify.Passes = {"V"};
  size_t LintErrors = 0;
  Out.metric("lint.lint_us", perCallUs("lint.lint", Loops, [&] {
               for (const Loop &L : Parsed)
                 LintErrors += lintLoop(L, Verify).hasErrors();
             }),
             "us");
  Out.op(LintErrors == 0, "corpus loops fail the verifier");
  std::vector<FeatureVector> Features;
  Out.metric("features.extract_us",
             perCallUs("features.extract", Loops, [&] {
               for (const Loop &L : Parsed)
                 Features.push_back(extractFeatures(L));
             }),
             "us");

  PredictResponse Response;
  Out.metric("ml.predict_us", perCallUs("ml.predict", Loops, [&] {
               for (size_t I = 0; I < Loops; ++I)
                 Response.Loops.push_back(
                     {Parsed[I].name(), Model.predict(Features[I]), {}});
             }),
             "us");
  std::vector<PredictResponse> Singles(Response.Loops.size());
  for (size_t I = 0; I < Singles.size(); ++I)
    Singles[I].Loops.push_back(Response.Loops[I]);
  size_t Bytes = 0;
  Out.metric("serve.render_us",
             perCallUs("serve.render", Singles.size(), [&] {
               for (const PredictResponse &R : Singles)
                 Bytes += renderPredictResponse("", R).size();
             }),
             "us");
  Out.op(Bytes > 0, "rendered no responses");
}

/// The subsample evaluateSpeedups trains on (SvmTrainCap, SubsampleSeed).
static Dataset cappedSubsample(const Dataset &Data) {
  Rng Subsampler(7);
  return Data.subsample(1000, Subsampler);
}

std::unique_ptr<SvmClassifier> probeCappedTraining(const Dataset &Data,
                                                   Report &Out) {
  Dataset Capped = cappedSubsample(Data);
  auto Svm = std::make_unique<SvmClassifier>(paperReducedFeatureSet());
  Span S("ml.svm_train_cap1000");
  Svm->train(Capped);
  Out.metric("ml.svm_train_cap1000_s", S.stop(), "s");
  return Svm;
}

void probeCappedLoocv(const Dataset &Data, SvmClassifier &Capped,
                      Report &Out) {
  Dataset Subsample = cappedSubsample(Data);
  Span S("loocv");
  LoocvResult Staged = tableTwoLoocv(Subsample, true);
  double Wall = S.stop();
  Out.op(Staged.Svm == Capped.loocvPredictions(),
         "staged LS-SVM LOOCV differs from SvmClassifier's");
  reportMlStages(Subsample, Staged, Wall, Out);
}

void reportTrace(Report &Out) {
  for (const auto &[Layer, Seconds] : Tracer::get().selfSecondsByLayer())
    Out.metric("self." + Layer + "_s", Seconds, "s");
  Out.metric("trace.spans", static_cast<double>(Tracer::get().spanCount()),
             "count");
  Out.metric("trace.overhead_pct", Tracer::get().overheadPercent(), "%");
}

} // namespace perfbench
