//===- perfbench/src/Workloads.cpp - label-eval and loocv -----------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two batch workloads. label-eval cold-labels the corpus (SWP off and
/// on) through a fresh SimCache and runs the Figure 4/5 speedup
/// evaluation on the same cache; loocv runs the Table 2 protocol over the
/// full labeled set. Both repeat their timed unit until the run's seconds
/// are used (at least once) and report medians.
///
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "core/ml/CrossValidation.h"
#include "core/ml/OutputCode.h"

#include <cmath>

#include <cstdio>
#include <memory>

using namespace metaopt;

namespace perfbench {

namespace {

/// Checks \p Actual against the pinned \p Expected, or prints it when
/// pinning.
void checkPinned(const RunOptions &Options, Report &Out, const char *What,
                 uint64_t Actual, uint64_t Expected) {
  if (Options.PrintPins) {
    std::fprintf(stderr, "pin %s = 0x%s\n", What, hex64(Actual).c_str());
    return;
  }
  Out.op(Actual == Expected, std::string(What) + " digest " + hex64(Actual) +
                                 " != pinned " + hex64(Expected));
}

/// The closed-form LS-SVM leave-one-out decisions (LsSvmSolver::
/// looDecisions) against retraining without each example, for every
/// one-vs-rest bit, on points normalized once over the whole of \p Small,
/// as the fast path normalizes them. Returns the mismatches.
size_t looMismatches(const Dataset &Small) {
  auto [Points, Kernel, Gamma] = svmSystem(Small);
  std::optional<LsSvmSolver> Full = LsSvmSolver::create(Points, Kernel, Gamma);
  if (!Full)
    return Small.size();
  size_t Mismatches = 0;
  for (unsigned Class = 1; Class <= MaxUnrollFactor; ++Class) {
    std::vector<double> Y;
    for (const Example &Ex : Small.examples())
      Y.push_back(Ex.Label == Class ? 1.0 : -1.0);
    std::vector<double> Fast = Full->looDecisions(Y, Full->solve(Y));
    for (size_t I = 0; I < Points.size(); ++I) {
      std::vector<std::vector<double>> Rest = Points;
      std::vector<double> RestY = Y;
      Rest.erase(Rest.begin() + I);
      RestY.erase(RestY.begin() + I);
      std::optional<LsSvmSolver> Without =
          LsSvmSolver::create(Rest, Kernel, Gamma);
      double Slow = Without ? Without->solve(RestY).decision(
                                  kernelVector(Kernel, Rest, Points[I]))
                            : NAN;
      // A NaN (a failed retraining) compares false and counts too.
      Mismatches +=
          !(std::fabs(Slow - Fast[I]) <= 1e-6 * (1 + std::fabs(Slow)));
    }
  }
  return Mismatches;
}

} // namespace

int runLabelEval(const RunOptions &Options, Report &Out) {
  const Pin &P = pinFor(Options.Seed);
  std::vector<Benchmark> Corpus;
  double CorpusS = 0;
  Out.metric("setup_s",
             timeSetups([&] { Corpus = buildCorpus(P.CorpusSeed, CorpusS); },
                        [] {}),
             "s");
  const FeatureSet Features = paperReducedFeatureSet();
  const std::vector<std::string> &Spec = spec2000BenchmarkNames();

  std::unique_ptr<SimCache> Cache;
  Labeled Off, On;
  SimCacheStats LabelStats, EvalStats;
  std::vector<double> LabelS, EvalS, EvalOffS, EvalOnS, PassMs;
  auto Pass = [&] {
    // A fresh, in-memory cache: cold labeling writes it, the speedup
    // evaluation reads it back.
    Cache = std::make_unique<SimCache>();
    Off = labelCorpus(Corpus, false, *Cache);
    On = labelCorpus(Corpus, true, *Cache);
    LabelStats = Cache->stats();
    checkPinned(Options, Out, "label-noswp", datasetDigest(Off.Data), P.NoSwp);
    checkPinned(Options, Out, "label-swp", datasetDigest(On.Data), P.Swp);
    // Cold start: the private cache began empty, so every (loop, factor)
    // request of both sweeps missed once — the simulations run and the
    // pruned class members (which still store their own entries) alike.
    uint64_t Requests = Off.Stats.SimulationsRun + On.Stats.SimulationsRun +
                        Off.Stats.SimulationsPruned +
                        On.Stats.SimulationsPruned;
    Out.op(LabelStats.Misses == Requests && LabelStats.Hits == 0,
           "cold labeling missed " + std::to_string(LabelStats.Misses) +
               " times for " + std::to_string(Requests) + " sim requests");

    Cache->resetStats();
    SpeedupOptions Eval;
    Eval.Labeling = labelingOptions(false, *Cache);
    Span OffSpan("driver.eval_noswp");
    SpeedupReport OffReport =
        evaluateSpeedups(Corpus, Spec, Off.Data, Features, Eval);
    EvalOffS.push_back(OffSpan.stop());
    Eval.Labeling = labelingOptions(true, *Cache);
    Span OnSpan("driver.eval_swp");
    SpeedupReport OnReport =
        evaluateSpeedups(Corpus, Spec, On.Data, Features, Eval);
    EvalOnS.push_back(OnSpan.stop());
    EvalStats = Cache->stats();
    checkPinned(Options, Out, "eval-noswp", reportDigest(OffReport),
                P.EvalNoSwp);
    checkPinned(Options, Out, "eval-swp", reportDigest(OnReport), P.EvalSwp);
    LabelS.push_back(Off.Seconds + On.Seconds);
    EvalS.push_back(EvalOffS.back() + EvalOnS.back());
    PassMs.push_back(1000.0 * (LabelS.back() + EvalS.back()));
  };

  Clock::time_point Start = Clock::now();
  do
    Pass();
  while (secondsSince(Start) < Options.Seconds && !Options.PrintPins);
  reportUnitTimes(PassMs, Out);
  Out.metric("label_s", median(LabelS), "s");
  Out.metric("speedup_eval_s", median(EvalS), "s");
  Out.metric("peak_rss_mb", peakRssMb(), "MB");
  if (!Options.Trace)
    return 0;

  reportLabeling({&Off, &On}, LabelStats, CorpusS, Out);
  Out.metric("driver.label_noswp_s", Off.Seconds, "s");
  Out.metric("driver.label_swp_s", On.Seconds, "s");
  Out.metric("driver.eval_noswp_s", median(EvalOffS), "s");
  Out.metric("driver.eval_swp_s", median(EvalOnS), "s");
  Out.metric("cache.eval.hit_ratio", EvalStats.hitRate(), "ratio");
  {
    // Relabel through the now-warm cache: every sim is a hit and the
    // dataset must be byte-identical to the cold one.
    Span S("cache.warm_relabel");
    Dataset Warm = collectLabels(Corpus, labelingOptions(false, *Cache));
    Out.metric("cache.warm_relabel_s", S.stop(), "s");
    Out.op(datasetDigest(Warm) == datasetDigest(Off.Data),
           "warm relabel differs from the cold labeling");
  }
  std::unique_ptr<SvmClassifier> Capped = probeCappedTraining(Off.Data, Out);
  probeCappedLoocv(Off.Data, *Capped, Out);
  probeLayers(Corpus, *Capped, Options.Seed, Out);
  return 0;
}

int runLoocv(const RunOptions &Options, Report &Out) {
  const Pin &P = pinFor(Options.Seed);
  std::vector<Benchmark> Corpus;
  double CorpusS = 0;
  Labeled Off;
  SimCacheStats LabelStats;
  Out.metric("setup_s", timeSetups(
                            [&] {
                              Corpus = buildCorpus(P.CorpusSeed, CorpusS);
                              SimCache Cache;
                              Off = labelCorpus(Corpus, false, Cache);
                              LabelStats = Cache.stats();
                            },
                            [] {}),
             "s");
  const Dataset &Data = Off.Data;
  checkPinned(Options, Out, "label-noswp", datasetDigest(Data), P.NoSwp);
  Out.op(Options.PrintPins || Data.size() == P.NoSwpExamples,
         "labeled set has " + std::to_string(Data.size()) + " examples");

  LoocvResult Last;
  std::vector<double> Ms;
  Clock::time_point Start = Clock::now();
  do {
    // A traced run stages the LS-SVM so its spans split the time.
    Span S("loocv");
    Last = tableTwoLoocv(Data, Options.Trace);
    Ms.push_back(1000.0 * S.stop());
    checkPinned(Options, Out, "loocv-nn", predictionsDigest(Last.Nn),
                P.NnLoocv);
    checkPinned(Options, Out, "loocv-svm", predictionsDigest(Last.Svm),
                P.SvmLoocv);
  } while (secondsSince(Start) < Options.Seconds && !Options.PrintPins);
  reportUnitTimes(Ms, Out);
  Out.metric("loocv_s", median(Ms) / 1000.0, "s");
  Out.metric("loocv_n", static_cast<double>(Data.size()), "count");

  {
    // On a small seeded subsample, the closed-form LOOCV must equal
    // retraining without each example. bruteForceLoocv also refits the
    // normalizer per fold, which the fast path does not, so near class
    // boundaries its answers may differ (tests/ml_test.cpp allows three);
    // those differences are counted, and the identity itself is checked
    // on the decision values with the normalization held fixed.
    Rng Subsampler(Options.Seed);
    Dataset Small = Data.subsample(48, Subsampler);
    size_t Mismatches = looMismatches(Small);
    Out.op(Mismatches == 0, std::to_string(Mismatches) +
                                " closed-form LOO decisions differ from "
                                "retraining");
    FeatureSet Features = paperReducedFeatureSet();
    SvmClassifier Fast(Features);
    Fast.train(Small);
    ClassifierFactory Factory = [](const FeatureSet &Subset) {
      return std::unique_ptr<Classifier>(
          std::make_unique<SvmClassifier>(Subset));
    };
    std::vector<unsigned> Closed = Fast.loocvPredictions();
    std::vector<unsigned> Brute = bruteForceLoocv(Factory, Features, Small);
    size_t Differ = 0;
    for (size_t I = 0; I < Closed.size(); ++I)
      Differ += Closed[I] != Brute[I];
    Out.metric("ml.brute_force_differences", static_cast<double>(Differ),
               "count");
  }
  Out.metric("peak_rss_mb", peakRssMb(), "MB");
  if (!Options.Trace)
    return 0;

  reportLabeling({&Off}, LabelStats, CorpusS, Out);
  Out.metric("driver.label_noswp_s", Off.Seconds, "s");
  reportMlStages(Data, Last, Ms.back() / 1000.0, Out);
  std::unique_ptr<SvmClassifier> Capped = probeCappedTraining(Data, Out);
  probeLayers(Corpus, *Capped, Options.Seed, Out);
  return 0;
}

} // namespace perfbench
