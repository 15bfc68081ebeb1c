//===- perfbench/src/Layers.h - Timed calls into the program ----*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's calls into the program's public API, each wrapped in a
/// span named after the layer it enters: corpus construction, cold
/// labeling through a private SimCache, the Table 2 LOOCV, and per-call
/// probes of the transform / sched / sim / ir / lint / features / ml /
/// serve layers. Also the digests the output checks compare against the
/// values pinned in Pins.h.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_PERFBENCH_LAYERS_H
#define METAOPT_PERFBENCH_LAYERS_H

#include "Bench.h"

#include "cache/SimCache.h"
#include "core/driver/SpeedupEvaluator.h"
#include "core/ml/Kernel.h"
#include "core/ml/OutputCode.h"

namespace perfbench {

/// The output digests pinned for one corpus seed (see Pins.h).
struct Pin {
  uint64_t CorpusSeed;
  uint64_t NoSwpExamples;
  uint64_t NoSwp, Swp;         ///< Labeled datasets.
  uint64_t EvalNoSwp, EvalSwp; ///< Figure 4 / 5 speedup reports.
  uint64_t NnLoocv, SvmLoocv;  ///< Table 2 LOOCV predictions.
};

/// The pinned entry the workload seed selects.
const Pin &pinFor(uint64_t Seed);

/// buildCorpus() at the paper's scale (30-55 loops per benchmark);
/// \p Seconds receives the time it took.
std::vector<metaopt::Benchmark> buildCorpus(uint64_t CorpusSeed,
                                            double &Seconds);

/// One collectLabels() sweep through \p Cache.
struct Labeled {
  metaopt::Dataset Data;
  metaopt::LabelingStats Stats;
  double Seconds = 0;
};
Labeled labelCorpus(const std::vector<metaopt::Benchmark> &Corpus, bool Swp,
                    metaopt::SimCache &Cache);

/// Reports core/driver's and the cache's counters for the cold labeling
/// of a run (the sum over its sweeps; \p Cache began empty).
void reportLabeling(const std::vector<const Labeled *> &Sweeps,
                    const metaopt::SimCacheStats &Cache, double CorpusSeconds,
                    Report &Out);

/// Reports p50_ms, the median time of one unit of the workload's work,
/// and the unit count.
void reportUnitTimes(const std::vector<double> &Ms, Report &Out);

metaopt::LabelingOptions labelingOptions(bool Swp, metaopt::SimCache &Cache);

uint64_t datasetDigest(const metaopt::Dataset &Data);
uint64_t reportDigest(const metaopt::SpeedupReport &Report);
uint64_t predictionsDigest(const std::vector<unsigned> &Predictions);

/// The LS-SVM system SvmClassifier::train builds from \p Data: its points
/// under the paper feature set, z-score normalized over all of \p Data,
/// and the default kernel and regularization.
struct SvmSystem {
  std::vector<std::vector<double>> Points;
  metaopt::RbfKernel Kernel;
  double Gamma;
};
SvmSystem svmSystem(const metaopt::Dataset &Data);

/// The Table 2 protocol: NN LOOCV plus the closed-form LS-SVM LOOCV.
struct LoocvResult {
  std::vector<unsigned> Nn, Svm;
  double NnSeconds = 0;
  /// LS-SVM stages. Library path: Train (SvmClassifier::train) and Loo
  /// (loocvPredictions). Staged path: every field but Train.
  double Train = 0, Normalize = 0, Kernel = 0, Factor = 0, Solve = 0,
         Inverse = 0, Loo = 0;
  double svmSeconds() const {
    return Train + Normalize + Kernel + Factor + Solve + Inverse + Loo;
  }
};

/// Runs Table 2 on \p Data. The library path calls SvmClassifier's
/// train() and loocvPredictions(). The staged path performs the same
/// arithmetic one public call per stage (Normalizer, kernelMatrix,
/// Cholesky::factor / solve / inverse, the closed-form leave-one-out
/// decisions and their Hamming decoding), so a span times each stage; its
/// predictions equal the library's, which the pinned digests check.
LoocvResult tableTwoLoocv(const metaopt::Dataset &Data, bool Staged);

/// Reports a staged LOOCV's stage times and ml.stage_sum_ratio: the
/// stages' sum over \p WallSeconds, the LOOCV's own wall time. The stages
/// account for the LOOCV when the ratio is within 0.98-1.0; the rest is
/// the glue between the calls.
void reportMlStages(const metaopt::Dataset &Data, const LoocvResult &Loocv,
                    double WallSeconds, Report &Out);

/// Per-call probes of the compiler and serving layers on a seeded sample
/// of \p Corpus loops; \p Model is probed for ml.predict_us.
void probeLayers(const std::vector<metaopt::Benchmark> &Corpus,
                 const metaopt::Classifier &Model, uint64_t Seed,
                 Report &Out);

/// Trains an LS-SVM on a 1,000-example subsample (evaluateSpeedups'
/// SvmTrainCap) and reports ml.svm_train_cap1000_s; returns the model.
std::unique_ptr<metaopt::SvmClassifier>
probeCappedTraining(const metaopt::Dataset &Data, Report &Out);

/// The staged Table 2 LOOCV and its ml/linalg stages (reportMlStages) on
/// the same subsample, for workloads whose own LOOCV-shaped work is the
/// capped training; its predictions must equal those of \p Capped, the
/// probeCappedTraining model.
void probeCappedLoocv(const metaopt::Dataset &Data,
                      metaopt::SvmClassifier &Capped, Report &Out);

/// Reports the span recorder's per-layer self times and span count.
void reportTrace(Report &Out);

} // namespace perfbench

#endif // METAOPT_PERFBENCH_LAYERS_H
