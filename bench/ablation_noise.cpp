//===- bench/ablation_noise.cpp - Measurement noise ablation --------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// Section 8: "noise presents a challenge to automatically learning
// compiler heuristics. The finer the granularity at which execution is
// measured, the noisier the measurements become." This ablation relabels
// the corpus under increasing instrumentation noise and shows (a) labels
// churn and (b) LOOCV accuracy decays - the paper's motivation for the
// median-of-30 protocol and the 50k-cycle floor.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/ml/CrossValidation.h"

using namespace metaopt;

int main(int Argc, char **Argv) {
  CommandLine Args(Argc, Argv);
  printBenchHeader("Ablation: instrumentation noise",
                   "label churn and accuracy vs measurement noise");

  PipelineOptions Base;
  if (Args.has("quick")) {
    Base.Corpus.MinLoopsPerBenchmark = 6;
    Base.Corpus.MaxLoopsPerBenchmark = 10;
  } else {
    Base.Corpus.MinLoopsPerBenchmark = 12;
    Base.Corpus.MaxLoopsPerBenchmark = 18;
  }

  // Reference labels: the default protocol.
  Pipeline Reference(Base);
  const Dataset &Clean = Reference.dataset(false);
  std::map<std::string, unsigned> CleanLabel;
  for (const Example &Ex : Clean.examples())
    CleanLabel[Ex.LoopName] = Ex.Label;
  FeatureSet Features = paperReducedFeatureSet();

  TablePrinter Table("Noise sweep");
  Table.addHeader({"noise stddev", "usable loops", "labels changed",
                   "NN LOOCV accuracy"});
  for (double Noise : {0.008, 0.03, 0.08, 0.2}) {
    PipelineOptions Options = Base;
    Options.Protocol.NoiseStdDev = Noise;
    Options.Protocol.OutlierProb = 0.02 + Noise;
    Pipeline Pipe(Options);
    const Dataset &Data = Pipe.dataset(false);

    size_t Changed = 0, Matched = 0;
    for (const Example &Ex : Data.examples()) {
      auto It = CleanLabel.find(Ex.LoopName);
      if (It == CleanLabel.end())
        continue;
      ++Matched;
      Changed += Ex.Label != It->second;
    }
    NearNeighborClassifier Nn(Features, 0.3);
    double Accuracy = predictionAccuracy(Data, loocvPredictions(Nn, Data));
    Table.addRow({formatPercent(Noise, 1), std::to_string(Data.size()),
                  Matched ? formatPercent(
                                static_cast<double>(Changed) / Matched, 1)
                          : "-",
                  formatPercent(Accuracy, 1)});
  }
  Table.print();

  std::printf("\nShape checks:\n");
  printComparison("rising noise churns labels and hurts accuracy",
                  "\"noise presents a challenge\" (Section 8)",
                  "see monotone trend above");
  return 0;
}
