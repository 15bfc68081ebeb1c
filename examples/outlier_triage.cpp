//===- examples/outlier_triage.cpp - The Section 5.1 triage tool ----------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// "One can imagine a tool that automatically detects outliers by setting
// low confidence examples aside. An engineer could then visually inspect
// outlier loops to determine why they are hard to classify." (§5.1)
//
// This example is that tool: it labels a corpus, replays the NN vote for
// every loop with the loop excluded, and prints the loops whose
// neighborhoods are empty or contested - together with the loop body of
// the worst offender, ready for the engineer's eyeballs.
//
// Flags: --full (whole corpus), --threshold=<c>, --show=<n>
//
//===----------------------------------------------------------------------===//

#include "core/driver/OutlierTriage.h"
#include "core/driver/Pipeline.h"
#include "ir/Printer.h"
#include "support/CommandLine.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include <cstdio>
#include <map>

using namespace metaopt;

int main(int Argc, char **Argv) {
  CommandLine Args(Argc, Argv);
  PipelineOptions Options;
  if (!Args.has("full")) {
    Options.Corpus.MinLoopsPerBenchmark = 6;
    Options.Corpus.MaxLoopsPerBenchmark = 10;
  }
  Pipeline Pipe(Options);
  const Dataset &Data = Pipe.dataset(/*EnableSwp=*/false);

  TriageOptions Triage;
  Triage.ConfidenceThreshold = Args.getDouble("threshold", 0.5);
  TriageReport Report =
      triageOutliers(Data, paperReducedFeatureSet(), Triage);

  std::printf("Labeled loops: %zu\n", Report.TotalExamples);
  std::printf("Flagged as low-confidence: %zu (%.1f%%), of which %zu had "
              "no neighbors at all\n",
              Report.Outliers.size(),
              100.0 * Report.Outliers.size() /
                  std::max<size_t>(1, Report.TotalExamples),
              Report.EmptyNeighborhoods);
  std::printf("Accuracy on confident loops: %.1f%%   on flagged loops: "
              "%.1f%%\n\n",
              Report.ConfidentAccuracy * 100.0,
              Report.OutlierAccuracy * 100.0);

  size_t Show = static_cast<size_t>(Args.getInt("show", 12));
  TablePrinter Table("Lowest-confidence loops (inspect these first)");
  Table.addHeader({"loop", "label", "predicted", "neighbors",
                   "confidence", "miss cost"});
  for (size_t I = 0; I < Show && I < Report.Outliers.size(); ++I) {
    const OutlierRecord &Record = Report.Outliers[I];
    Table.addRow({Record.LoopName, std::to_string(Record.Label),
                  std::to_string(Record.Predicted),
                  std::to_string(Record.NeighborCount),
                  formatDouble(Record.Confidence, 2),
                  formatDouble(Record.MispredictCost, 2) + "x"});
  }
  Table.print();

  // Show the worst offender's body, as the imagined engineer would.
  if (!Report.Outliers.empty()) {
    const OutlierRecord &Worst = Report.Outliers.front();
    std::map<std::string, const Loop *> Index;
    for (const Benchmark &Bench : Pipe.corpus())
      for (const CorpusLoop &Entry : Bench.Loops)
        Index[Entry.TheLoop.name()] = &Entry.TheLoop;
    auto It = Index.find(Worst.LoopName);
    if (It != Index.end()) {
      std::printf("\nWhy is \"%s\" hard to classify? Its body:\n\n%s",
                  Worst.LoopName.c_str(), printLoop(*It->second).c_str());
      std::printf("\nEmpirical best factor %u, the %u-NN vote said %u "
                  "with confidence %.2f - its static features resemble "
                  "loops whose program context (cache share, register "
                  "budget) differs, which no static feature reveals.\n",
                  Worst.Label, Worst.NeighborCount, Worst.Predicted,
                  Worst.Confidence);
    }
  }
  return 0;
}
