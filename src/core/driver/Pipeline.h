//===- core/driver/Pipeline.h - End-to-end orchestration --------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One-stop orchestration used by the examples and the benchmark
/// harnesses: builds the corpus, collects labels for the SWP-off and
/// SWP-on configurations, and hands out the reduced feature set. Labeling
/// is by far the most expensive step (a week of machine time in the
/// paper); repeated runs are served by the simulation cache
/// (cache/SimCache.h), whose key covers every input of a simulation.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_CORE_DRIVER_PIPELINE_H
#define METAOPT_CORE_DRIVER_PIPELINE_H

#include "core/driver/LabelCollector.h"

#include <optional>

namespace metaopt {

/// Pipeline configuration.
struct PipelineOptions {
  CorpusOptions Corpus;
  MachineConfig Machine = itanium2Config();
  MeasurementProtocol Protocol;
};

/// Lazily materializes the corpus and the labeled datasets.
class Pipeline {
public:
  explicit Pipeline(PipelineOptions Options = {});

  /// The 72-benchmark corpus (built on first use).
  const std::vector<Benchmark> &corpus();

  /// The labeled dataset for the given configuration. The first call
  /// labels the whole corpus; later calls are free. Total raw loop count
  /// available via totalLoops().
  const Dataset &dataset(bool EnableSwp);

  /// Raw (pre-filter) loop count for the configuration; 0 before the
  /// dataset is labeled.
  size_t totalLoops(bool EnableSwp) const;

  /// Labeling options used for the given configuration.
  LabelingOptions labelingOptions(bool EnableSwp) const;

  const PipelineOptions &options() const { return Options; }

  /// Writes the dataset CSV to \p Path (the "released raw loop data").
  bool exportDatasetCsv(bool EnableSwp, const std::string &Path);

private:
  PipelineOptions Options;
  std::optional<std::vector<Benchmark>> Corpus;
  std::optional<Dataset> DataNoSwp, DataSwp;
  size_t TotalLoopsNoSwp = 0, TotalLoopsSwp = 0;
};

} // namespace metaopt

#endif // METAOPT_CORE_DRIVER_PIPELINE_H
