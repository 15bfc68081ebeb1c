//===- core/driver/Pipeline.cpp -------------------------------------------===//

#include "core/driver/Pipeline.h"

#include <cstdio>

using namespace metaopt;

Pipeline::Pipeline(PipelineOptions OptionsIn)
    : Options(std::move(OptionsIn)) {}

const std::vector<Benchmark> &Pipeline::corpus() {
  if (!Corpus)
    Corpus = buildCorpus(Options.Corpus);
  return *Corpus;
}

LabelingOptions Pipeline::labelingOptions(bool EnableSwp) const {
  LabelingOptions Labeling;
  Labeling.EnableSwp = EnableSwp;
  Labeling.Machine = Options.Machine;
  Labeling.Protocol = Options.Protocol;
  return Labeling;
}

static bool writeFile(const std::string &Path, const std::string &Content) {
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  if (!File)
    return false;
  size_t Written = std::fwrite(Content.data(), 1, Content.size(), File);
  bool Ok = Written == Content.size();
  Ok &= std::fclose(File) == 0;
  return Ok;
}

const Dataset &Pipeline::dataset(bool EnableSwp) {
  std::optional<Dataset> &Slot = EnableSwp ? DataSwp : DataNoSwp;
  if (Slot)
    return *Slot;

  size_t &TotalLoops = EnableSwp ? TotalLoopsSwp : TotalLoopsNoSwp;
  Slot = collectLabels(corpus(), labelingOptions(EnableSwp), &TotalLoops);
  return *Slot;
}

size_t Pipeline::totalLoops(bool EnableSwp) const {
  return EnableSwp ? TotalLoopsSwp : TotalLoopsNoSwp;
}

bool Pipeline::exportDatasetCsv(bool EnableSwp, const std::string &Path) {
  return writeFile(Path, dataset(EnableSwp).toCsv());
}
