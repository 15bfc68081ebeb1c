//===- perfbench/src/main.cpp - Repository benchmark entry point ----------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload <label-eval|loocv|serve-loop|serve-program>
///           --seed <n> --seconds <s> --trace <0|1> [--repo <dir>]
///           [--work-dir <dir>] [--serve-bin <path>] [--gateway-bin <path>]
///           [--commit <id>] [--print-pins]
///
/// Runs one workload and prints its metrics, one "metric" line each, then
/// one JSON object as the last line. perfbench/run.py builds this program
/// and turns that line into the benchmark's result.
///
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "concurrency/ThreadPool.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <thread>

using namespace perfbench;

namespace {

/// The seed later performance claims are developed on, and the held-out
/// seed they must also hold on (a different pinned corpus row).
constexpr uint64_t DevSeed = 1, HeldOutSeed = 2;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <label-eval|loocv|serve-loop|"
               "serve-program> --seed <n> --seconds <s> --trace <0|1> "
               "[--repo <dir>] [--work-dir <dir>] [--serve-bin <path>] "
               "[--gateway-bin <path>] [--commit <id>] [--print-pins]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions Options;
  std::string Commit = "unknown";
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--print-pins") {
      Options.PrintPins = true;
      continue;
    }
    if (I + 1 >= Argc)
      return usage();
    std::string Value = Argv[++I];
    if (Arg == "--workload")
      Options.Workload = Value;
    else if (Arg == "--seed")
      Options.Seed = std::strtoull(Value.c_str(), nullptr, 10);
    else if (Arg == "--seconds")
      Options.Seconds = std::atof(Value.c_str());
    else if (Arg == "--trace")
      Options.Trace = Value == "1";
    else if (Arg == "--repo")
      Options.RepoRoot = Value;
    else if (Arg == "--work-dir")
      Options.WorkDir = Value;
    else if (Arg == "--serve-bin")
      Options.ServeBin = Value;
    else if (Arg == "--gateway-bin")
      Options.GatewayBin = Value;
    else if (Arg == "--commit")
      Commit = Value;
    else
      return usage();
  }
  int (*Run)(const RunOptions &, Report &) = nullptr;
  if (Options.Workload == "label-eval")
    Run = runLabelEval;
  else if (Options.Workload == "loocv")
    Run = runLoocv;
  else if (Options.Workload == "serve-loop" ||
           Options.Workload == "serve-program")
    Run = runServe;
  if (!Run || Options.Seconds <= 0)
    return usage();
  // label-eval's time is the pool's parallel labeling and evaluation. A
  // pool as wide as a few shared vCPUs times whatever else runs there (two
  // busy-loop processes doubled a 4-thread pass), so this workload runs
  // the one-thread pool: the serial reference path, which other load on
  // the machine leaves alone.
  if (Options.Workload == "label-eval")
    metaopt::ThreadPool::setGlobalThreads(1);

  std::error_code Ec;
  std::filesystem::create_directories(Options.WorkDir, Ec);
  Report Out;
  Out.provenance("workload", Options.Workload);
  Out.provenance("seed", std::to_string(Options.Seed));
  Out.provenance("corpus_seed",
                 std::to_string(pinFor(Options.Seed).CorpusSeed));
  Out.provenance("dev_seed", std::to_string(DevSeed));
  Out.provenance("heldout_seed", std::to_string(HeldOutSeed));
  Out.provenance("hw_threads",
                 std::to_string(std::thread::hardware_concurrency()));
  Out.provenance("pool_threads",
                 std::to_string(metaopt::ThreadPool::global().threadCount()));
  Out.provenance("commit", Commit);
  Out.provenance("trace", Options.Trace ? "1" : "0");
  Tracer::get().enable(Options.Trace);
  try {
    if (int Status = Run(Options, Out))
      return Status;
  } catch (const std::exception &Ex) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 Options.Workload.c_str(), Ex.what());
    return 1;
  }
  if (Options.Trace) {
    reportTrace(Out);
    std::string Path = Options.WorkDir + "/" + Options.Workload + "-seed" +
                       std::to_string(Options.Seed) + ".spans.jsonl";
    if (!Tracer::get().write(Path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
      return 1;
    }
    std::fprintf(stderr, "perfbench: spans written to %s\n", Path.c_str());
  }
  Out.print();
  return 0;
}
