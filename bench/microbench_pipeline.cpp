//===- bench/microbench_pipeline.cpp - Labeling scaling -------------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// Wall-clock cost of the pipeline's dominant step — empirical labeling,
// the step the paper spent ~a week of machine time on — printed as JSON
// rows (one object per line) so dashboards can ingest them directly; the
// same rows are also written to BENCH_pipeline.json at the repo root so
// successive runs leave a machine-readable perf trajectory.
//
// The labeling experiment times collectLabels through a fresh cold
// simulation cache at each requested thread count, always starting with
// one thread, which is the baseline of every row. Each row is the
// fastest of three sweeps, and carries:
//
//   speedup_vs_1thread   the 1-thread time over this row's time;
//   scaling_efficiency   speedup_vs_1thread / min(threads, hw_threads),
//                        1.0 for perfect scaling on the cores the host
//                        actually has;
//   csv_matches_1thread  the determinism contract: every sweep's dataset
//                        CSV is byte-identical to the 1-thread sweep's.
//
// Each row carries hw_threads because on a single-hardware-thread host
// the pool cannot add anything: there every speedup reads ~1.0 and the
// efficiency, not the speedup, says whether the pool is healthy.
//
// A second experiment exercises the content-addressed simulation cache on
// a repeated labeling sweep: an uncached baseline, a cold cached run
// (every simulation is a miss+insert), and a warm cached run (every
// simulation is a hit), each row carrying the cache's hit/miss/insert
// counters so the warm-cache speedup is measured, not asserted.
//
// Flags:
//   --full           label the whole 72-benchmark corpus (default: a
//                    reduced slice so the bench finishes quickly)
//   --swp            also time the software-pipelining configuration
//   --threads=<csv>  comma-separated thread counts (default "1,2,4,8";
//                    the 1-thread baseline runs either way)
//   --cache-dir=<d>  attach the persistent cache tier for the cache
//                    experiment (a second process run then starts warm)
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "cache/SimCache.h"
#include "concurrency/ThreadPool.h"
#include "core/driver/LabelCollector.h"
#include "support/CommandLine.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

using namespace metaopt;

namespace {

/// Destination for the machine-readable BENCH_pipeline.json copy of every
/// row this bench prints; bound in main for the whole run.
BenchJsonWriter *RowSink = nullptr;

/// Prints one JSON row to stdout and records it for BENCH_pipeline.json.
void emitRow(const std::string &Row) {
  std::printf("%s\n", Row.c_str());
  std::fflush(stdout);
  if (RowSink)
    RowSink->row(Row);
}

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

std::vector<unsigned> parseThreadList(const std::string &Csv) {
  std::vector<unsigned> Threads;
  for (const std::string &Part : split(Csv, ',')) {
    int Value = std::atoi(Part.c_str());
    if (Value >= 1)
      Threads.push_back(static_cast<unsigned>(Value));
  }
  if (Threads.empty())
    Threads = {1, 2, 4, 8};
  return Threads;
}

/// Labeling sweeps per row; the row reports the fastest, which damps
/// scheduler noise on shared hosts.
constexpr int SweepsPerRow = 3;

/// Labeling sweeps through a fresh cold cache each; emits a labeling row.
/// Every sweep measures the same work from the same starting state, so
/// the rows are directly comparable. \p BaseSeconds and \p BaseCsv
/// describe the 1-thread row; both are empty/zero for that row itself.
/// Returns the row's wall time and, via \p OutCsv, the dataset CSV.
double labelingRow(const std::vector<Benchmark> &Corpus,
                   LabelingOptions Options, unsigned Threads, bool Full,
                   double BaseSeconds, const std::string &BaseCsv,
                   std::string *OutCsv = nullptr) {
  ThreadPool::setGlobalThreads(Threads);
  double Seconds = 0.0;
  size_t TotalLoops = 0;
  Dataset Data;
  SimCacheStats Stats;
  std::string Csv;
  bool Deterministic = true;
  for (int Sweep = 0; Sweep < SweepsPerRow; ++Sweep) {
    SimCache RunCache;
    Options.Cache = &RunCache;
    auto Start = std::chrono::steady_clock::now();
    Data = collectLabels(Corpus, Options, &TotalLoops);
    double Elapsed = secondsSince(Start);
    Seconds = Sweep == 0 ? Elapsed : std::min(Seconds, Elapsed);
    Stats = RunCache.stats();
    std::string SweepCsv = Data.toCsv();
    if (Sweep == 0)
      Csv = SweepCsv;
    Deterministic = Deterministic && SweepCsv == Csv &&
                    (BaseCsv.empty() || SweepCsv == BaseCsv);
  }
  double Baseline = BaseSeconds > 0.0 ? BaseSeconds : Seconds;
  double Speedup = Seconds > 0.0 ? Baseline / Seconds : 1.0;
  unsigned Hardware = std::max(1u, std::thread::hardware_concurrency());
  double Efficiency = Speedup / std::min(Threads, Hardware);
  char Row[512];
  std::snprintf(Row, sizeof(Row),
                "{\"experiment\": \"labeling\", \"corpus\": \"%s\", "
                "\"swp\": %s, \"threads\": %u, \"hw_threads\": %u, "
                "\"loops\": %zu, \"usable\": %zu, \"seconds\": %.3f, "
                "\"speedup_vs_1thread\": %.2f, "
                "\"scaling_efficiency\": %.2f, "
                "\"csv_matches_1thread\": %s, \"cache_hits\": %llu, "
                "\"cache_misses\": %llu, \"cache_inserts\": %llu}",
                Full ? "full" : "quick",
                Options.EnableSwp ? "true" : "false", Threads, Hardware,
                TotalLoops, Data.size(), Seconds, Speedup, Efficiency,
                Deterministic ? "true" : "false",
                static_cast<unsigned long long>(Stats.Hits),
                static_cast<unsigned long long>(Stats.Misses),
                static_cast<unsigned long long>(Stats.Inserts));
  emitRow(Row);
  if (OutCsv)
    *OutCsv = std::move(Csv);
  return Seconds;
}

void benchLabeling(const std::vector<Benchmark> &Corpus, bool EnableSwp,
                   const std::vector<unsigned> &ThreadCounts, bool Full) {
  LabelingOptions Options;
  Options.EnableSwp = EnableSwp;

  // The 1-thread baseline, then every other requested thread count;
  // byte-identity with the baseline CSV is checked per row.
  std::string BaseCsv;
  double BaseSeconds =
      labelingRow(Corpus, Options, /*Threads=*/1, Full, 0.0, "", &BaseCsv);
  for (unsigned Threads : ThreadCounts)
    if (Threads != 1)
      labelingRow(Corpus, Options, Threads, Full, BaseSeconds, BaseCsv);
}

/// One labeling sweep with \p Options; prints a labeling_cache JSON row.
/// Returns the dataset CSV so phases can be compared byte-for-byte.
std::string cachePhase(const std::vector<Benchmark> &Corpus,
                       LabelingOptions &Options, const char *Phase,
                       SimCache *Cache, double *InOutColdSeconds,
                       const std::string &ReferenceCsv) {
  // The warm-start count is set at cache construction; read it before
  // resetting the per-phase counters.
  uint64_t PersistentLoaded = Cache ? Cache->stats().PersistentLoaded : 0;
  if (Cache)
    Cache->resetStats();
  Options.Cache = Cache;
  auto Start = std::chrono::steady_clock::now();
  Dataset Data = collectLabels(Corpus, Options);
  double Seconds = secondsSince(Start);
  if (std::string(Phase) == "cold")
    *InOutColdSeconds = Seconds;
  double SpeedupVsCold =
      *InOutColdSeconds > 0.0 && Seconds > 0.0 ? *InOutColdSeconds / Seconds
                                               : 1.0;
  SimCacheStats Stats = Cache ? Cache->stats() : SimCacheStats{};
  std::string Csv = Data.toCsv();
  bool Matches = ReferenceCsv.empty() || Csv == ReferenceCsv;
  char Row[512];
  std::snprintf(Row, sizeof(Row),
                "{\"experiment\": \"labeling_cache\", \"phase\": \"%s\", "
                "\"seconds\": %.3f, \"speedup_vs_cold\": %.2f, "
                "\"cache_hits\": %llu, \"cache_misses\": %llu, "
                "\"cache_inserts\": %llu, \"cache_entries\": %zu, "
                "\"persistent_loaded\": %llu, \"csv_matches_uncached\": %s}",
                Phase, Seconds, SpeedupVsCold,
                static_cast<unsigned long long>(Stats.Hits),
                static_cast<unsigned long long>(Stats.Misses),
                static_cast<unsigned long long>(Stats.Inserts),
                Cache ? Cache->size() : 0,
                static_cast<unsigned long long>(PersistentLoaded),
                Matches ? "true" : "false");
  emitRow(Row);
  return Csv;
}

/// The repeated labeling sweep: uncached baseline, cold cached run, warm
/// cached run. The warm run's speedup_vs_cold is the cache's measured
/// payoff; every phase must produce the byte-identical dataset CSV.
void benchLabelingCache(const std::vector<Benchmark> &Corpus, bool EnableSwp,
                        const std::string &CacheDir) {
  ThreadPool::setGlobalThreads(ThreadPool::defaultThreadCount());
  LabelingOptions Options;
  Options.EnableSwp = EnableSwp;

  SimCacheConfig Disabled;
  Disabled.Enabled = false;
  SimCache NoCache(Disabled);

  SimCacheConfig Enabled;
  Enabled.PersistentDir = CacheDir;
  SimCache Cache(Enabled);

  double ColdSeconds = 0.0;
  std::string Reference =
      cachePhase(Corpus, Options, "uncached", &NoCache, &ColdSeconds, "");
  cachePhase(Corpus, Options, "cold", &Cache, &ColdSeconds, Reference);
  cachePhase(Corpus, Options, "warm", &Cache, &ColdSeconds, Reference);
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine Args(Argc, Argv);
  BenchJsonWriter Json("pipeline");
  RowSink = &Json;
  bool Full = Args.has("full");
  std::vector<unsigned> ThreadCounts =
      parseThreadList(Args.getString("threads", "1,2,4,8"));

  CorpusOptions CorpusOpts;
  if (!Full) {
    CorpusOpts.MinLoopsPerBenchmark = 4;
    CorpusOpts.MaxLoopsPerBenchmark = 6;
  }
  std::vector<Benchmark> Corpus = buildCorpus(CorpusOpts);

  benchLabeling(Corpus, /*EnableSwp=*/false, ThreadCounts, Full);
  if (Args.has("swp"))
    benchLabeling(Corpus, /*EnableSwp=*/true, ThreadCounts, Full);

  benchLabelingCache(Corpus, /*EnableSwp=*/false,
                     Args.getString("cache-dir", ""));
  if (Args.has("swp"))
    benchLabelingCache(Corpus, /*EnableSwp=*/true,
                       Args.getString("cache-dir", ""));

  if (!Json.flush())
    std::fprintf(stderr, "microbench_pipeline: cannot write %s\n",
                 Json.path().c_str());
  return 0;
}
