//===- tests/perf_test.cpp - Labeling fast-path perf & identity -----------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// Guards the labeling fast path (sim/SimCompile.h) on two fronts:
//
//  * Byte-identity: the compiled plan evaluated at every factor must
//    reproduce simulateLoop's SimResult bit for bit, over both a
//    generated corpus slice (on two machines sharing one body-stats
//    cache) and every promoted fuzz reproducer in tests/fuzz_seeds/ —
//    the seeds are loops that broke an oracle once, so they are exactly
//    the structures most likely to diverge.
//
//  * Thread scaling: labeling the default corpus on 4 threads must
//    produce the 1-thread sweep's byte-identical dataset and, in
//    optimized builds, reach a scaling efficiency of at least 0.6:
//    (t_1thread / t_4threads) / min(4, hw_threads). On one hardware
//    thread the ideal is 1, so the gate stays meaningful there. It
//    measures ~0.85 in Release on 4 hardware threads; see docs/PERF.md
//    for the design. The suite runs RUN_SERIAL (tests/CMakeLists.txt)
//    so concurrent tests cannot distort the ratio.
//
// The suite carries the ctest label `perf` so the CI bench-smoke job can
// run it in isolation (`ctest -L perf`) on a Release build.
//
//===----------------------------------------------------------------------===//

#include "cache/SimCache.h"
#include "concurrency/ThreadPool.h"
#include "core/driver/LabelCollector.h"
#include "corpus/BenchmarkSuite.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "machine/Machine.h"
#include "sim/SimCompile.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#ifndef METAOPT_FUZZ_SEED_DIR
#error "METAOPT_FUZZ_SEED_DIR must point at tests/fuzz_seeds"
#endif

using namespace metaopt;

namespace {

/// Asserts plan evaluation == simulateLoop at every factor, both SWP
/// modes, under \p Ctx. \p Where names the loop in failure output.
void expectFastPathMatches(const Loop &L, const MachineModel &Machine,
                           const SimContext &Ctx, SimBodyStatsCache *Cache,
                           const std::string &Where) {
  for (bool Swp : {false, true}) {
    LoopSimPlan Plan = compileLoopSim(L, Machine, Ctx, Swp, Cache);
    for (unsigned Factor = 1; Factor <= MaxUnrollFactor; ++Factor) {
      SimResult Ref = simulateLoop(L, Factor, Machine, Ctx, Swp);
      SimResult Fast = evaluatePlan(Plan, Factor, Machine, Ctx);
      EXPECT_TRUE(Ref == Fast)
          << Where << " factor " << Factor << " swp " << Swp
          << ": cycles " << Ref.Cycles << " vs " << Fast.Cycles;
    }
  }
}

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// One cold-cache labeling sweep; returns wall seconds, CSV via out-param.
double timedSweep(const std::vector<Benchmark> &Corpus, unsigned Threads,
                  std::string *OutCsv) {
  ThreadPool::setGlobalThreads(Threads);
  SimCache RunCache;
  LabelingOptions Options;
  Options.Cache = &RunCache;
  auto Start = std::chrono::steady_clock::now();
  Dataset Data = collectLabels(Corpus, Options);
  double Seconds = secondsSince(Start);
  *OutCsv = Data.toCsv();
  return Seconds;
}

} // namespace

TEST(FastPathIdentity, MatchesReferenceOnGeneratedCorpus) {
  CorpusOptions CorpusOpts;
  CorpusOpts.MinLoopsPerBenchmark = 2;
  CorpusOpts.MaxLoopsPerBenchmark = 4;
  std::vector<Benchmark> Corpus = buildCorpus(CorpusOpts);
  // Shared across loops and machines: identity must survive body sharing,
  // and a body scheduled for one machine must never serve another.
  SimBodyStatsCache Cache;
  size_t Checked = 0;
  for (const MachineConfig &Config : {itanium2Config(), altVliwConfig()}) {
    MachineModel Machine(Config);
    for (const Benchmark &Bench : Corpus) {
      for (const CorpusLoop &Entry : Bench.Loops) {
        expectFastPathMatches(Entry.TheLoop, Machine, Entry.Ctx, &Cache,
                              Machine.name() + ": " + Bench.Name + "/" +
                                  Entry.TheLoop.name());
        ++Checked;
      }
    }
  }
  EXPECT_GT(Checked, 20u);
  // The corpus repeats loop shapes, so the body cache must actually share.
  EXPECT_GT(Cache.hits(), 0u);
}

TEST(FastPathIdentity, MatchesReferenceOnFuzzSeeds) {
  namespace fs = std::filesystem;
  fs::path Dir(METAOPT_FUZZ_SEED_DIR);
  ASSERT_TRUE(fs::exists(Dir)) << Dir;
  MachineModel Machine(itanium2Config());
  SimContext Ctx;
  SimBodyStatsCache Cache;
  unsigned Compared = 0;
  for (const fs::directory_entry &Entry : fs::directory_iterator(Dir)) {
    if (Entry.path().extension() != ".loop")
      continue;
    std::ifstream In(Entry.path());
    ASSERT_TRUE(In) << Entry.path();
    std::ostringstream Buffer;
    Buffer << In.rdbuf();
    ParseResult Parsed =
        parseLoops(Buffer.str(), Entry.path().filename().string());
    ASSERT_TRUE(Parsed.succeeded()) << Parsed.Error;
    for (const Loop &L : Parsed.Loops) {
      if (!isWellFormed(L) || L.runtimeTripCount() < 0)
        continue; // simulateLoop itself rejects these.
      expectFastPathMatches(L, Machine, Ctx, &Cache,
                            Entry.path().filename().string() + "/" +
                                L.name());
      ++Compared;
    }
  }
  EXPECT_GT(Compared, 0u);
}

TEST(LabelingThroughput, ScalesFrom1To4Threads) {
  std::vector<Benchmark> Corpus = buildCorpus(CorpusOptions{});

  // Best-of-three per thread count, alternating, damps scheduler noise
  // and load from concurrently running tests.
  std::string OneCsv, FourCsv;
  double One = timedSweep(Corpus, /*Threads=*/1, &OneCsv);
  double Four = timedSweep(Corpus, /*Threads=*/4, &FourCsv);
  for (int Round = 0; Round < 2; ++Round) {
    std::string Again;
    One = std::min(One, timedSweep(Corpus, 1, &Again));
    ASSERT_EQ(OneCsv, Again);
    Four = std::min(Four, timedSweep(Corpus, 4, &Again));
    ASSERT_EQ(FourCsv, Again);
  }
  ThreadPool::setGlobalThreads(ThreadPool::defaultThreadCount());

  // The contract half, in every build: identical datasets.
  EXPECT_EQ(OneCsv, FourCsv);
  // The throughput half. The floor is set for optimized code; an
  // unoptimized build (Debug, --coverage) distorts the timing, so there
  // it is only recorded.
  ASSERT_GT(Four, 0.0);
  unsigned Hardware = std::max(1u, std::thread::hardware_concurrency());
  double Efficiency = One / Four / std::min(4u, Hardware);
  RecordProperty("scaling_efficiency", std::to_string(Efficiency));
#ifdef __OPTIMIZE__
  EXPECT_GE(Efficiency, 0.6) << "1 thread " << One << "s vs 4 threads "
                             << Four << "s on " << Hardware
                             << " hardware threads";
#endif
}
