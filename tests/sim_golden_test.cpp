//===- tests/sim_golden_test.cpp - Pinned simulateLoop outputs ------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// Golden SimResult digests for simulateLoop, pinned from the simulator
// as it stood before its cost model was folded into one implementation
// shared with the compiled labeling path (sim/SimCompile.h). The labels
// of every dataset are argmins over these numbers, so any drift in the
// cost model, the schedulers, liveness, unrolling or the memory
// optimizer lands here first, naming the first (input, loop, factor,
// swp) that moved.
//
// Inputs: the quick corpus (6-10 loops per benchmark, each loop under
// its own SimContext), every tests/fuzz_seeds/*.loop reproducer (default
// SimContext), and the committed corpus/imported kernels (their own
// SimContext), each at factors 1..8 with SWP off and on, on the Itanium 2
// model.
//
// Data: tests/golden/sim_results.txt, one line per loop:
//   <input> TAB <loop> TAB <8 digests, swp off> TAB <8 digests, swp on>
// Each digest is the low 32 bits of a Fingerprint over every SimResult
// field (doubles by bit pattern). Regenerate only when a change is meant
// to move simulator output, and say so in the change description:
//   METAOPT_REGEN_SIM_GOLDENS=1 ./build/tests/sim_golden_test
//
//===----------------------------------------------------------------------===//

#include "corpus/BenchmarkSuite.h"
#include "import/ImportedCorpus.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "machine/Machine.h"
#include "sim/Simulator.h"
#include "support/Fingerprint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#if !defined(METAOPT_FUZZ_SEED_DIR) ||                                         \
    !defined(METAOPT_IMPORTED_CORPUS_DIR) || !defined(METAOPT_SIM_GOLDEN_FILE)
#error "sim_golden_test needs the fuzz seed, imported corpus and golden paths"
#endif

using namespace metaopt;

namespace {

struct GoldenInput {
  std::string Input;
  const Loop *TheLoop;
  SimContext Ctx;
};

std::string resultDigest(const SimResult &R) {
  FingerprintHasher H;
  H.f64(R.Cycles);
  H.f64(R.CyclesPerIteration);
  H.boolean(R.UsedSwp);
  H.i64(R.II);
  H.u64(R.SpillPairs);
  H.u64(R.ScheduleLength);
  H.i64(R.CodeBytes);
  char Buffer[16];
  std::snprintf(Buffer, sizeof(Buffer), "%08x",
                static_cast<unsigned>(H.digest().Lo & 0xffffffffu));
  return Buffer;
}

std::string describe(const SimResult &R) {
  std::ostringstream Out;
  Out.precision(17);
  Out << "cycles=" << R.Cycles << " cpi=" << R.CyclesPerIteration
      << " swp=" << R.UsedSwp << " ii=" << R.II
      << " spills=" << R.SpillPairs << " len=" << R.ScheduleLength
      << " bytes=" << R.CodeBytes;
  return Out.str();
}

std::vector<std::string> split(const std::string &Line, char Sep) {
  std::vector<std::string> Fields;
  std::string Field;
  std::istringstream In(Line);
  while (std::getline(In, Field, Sep))
    Fields.push_back(Field);
  return Fields;
}

} // namespace

TEST(SimGolden, SimulateLoopMatchesPinnedDigests) {
  namespace fs = std::filesystem;
  MachineModel Machine(itanium2Config());
  std::vector<GoldenInput> Inputs;

  CorpusOptions Quick;
  Quick.MinLoopsPerBenchmark = 6;
  Quick.MaxLoopsPerBenchmark = 10;
  std::vector<Benchmark> Corpus = buildCorpus(Quick);
  for (const Benchmark &Bench : Corpus)
    for (const CorpusLoop &Entry : Bench.Loops)
      Inputs.push_back({"quick/" + Bench.Name, &Entry.TheLoop, Entry.Ctx});

  std::vector<fs::path> SeedFiles;
  for (const fs::directory_entry &Entry :
       fs::directory_iterator(METAOPT_FUZZ_SEED_DIR))
    if (Entry.path().extension() == ".loop")
      SeedFiles.push_back(Entry.path());
  std::sort(SeedFiles.begin(), SeedFiles.end());
  std::vector<ParseResult> Seeds;
  Seeds.reserve(SeedFiles.size());
  for (const fs::path &Path : SeedFiles) {
    std::ifstream In(Path);
    std::ostringstream Text;
    Text << In.rdbuf();
    Seeds.push_back(parseLoops(Text.str(), Path.filename().string()));
    ASSERT_TRUE(Seeds.back().succeeded())
        << Path << ": " << Seeds.back().Error;
    for (const Loop &L : Seeds.back().Loops)
      if (isWellFormed(L) && L.runtimeTripCount() >= 0)
        Inputs.push_back(
            {"fuzz_seeds/" + Path.filename().string(), &L, SimContext()});
  }

  ImportedCorpus Imported = loadImportedCorpus(METAOPT_IMPORTED_CORPUS_DIR);
  ASSERT_TRUE(Imported.succeeded()) << Imported.Report.renderText();
  Benchmark ImportedBench = toBenchmark(Imported);
  ASSERT_EQ(ImportedBench.Loops.size(), 31u);
  for (const CorpusLoop &Entry : ImportedBench.Loops)
    Inputs.push_back({"imported", &Entry.TheLoop, Entry.Ctx});

  // Fresh digest lines, in input order.
  std::vector<std::string> Lines;
  for (const GoldenInput &In : Inputs) {
    std::string Line = In.Input + "\t" + In.TheLoop->name();
    for (bool Swp : {false, true}) {
      Line += "\t";
      for (unsigned Factor = 1; Factor <= MaxUnrollFactor; ++Factor)
        Line += (Factor > 1 ? " " : "") +
                resultDigest(simulateLoop(*In.TheLoop, Factor, Machine,
                                          In.Ctx, Swp));
    }
    Lines.push_back(Line);
  }

  if (std::getenv("METAOPT_REGEN_SIM_GOLDENS")) {
    std::ofstream Out(METAOPT_SIM_GOLDEN_FILE, std::ios::binary);
    ASSERT_TRUE(Out) << METAOPT_SIM_GOLDEN_FILE;
    Out << "# simulateLoop digests; see tests/sim_golden_test.cpp\n";
    for (const std::string &Line : Lines)
      Out << Line << "\n";
    GTEST_SKIP() << "regenerated " << Lines.size() << " lines";
  }

  std::ifstream In(METAOPT_SIM_GOLDEN_FILE);
  ASSERT_TRUE(In) << METAOPT_SIM_GOLDEN_FILE;
  std::vector<std::string> Golden;
  for (std::string Line; std::getline(In, Line);)
    if (!Line.empty() && Line[0] != '#')
      Golden.push_back(Line);
  for (size_t I = 0; I < std::min(Golden.size(), Lines.size()); ++I) {
    if (Golden[I] == Lines[I])
      continue;
    std::vector<std::string> Want = split(Golden[I], '\t');
    std::vector<std::string> Got = split(Lines[I], '\t');
    ASSERT_EQ(Want.size(), 4u) << "malformed golden line " << I + 1;
    ASSERT_EQ(Want[0] + "/" + Want[1], Got[0] + "/" + Got[1])
        << "golden line " << I + 1 << " names a different input";
    for (unsigned Swp = 0; Swp < 2; ++Swp) {
      std::vector<std::string> WantD = split(Want[2 + Swp], ' ');
      std::vector<std::string> GotD = split(Got[2 + Swp], ' ');
      for (unsigned F = 0; F < MaxUnrollFactor; ++F)
        ASSERT_EQ(WantD.at(F), GotD.at(F))
            << "first mismatch: input " << Got[0] << ", loop " << Got[1]
            << ", factor " << F + 1 << ", swp " << (Swp ? "on" : "off")
            << "; now "
            << describe(simulateLoop(*Inputs[I].TheLoop, F + 1, Machine,
                                     Inputs[I].Ctx, Swp != 0));
    }
  }
  ASSERT_EQ(Golden.size(), Lines.size())
      << "golden loop count differs from the inputs";
}
