//===- tests/sim_golden_test.cpp - Pinned simulator and kernel outputs ----===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// Two goldens over the same inputs. The labels of every dataset are
// argmins over simulator output, so any drift in the cost model, the
// list scheduler, liveness, unrolling or the memory optimizer lands here
// first, naming the first (input, loop, ...) that moved.
//
//  * SimGolden.SimulateLoopMatchesPinnedDigests: simulateLoop's SimResult
//    at factors 1..8 with SWP off and on, pinned from the simulator as it
//    stood before its cost model was folded into one implementation.
//    Data: tests/golden/sim_results.txt, one line per loop:
//      <input> TAB <loop> TAB <8 digests, swp off> TAB <8 digests, swp on>
//
//  * SimGolden.KernelsMatchPinnedDigests: listSchedule and
//    analyzeLiveness over every body the simulator schedules (the
//    memory-optimized original, i.e. the epilogue body, and the
//    memory-optimized unroll at factors 1..8), pinned from the reference
//    kernels as they stood before the arena copies of the compiled
//    labeling path were folded into them. Each digest covers the
//    schedule's CycleOf, Order and Length plus all seven LivenessInfo
//    fields under body order and under the schedule's order.
//    Data: tests/golden/kernel_results.txt, one line per loop:
//      <input> TAB <loop> TAB <original> <u=1> ... <u=8>
//
// Inputs: the quick corpus (6-10 loops per benchmark, each loop under
// its own SimContext), every tests/fuzz_seeds/*.loop reproducer (default
// SimContext), and the committed corpus/imported kernels (their own
// SimContext), on the Itanium 2 model.
//
// Each digest is the low 32 bits of a Fingerprint (doubles by bit
// pattern). Each file's header records the SimModelVersion
// (sim/Simulator.h) it was pinned under. Regenerate only when a change is
// meant to move simulator output, bump SimModelVersion in the same
// change (it keys the persistent SimCache), and say so in the change
// description:
//   METAOPT_REGEN_SIM_GOLDENS=1 ./build/tests/sim_golden_test
// Regeneration refuses to rewrite digests that moved under an unchanged
// version.
//
//===----------------------------------------------------------------------===//

#include "analysis/DependenceGraph.h"
#include "analysis/Liveness.h"
#include "analysis/symbolic/StrideInterval.h"
#include "corpus/BenchmarkSuite.h"
#include "import/ImportedCorpus.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "machine/Machine.h"
#include "sched/ListScheduler.h"
#include "sim/Simulator.h"
#include "support/Fingerprint.h"
#include "transform/MemoryOpt.h"
#include "transform/Unroller.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

#if !defined(METAOPT_FUZZ_SEED_DIR) ||                                         \
    !defined(METAOPT_IMPORTED_CORPUS_DIR) ||                                   \
    !defined(METAOPT_SIM_GOLDEN_FILE) || !defined(METAOPT_KERNEL_GOLDEN_FILE)
#error "sim_golden_test needs the fuzz seed, imported corpus and golden paths"
#endif

using namespace metaopt;

namespace {

struct GoldenInput {
  std::string Input;
  const Loop *TheLoop;
  SimContext Ctx;
};

/// The golden inputs, loaded once; Error is non-empty when loading failed.
struct GoldenCorpus {
  std::vector<Benchmark> Quick;
  std::vector<ParseResult> Seeds;
  Benchmark Imported;
  std::vector<GoldenInput> Inputs;
  std::string Error;
};

const GoldenCorpus &goldenCorpus() {
  static const GoldenCorpus Corpus = [] {
    namespace fs = std::filesystem;
    GoldenCorpus C;
    CorpusOptions Quick;
    Quick.MinLoopsPerBenchmark = 6;
    Quick.MaxLoopsPerBenchmark = 10;
    C.Quick = buildCorpus(Quick);

    std::vector<fs::path> SeedFiles;
    for (const fs::directory_entry &Entry :
         fs::directory_iterator(METAOPT_FUZZ_SEED_DIR))
      if (Entry.path().extension() == ".loop")
        SeedFiles.push_back(Entry.path());
    std::sort(SeedFiles.begin(), SeedFiles.end());
    C.Seeds.reserve(SeedFiles.size());
    for (const fs::path &Path : SeedFiles) {
      std::ifstream In(Path);
      std::ostringstream Text;
      Text << In.rdbuf();
      C.Seeds.push_back(parseLoops(Text.str(), Path.filename().string()));
      if (!C.Seeds.back().succeeded()) {
        C.Error = Path.string() + ": " + C.Seeds.back().Error;
        return C;
      }
    }

    ImportedCorpus Imported = loadImportedCorpus(METAOPT_IMPORTED_CORPUS_DIR);
    if (!Imported.succeeded()) {
      C.Error = Imported.Report.renderText();
      return C;
    }
    C.Imported = toBenchmark(Imported);
    if (C.Imported.Loops.size() != 31u) {
      C.Error = "expected 31 imported kernels, got " +
                std::to_string(C.Imported.Loops.size());
      return C;
    }

    for (const Benchmark &Bench : C.Quick)
      for (const CorpusLoop &Entry : Bench.Loops)
        C.Inputs.push_back({"quick/" + Bench.Name, &Entry.TheLoop, Entry.Ctx});
    for (size_t I = 0; I < C.Seeds.size(); ++I)
      for (const Loop &L : C.Seeds[I].Loops)
        if (isWellFormed(L) && L.runtimeTripCount() >= 0)
          C.Inputs.push_back({"fuzz_seeds/" + SeedFiles[I].filename().string(),
                              &L, SimContext()});
    for (const CorpusLoop &Entry : C.Imported.Loops)
      C.Inputs.push_back({"imported", &Entry.TheLoop, Entry.Ctx});
    return C;
  }();
  return Corpus;
}

std::string hex32(const FingerprintHasher &H) {
  char Buffer[16];
  std::snprintf(Buffer, sizeof(Buffer), "%08x",
                static_cast<unsigned>(H.digest().Lo & 0xffffffffu));
  return Buffer;
}

std::string resultDigest(const SimResult &R) {
  FingerprintHasher H;
  H.f64(R.Cycles);
  H.f64(R.CyclesPerIteration);
  H.boolean(R.UsedSwp);
  H.i64(R.II);
  H.u64(R.SpillPairs);
  H.u64(R.ScheduleLength);
  H.i64(R.CodeBytes);
  return hex32(H);
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

/// The body the simulator schedules for \p L at \p Factor (0 = the
/// epilogue body: the original, memory-optimized, never unrolled).
Loop kernelBody(const Loop &L, unsigned Factor) {
  Loop Body = Factor == 0 ? L : unrollLoop(L, Factor);
  SymbolicAnalysis Symbolic(Body);
  optimizeMemory(Body, &Symbolic);
  return Body;
}

struct KernelOutput {
  Schedule Sched;
  LivenessInfo BodyOrder;
  LivenessInfo SchedOrder;
};

KernelOutput runKernels(const Loop &Body, const MachineModel &Machine) {
  DependenceGraph DG(Body);
  KernelOutput Out;
  Out.Sched = listSchedule(Body, DG, Machine);
  Out.BodyOrder = analyzeLiveness(Body);
  Out.SchedOrder = analyzeLiveness(Body, Out.Sched.Order);
  return Out;
}

void hashLiveness(FingerprintHasher &H, const LivenessInfo &Info) {
  H.u64(Info.MaxLiveInt);
  H.u64(Info.MaxLiveFloat);
  H.u64(Info.MaxLivePred);
  H.u64(Info.MaxLiveTotal);
  H.f64(Info.AvgLiveTotal);
  H.u64(Info.NumLiveIn);
  H.u64(Info.NumAcrossBack);
}

std::string kernelDigest(const KernelOutput &K) {
  FingerprintHasher H;
  H.u64(K.Sched.Length);
  H.u64(K.Sched.CycleOf.size());
  for (uint32_t Cycle : K.Sched.CycleOf)
    H.u64(Cycle);
  H.u64(K.Sched.Order.size());
  for (uint32_t Node : K.Sched.Order)
    H.u64(Node);
  hashLiveness(H, K.BodyOrder);
  hashLiveness(H, K.SchedOrder);
  return hex32(H);
}

std::string describe(const LivenessInfo &Info) {
  std::ostringstream Out;
  Out.precision(17);
  Out << "{int=" << Info.MaxLiveInt << " float=" << Info.MaxLiveFloat
      << " pred=" << Info.MaxLivePred << " total=" << Info.MaxLiveTotal
      << " avg=" << Info.AvgLiveTotal << " livein=" << Info.NumLiveIn
      << " across=" << Info.NumAcrossBack << "}";
  return Out.str();
}

std::string describe(const KernelOutput &K) {
  std::ostringstream Out;
  Out << "len=" << K.Sched.Length << " cycles=[";
  for (size_t I = 0; I < K.Sched.CycleOf.size(); ++I)
    Out << (I ? " " : "") << K.Sched.CycleOf[I];
  Out << "] live(body)=" << describe(K.BodyOrder)
      << " live(sched)=" << describe(K.SchedOrder);
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

/// Names a digest position for failure output: (input index, digest
/// group after the two name fields, digest within the group).
using DescribeFn =
    std::function<std::string(size_t Input, size_t Group, size_t Digest)>;

/// Regenerates or checks one golden file. \p Lines are the fresh digest
/// lines in input order; \p Groups is the digest-group count per line.
void checkGolden(const std::string &Path, const std::string &Title,
                 const std::vector<std::string> &Lines, size_t Groups,
                 const DescribeFn &Describe) {
  std::string VersionLine =
      "# sim-model-version " + std::to_string(SimModelVersion);
  std::ifstream In(Path);
  bool Found = In.is_open();
  std::vector<std::string> Golden;
  std::string PinnedVersion;
  for (std::string Line; std::getline(In, Line);) {
    if (Line.rfind("# sim-model-version ", 0) == 0)
      PinnedVersion = Line;
    else if (!Line.empty() && Line[0] != '#')
      Golden.push_back(Line);
  }

  if (std::getenv("METAOPT_REGEN_SIM_GOLDENS")) {
    // A digest that moves is a simulator-model change: persisted SimCache
    // files from before it must be rejected, which only a version bump
    // does.
    ASSERT_FALSE(PinnedVersion == VersionLine && Golden != Lines)
        << Path << ": digests moved under unchanged sim-model version "
        << SimModelVersion
        << "; bump SimModelVersion (sim/Simulator.h) before regenerating";
    std::ofstream Out(Path, std::ios::binary);
    ASSERT_TRUE(Out) << Path;
    Out << "# " << Title << "; see tests/sim_golden_test.cpp\n"
        << VersionLine << "\n";
    for (const std::string &Line : Lines)
      Out << Line << "\n";
    GTEST_SKIP() << "regenerated " << Lines.size() << " lines of " << Path;
  }

  ASSERT_TRUE(Found) << Path;
  ASSERT_EQ(PinnedVersion, VersionLine)
      << Path << " was pinned under another sim-model version; regenerate "
      << "it (METAOPT_REGEN_SIM_GOLDENS=1) together with the change that "
      << "bumped SimModelVersion";
  for (size_t I = 0; I < std::min(Golden.size(), Lines.size()); ++I) {
    if (Golden[I] == Lines[I])
      continue;
    std::vector<std::string> Want = split(Golden[I], '\t');
    std::vector<std::string> Got = split(Lines[I], '\t');
    ASSERT_EQ(Want.size(), 2 + Groups) << "malformed golden line " << I + 1;
    ASSERT_EQ(Want[0] + "/" + Want[1], Got[0] + "/" + Got[1])
        << "golden line " << I + 1 << " names a different input";
    for (size_t G = 0; G < Groups; ++G) {
      std::vector<std::string> WantD = split(Want[2 + G], ' ');
      std::vector<std::string> GotD = split(Got[2 + G], ' ');
      for (size_t D = 0; D < GotD.size(); ++D)
        ASSERT_EQ(WantD.at(D), GotD.at(D))
            << "first mismatch: input " << Got[0] << ", loop " << Got[1]
            << ", " << Describe(I, G, D);
    }
  }
  ASSERT_EQ(Golden.size(), Lines.size())
      << "golden loop count differs from the inputs";
}

} // namespace

TEST(SimGolden, SimulateLoopMatchesPinnedDigests) {
  const GoldenCorpus &Corpus = goldenCorpus();
  ASSERT_TRUE(Corpus.Error.empty()) << Corpus.Error;
  MachineModel Machine(itanium2Config());

  std::vector<std::string> Lines;
  for (const GoldenInput &In : Corpus.Inputs) {
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

  checkGolden(METAOPT_SIM_GOLDEN_FILE, "simulateLoop digests", Lines, 2,
              [&](size_t I, size_t Swp, size_t F) {
                const GoldenInput &In = Corpus.Inputs[I];
                return "factor " + std::to_string(F + 1) + ", swp " +
                       (Swp ? "on" : "off") + "; now " +
                       describe(simulateLoop(*In.TheLoop,
                                             static_cast<unsigned>(F + 1),
                                             Machine, In.Ctx, Swp != 0));
              });
}

TEST(SimGolden, KernelsMatchPinnedDigests) {
  const GoldenCorpus &Corpus = goldenCorpus();
  ASSERT_TRUE(Corpus.Error.empty()) << Corpus.Error;
  MachineModel Machine(itanium2Config());

  std::vector<std::string> Lines;
  for (const GoldenInput &In : Corpus.Inputs) {
    std::string Line = In.Input + "\t" + In.TheLoop->name() + "\t";
    for (unsigned Factor = 0; Factor <= MaxUnrollFactor; ++Factor)
      Line += (Factor > 0 ? " " : "") +
              kernelDigest(
                  runKernels(kernelBody(*In.TheLoop, Factor), Machine));
    Lines.push_back(Line);
  }

  checkGolden(METAOPT_KERNEL_GOLDEN_FILE,
              "listSchedule + analyzeLiveness digests", Lines, 1,
              [&](size_t I, size_t, size_t Factor) {
                unsigned U = static_cast<unsigned>(Factor);
                return (U == 0 ? std::string("original body")
                               : "unroll factor " + std::to_string(U)) +
                       "; now " +
                       describe(runKernels(
                           kernelBody(*Corpus.Inputs[I].TheLoop, U),
                           Machine));
              });
}
