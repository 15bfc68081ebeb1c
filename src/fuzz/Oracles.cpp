//===- fuzz/Oracles.cpp ---------------------------------------------------===//

#include "fuzz/Oracles.h"

#include "analysis/DependenceGraph.h"
#include "analysis/symbolic/Canonical.h"
#include "analysis/symbolic/StrideInterval.h"
#include "cache/SimCache.h"
#include "core/features/FeatureExtractor.h"
#include "core/ml/Dataset.h"
#include "core/ml/Forest.h"
#include "core/ml/Mlp.h"
#include "core/ml/NearNeighbor.h"
#include "exec/Interpreter.h"
#include "import/Export.h"
#include "import/Import.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "machine/Machine.h"
#include "sched/IterativeModulo.h"
#include "sched/ListScheduler.h"
#include "sched/ModuloScheduler.h"
#include "sched/ScheduleValidate.h"
#include "serve/ModelBundle.h"
#include "sim/SimCompile.h"
#include "sim/Simulator.h"
#include "support/Rng.h"
#include "transform/MemoryOpt.h"
#include "transform/Unroller.h"

#include <algorithm>
#include <cmath>
#include <memory>

using namespace metaopt;

namespace {

void fail(std::vector<OracleFailure> &Out, const char *Oracle,
          std::string Detail) {
  Out.push_back({Oracle, std::move(Detail)});
}

std::string describeValue(RegClass RC, const ExecValue &V) {
  switch (RC) {
  case RegClass::Int:
    return std::to_string(V.I);
  case RegClass::Float:
    return std::to_string(V.F);
  case RegClass::Pred:
    return V.P ? "true" : "false";
  }
  return "?";
}

int64_t wrapAdd64(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}

int64_t wrapMul64(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}

/// Body instruction defining \p Reg, or nullptr.
const Instruction *definingInstr(const Loop &L, RegId Reg) {
  for (const Instruction &Instr : L.body())
    if (Instr.Dest == Reg)
      return &Instr;
  return nullptr;
}

bool hasExit(const Loop &L) {
  for (const Instruction &Instr : L.body())
    if (Instr.Op == Opcode::ExitIf)
      return true;
  return false;
}

bool hasCall(const Loop &L) {
  for (const Instruction &Instr : L.body())
    if (Instr.isCall())
      return true;
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// round-trip
//===----------------------------------------------------------------------===//

void metaopt::oracleRoundTrip(const Loop &L, std::vector<OracleFailure> &Out) {
  std::string First = printLoop(L);
  ParseResult Parsed = parseLoops(First, L.sourceFile());
  if (!Parsed.Error.empty()) {
    fail(Out, "round-trip", "printLoop output rejected by parser: " +
                                Parsed.Error);
    return;
  }
  if (Parsed.Loops.size() != 1) {
    fail(Out, "round-trip",
         "printLoop output parsed into " +
             std::to_string(Parsed.Loops.size()) + " loops");
    return;
  }
  if (!isWellFormed(Parsed.Loops[0])) {
    fail(Out, "round-trip", "reparsed loop is not verifier-clean");
    return;
  }
  std::string Second = printLoop(Parsed.Loops[0]);
  if (First != Second)
    fail(Out, "round-trip",
         "print -> parse -> print changed the text (" +
             std::to_string(First.size()) + " vs " +
             std::to_string(Second.size()) + " bytes)");
}

//===----------------------------------------------------------------------===//
// import-round-trip
//===----------------------------------------------------------------------===//

void metaopt::oracleImportRoundTrip(const Loop &L,
                                    std::vector<OracleFailure> &Out) {
  std::string Exported = exportLoop(L);
  ImportResult Imported = importLoops(Exported, L.sourceFile());
  if (!Imported.succeeded()) {
    std::string Detail = "exportLoop output rejected by importer";
    if (!Imported.Report.diagnostics().empty())
      Detail += ": " + Imported.Report.diagnostics().front().Message;
    fail(Out, "import-round-trip", Detail);
    return;
  }
  if (Imported.Loops.size() != 1) {
    fail(Out, "import-round-trip",
         "exportLoop output imported as " +
             std::to_string(Imported.Loops.size()) + " loops");
    return;
  }
  std::string First = printLoop(L);
  std::string Second = printLoop(Imported.Loops[0].TheLoop);
  if (First != Second)
    fail(Out, "import-round-trip",
         "export -> import -> print changed the text (" +
             std::to_string(First.size()) + " vs " +
             std::to_string(Second.size()) + " bytes)");
}

//===----------------------------------------------------------------------===//
// unroll-equivalence
//===----------------------------------------------------------------------===//

void metaopt::oracleUnrollEquivalence(const Loop &L, uint64_t Seed,
                                      std::vector<OracleFailure> &Out) {
  const int64_t N = L.runtimeTripCount();
  if (N < 0)
    return; // No concrete execution to compare against.
  const size_t BodyNoCtl = L.body().size() >= 3 ? L.body().size() - 3 : 0;

  // Composition (main unrolled run + original-body epilogue vs one
  // straight run) is bit-exact only when reassociation cannot change
  // values: integer reductions whose accumulation is unconditional, in a
  // loop with no early exit.
  bool CompositionOk = !hasExit(L);
  for (const PhiNode &Phi : L.phis()) {
    if (!isSplittableReduction(L, Phi))
      continue;
    const Instruction *Acc = definingInstr(L, Phi.Recur);
    if (!Acc || L.regClass(Phi.Dest) != RegClass::Int ||
        Acc->Pred != NoReg) {
      CompositionOk = false;
      break;
    }
  }

  ExecResult Straight; // interp(L, N); computed lazily for composition.
  bool HaveStraight = false;

  for (unsigned U = 1; U <= MaxUnrollFactor; ++U) {
    Loop Unrolled = unrollLoop(L, U);
    std::vector<std::string> Errors = verifyLoop(Unrolled);
    if (!Errors.empty()) {
      fail(Out, "unroll-equivalence",
           "unrollLoop(U=" + std::to_string(U) +
               ") produced malformed IR: " + Errors.front());
      continue;
    }

    const int64_t M = N / U;
    const int64_t E = N % U;

    // Serial reference over the main portion, with split reductions
    // carried as U lanes so per-copy accumulators compare bit-for-bit.
    ExecOptions BaseOpts;
    BaseOpts.Seed = Seed;
    BaseOpts.Iterations = M * U;
    BaseOpts.SplitLanes = U;
    ExecResult Base = interpretLoop(L, BaseOpts);

    // The unrolled loop runs M iterations; split copies beyond the first
    // start from the reduction identity (their fresh ".k" live-ins).
    ExecOptions TargetOpts;
    TargetOpts.Seed = Seed;
    TargetOpts.Iterations = M;
    size_t Off = 0;
    std::vector<size_t> PhiOffset(L.phis().size(), 0);
    std::vector<bool> PhiSplit(L.phis().size(), false);
    for (size_t P = 0; P < L.phis().size(); ++P) {
      PhiOffset[P] = Off;
      bool Split = U > 1 && isSplittableReduction(L, L.phis()[P]);
      PhiSplit[P] = Split;
      if (Split) {
        ExecValue Identity;
        if (!reductionIdentity(L, L.phis()[P], Identity)) {
          fail(Out, "unroll-equivalence",
               "phi #" + std::to_string(P) +
                   " is splittable but has no reduction identity");
          Split = false;
          PhiSplit[P] = false;
          Off += 1;
          continue;
        }
        for (unsigned K = 1; K < U; ++K)
          TargetOpts.LiveInOverrides[Unrolled.phis()[Off + K].Init] =
              Identity;
        Off += U;
      } else {
        Off += 1;
      }
    }
    if (Off != Unrolled.phis().size()) {
      fail(Out, "unroll-equivalence",
           "U=" + std::to_string(U) + ": expected " + std::to_string(Off) +
               " unrolled phis, found " +
               std::to_string(Unrolled.phis().size()));
      continue;
    }
    ExecResult Target = interpretLoop(Unrolled, TargetOpts);

    auto Tag = [&](const std::string &What) {
      return "U=" + std::to_string(U) + ": " + What;
    };

    if (Base.Exited != Target.Exited) {
      fail(Out, "unroll-equivalence",
           Tag("exit divergence: reference ") +
               (Base.Exited ? "exited" : "ran to completion") +
               ", unrolled " + (Target.Exited ? "exited" : "completed"));
      continue;
    }
    if (!(Base.Memory == Target.Memory)) {
      fail(Out, "unroll-equivalence", Tag("stored memory differs"));
      continue;
    }
    if (Base.Exited) {
      // Reference exit at original iteration n, body index b maps to
      // unrolled iteration n/U at body index (n%U)*|body| + b.
      int64_t WantIter = Base.ExitIteration / U;
      int64_t WantBody =
          (Base.ExitIteration % U) * static_cast<int64_t>(BodyNoCtl) +
          Base.ExitBodyIndex;
      if (Target.ExitIteration != WantIter ||
          Target.ExitBodyIndex != WantBody)
        fail(Out, "unroll-equivalence",
             Tag("exit mapped to iteration " +
                 std::to_string(Target.ExitIteration) + " body index " +
                 std::to_string(Target.ExitBodyIndex) + ", expected " +
                 std::to_string(WantIter) + "/" +
                 std::to_string(WantBody)));
      continue; // Post-exit phi values are stale by design; stop here.
    }

    bool PhiMismatch = false;
    for (size_t P = 0; P < L.phis().size() && !PhiMismatch; ++P) {
      RegClass RC = L.regClass(L.phis()[P].Dest);
      if (!PhiSplit[P]) {
        if (!execValueEquals(RC, Base.PhiFinal[P],
                             Target.PhiFinal[PhiOffset[P]])) {
          fail(Out, "unroll-equivalence",
               Tag("phi #" + std::to_string(P) + " (" +
                   L.regName(L.phis()[P].Dest) + "): reference " +
                   describeValue(RC, Base.PhiFinal[P]) + ", unrolled " +
                   describeValue(RC, Target.PhiFinal[PhiOffset[P]])));
          PhiMismatch = true;
        }
        continue;
      }
      for (unsigned K = 0; K < U && !PhiMismatch; ++K) {
        if (!execValueEquals(RC, Base.SplitLanes[P][K],
                             Target.PhiFinal[PhiOffset[P] + K])) {
          fail(Out, "unroll-equivalence",
               Tag("split phi #" + std::to_string(P) + " lane " +
                   std::to_string(K) + ": reference " +
                   describeValue(RC, Base.SplitLanes[P][K]) +
                   ", unrolled copy " +
                   describeValue(RC,
                                 Target.PhiFinal[PhiOffset[P] + K])));
          PhiMismatch = true;
        }
      }
    }
    if (PhiMismatch)
      continue;

    // Full composition: M unrolled iterations, fold the split
    // accumulators, run the E-iteration epilogue on the original body,
    // and compare against one straight N-iteration run.
    if (!CompositionOk || U == 1)
      continue;
    if (!HaveStraight) {
      ExecOptions SOpts;
      SOpts.Seed = Seed;
      SOpts.Iterations = N;
      Straight = interpretLoop(L, SOpts);
      HaveStraight = true;
    }
    ExecOptions EpiOpts;
    EpiOpts.Seed = Seed;
    EpiOpts.Iterations = E;
    EpiOpts.StartIteration = M * U;
    for (size_t P = 0; P < L.phis().size(); ++P) {
      ExecValue Start = Target.PhiFinal[PhiOffset[P]];
      if (PhiSplit[P]) {
        const Instruction *Acc = definingInstr(L, L.phis()[P].Recur);
        for (unsigned K = 1; K < U; ++K) {
          int64_t Lane = Target.PhiFinal[PhiOffset[P] + K].I;
          Start.I = Acc->Op == Opcode::IMul ? wrapMul64(Start.I, Lane)
                                            : wrapAdd64(Start.I, Lane);
        }
      }
      EpiOpts.LiveInOverrides[L.phis()[P].Init] = Start;
    }
    ExecResult Epilogue =
        interpretLoop(L, EpiOpts, std::move(Target.Memory));
    if (!(Straight.Memory == Epilogue.Memory)) {
      fail(Out, "unroll-equivalence",
           Tag("composition: epilogue memory differs from straight run"));
      continue;
    }
    for (size_t P = 0; P < L.phis().size(); ++P) {
      RegClass RC = L.regClass(L.phis()[P].Dest);
      if (!execValueEquals(RC, Straight.PhiFinal[P],
                           Epilogue.PhiFinal[P])) {
        fail(Out, "unroll-equivalence",
             Tag("composition: phi #" + std::to_string(P) + " (" +
                 L.regName(L.phis()[P].Dest) + "): straight " +
                 describeValue(RC, Straight.PhiFinal[P]) +
                 ", main+epilogue " +
                 describeValue(RC, Epilogue.PhiFinal[P])));
        break;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// memory-opt
//===----------------------------------------------------------------------===//

void metaopt::oracleMemoryOpt(const Loop &L, uint64_t Seed,
                              std::vector<OracleFailure> &Out) {
  Loop Optimized = L;
  // Run the symbolically-refined path: any unsound guard promotion or
  // disjointness proof the pass acts on shows up as a state divergence.
  SymbolicAnalysis Symbolic(Optimized);
  optimizeMemory(Optimized, &Symbolic);
  std::vector<std::string> Errors = verifyLoop(Optimized);
  if (!Errors.empty()) {
    fail(Out, "memory-opt",
         "optimizeMemory produced malformed IR: " + Errors.front());
    return;
  }
  if (L.runtimeTripCount() < 0)
    return;

  ExecOptions Opts;
  Opts.Seed = Seed;
  Opts.Iterations = L.runtimeTripCount();
  ExecResult Before = interpretLoop(L, Opts);
  ExecResult After = interpretLoop(Optimized, Opts);

  if (Before.Exited != After.Exited ||
      Before.ExitIteration != After.ExitIteration) {
    fail(Out, "memory-opt",
         "exit divergence: original " +
             (Before.Exited
                  ? "exited at " + std::to_string(Before.ExitIteration)
                  : std::string("completed")) +
             ", optimized " +
             (After.Exited
                  ? "exited at " + std::to_string(After.ExitIteration)
                  : std::string("completed")));
    return;
  }
  if (!(Before.Memory == After.Memory)) {
    fail(Out, "memory-opt", "stored memory differs after optimizeMemory");
    return;
  }
  if (Before.Exited)
    return; // Phi values at an exit are stale by design.
  for (size_t P = 0; P < L.phis().size(); ++P) {
    RegClass RC = L.regClass(L.phis()[P].Dest);
    if (!execValueEquals(RC, Before.PhiFinal[P], After.PhiFinal[P])) {
      fail(Out, "memory-opt",
           "phi #" + std::to_string(P) + " (" +
               L.regName(L.phis()[P].Dest) + "): original " +
               describeValue(RC, Before.PhiFinal[P]) + ", optimized " +
               describeValue(RC, After.PhiFinal[P]));
      return;
    }
  }
}

//===----------------------------------------------------------------------===//
// list-schedule / modulo-schedule
//===----------------------------------------------------------------------===//

namespace {

void checkSchedulesOn(const Loop &L, const MachineModel &Machine,
                      std::vector<OracleFailure> &Out) {
  DependenceGraph DG(L);
  Schedule Sched = listSchedule(L, DG, Machine);
  for (const std::string &Error :
       validateListSchedule(L, DG, Machine, Sched))
    fail(Out, "list-schedule", Machine.name() + ": " + Error);

  if (hasExit(L) || hasCall(L))
    return; // IMS rejects these; nothing to validate.
  ModuloScheduleResult Ims = iterativeModuloSchedule(L, DG, Machine);
  if (!Ims.Succeeded)
    return; // Giving up is allowed; a wrong schedule is not.
  for (const std::string &Error :
       validateModuloSchedule(L, DG, Machine, Ims))
    fail(Out, "modulo-schedule", Machine.name() + ": " + Error);
  int ResMii = static_cast<int>(
      std::ceil(resourceMIIForLoop(L, Machine) - 1e-9));
  if (Ims.II < ResMii)
    fail(Out, "modulo-schedule",
         Machine.name() + ": II " + std::to_string(Ims.II) +
             " below resource lower bound " + std::to_string(ResMii));
}

} // namespace

void metaopt::oracleSchedulers(const Loop &L,
                               std::vector<OracleFailure> &Out) {
  static const MachineModel Itanium2{itanium2Config()};
  static const MachineModel AltVliw{altVliwConfig()};
  checkSchedulesOn(L, Itanium2, Out);
  checkSchedulesOn(L, AltVliw, Out);
  // Unrolled bodies stress resource overflow and the folded-control
  // paths; one mid-range factor keeps the oracle cheap.
  checkSchedulesOn(unrollLoop(L, 4), Itanium2, Out);
}

//===----------------------------------------------------------------------===//
// sim-cache
//===----------------------------------------------------------------------===//

void metaopt::oracleSimCache(const Loop &L, std::vector<OracleFailure> &Out) {
  static const MachineModel Itanium2{itanium2Config()};
  SimContext Ctx;

  std::string Text = printLoop(L);
  ParseResult Parsed = parseLoops(Text, L.sourceFile());
  const Loop *Reparsed = nullptr;
  if (Parsed.Error.empty() && Parsed.Loops.size() == 1)
    Reparsed = &Parsed.Loops[0]; // round-trip oracle reports the failure.

  SimCache Cache;
  for (unsigned Factor : {1u, 4u}) {
    for (bool EnableSwp : {false, true}) {
      SimKey Key = simCacheKey(L, Factor, Itanium2, Ctx, EnableSwp);
      if (Reparsed) {
        SimKey Again = simCacheKey(*Reparsed, Factor, Itanium2, Ctx,
                                   EnableSwp);
        if (!(Key == Again))
          fail(Out, "sim-cache",
               "key unstable under reparse (factor " +
                   std::to_string(Factor) +
                   (EnableSwp ? ", swp)" : ", no swp)"));
      }
      SimResult Fresh = simulateLoop(L, Factor, Itanium2, Ctx, EnableSwp);
      SimResult Miss = Cache.simulate(L, Factor, Itanium2, Ctx, EnableSwp);
      SimResult Hit = Cache.simulate(L, Factor, Itanium2, Ctx, EnableSwp);
      if (!(Miss == Fresh) || !(Hit == Fresh))
        fail(Out, "sim-cache",
             "cached result differs from fresh simulateLoop (factor " +
                 std::to_string(Factor) +
                 (EnableSwp ? ", swp)" : ", no swp)"));
    }
  }
  SimCacheStats Stats = Cache.stats();
  if (Stats.Hits < 4 || Stats.Misses != 4)
    fail(Out, "sim-cache",
         "unexpected hit/miss pattern: " + std::to_string(Stats.Hits) +
             " hits, " + std::to_string(Stats.Misses) + " misses");

  // The compiled labeling path runs the same compile step and cost model
  // once per plan (one shared epilogue); it must agree with simulateLoop.
  for (bool EnableSwp : {false, true}) {
    LoopSimPlan Plan = compileLoopSim(L, Itanium2, Ctx, EnableSwp);
    for (unsigned Factor = 1; Factor <= MaxUnrollFactor; ++Factor)
      if (!(evaluatePlan(Plan, Factor, Itanium2, Ctx) ==
            simulateLoop(L, Factor, Itanium2, Ctx, EnableSwp)))
        fail(Out, "sim-cache",
             "compiled plan differs from simulateLoop (factor " +
                 std::to_string(Factor) +
                 (EnableSwp ? ", swp)" : ", no swp)"));
  }
}

//===----------------------------------------------------------------------===//
// bundle
//===----------------------------------------------------------------------===//

namespace {

/// One trained model per zoo family (NN, MLP, random forest), each
/// serialized through the bundle container and restored — built once per
/// process, shared by every loop. Every family must survive the
/// round-trip bit-exactly, so a new classifier added to the registry
/// gets fuzz coverage by being listed here.
struct BundleFixture {
  struct Family {
    std::string Name;
    std::unique_ptr<Classifier> Original;
    std::unique_ptr<Classifier> Restored;
  };
  std::vector<Family> Families;
  std::string Error;

  BundleFixture() {
    FeatureSet Features = {static_cast<FeatureId>(0),
                           static_cast<FeatureId>(1),
                           static_cast<FeatureId>(2)};
    Dataset Train;
    Rng R(0xb17b0d1eULL);
    for (unsigned I = 0; I < 64; ++I) {
      Example Ex;
      Ex.Label = 1 + I % MaxUnrollFactor;
      for (unsigned F = 0; F < 3; ++F)
        Ex.Features[F] =
            static_cast<double>(Ex.Label) * 2.0 + R.nextGaussian(0.0, 0.4);
      Ex.LoopName = "fuzz_train_" + std::to_string(I);
      Ex.BenchmarkName = "fuzz";
      Train.add(Ex);
    }
    std::vector<std::unique_ptr<Classifier>> Models;
    Models.push_back(std::make_unique<NearNeighborClassifier>(Features));
    Models.push_back(std::make_unique<MlpClassifier>(Features));
    Models.push_back(std::make_unique<RandomForestClassifier>(Features));
    for (std::unique_ptr<Classifier> &Model : Models) {
      Model->train(Train);

      ModelBundle Bundle;
      Bundle.Provenance.ClassifierName = Model->name();
      Bundle.Provenance.CreatedBy = "metaopt-fuzz";
      Bundle.Provenance.MachineName = "itanium2";
      Bundle.Provenance.TrainingExamples = Train.size();
      Bundle.Provenance.CvMethod = "none";
      Bundle.Features = Features;
      Bundle.ClassifierBlob = Model->serialize();

      std::string Text = serializeBundle(Bundle);
      std::string ParseError;
      auto Back = parseBundle(Text, &ParseError);
      if (!Back) {
        Error = Model->name() +
                ": serializeBundle output rejected: " + ParseError;
        return;
      }
      Family F;
      F.Name = Model->name();
      F.Restored = Back->instantiate();
      if (!F.Restored) {
        Error = F.Name + ": round-tripped bundle failed to instantiate";
        return;
      }
      F.Original = std::move(Model);
      Families.push_back(std::move(F));
    }
  }
};

/// Trains a random forest on the global pool, so it must not first be
/// built inside a pool task (see prepareOracles).
const BundleFixture &bundleFixture() {
  static const BundleFixture Fixture;
  return Fixture;
}

} // namespace

void metaopt::prepareOracles(const OracleOptions &Options) {
  if (Options.CheckBundle)
    bundleFixture();
}

void metaopt::oracleBundle(const Loop &L, std::vector<OracleFailure> &Out) {
  const BundleFixture &Fixture = bundleFixture();
  if (!Fixture.Error.empty()) {
    fail(Out, "bundle", Fixture.Error);
    return;
  }
  FeatureVector Features = extractFeatures(L);
  for (const BundleFixture::Family &Fam : Fixture.Families) {
    unsigned Want = Fam.Original->predict(Features);
    unsigned Got = Fam.Restored->predict(Features);
    if (Want != Got) {
      fail(Out, "bundle",
           Fam.Name + ": round-tripped classifier predicts " +
               std::to_string(Got) + ", original predicts " +
               std::to_string(Want));
      return;
    }
    auto WantScores = Fam.Original->scores(Features);
    auto GotScores = Fam.Restored->scores(Features);
    for (unsigned F = 0; F < MaxUnrollFactor; ++F)
      if (WantScores[F] != GotScores[F]) {
        fail(Out, "bundle",
             Fam.Name + ": score for factor " + std::to_string(F + 1) +
                 " differs after round-trip");
        return;
      }
  }
}

//===----------------------------------------------------------------------===//
// static-claims
//===----------------------------------------------------------------------===//

namespace {

/// Observations of one body instruction in one iteration.
struct ClaimObs {
  int8_t Guard = -1;    ///< -1 never stepped, 0 predicated off, 1 on.
  bool Accessed = false; ///< Memory op that executed; Addr is valid.
  bool HasInt = false;   ///< Integer destination; Int is valid.
  int64_t Addr = 0;
  int64_t Int = 0;
};

} // namespace

void metaopt::checkClaimsAgainstExecution(
    const Loop &L, const std::vector<StaticClaim> &Claims, uint64_t Seed,
    std::vector<OracleFailure> &Out) {
  if (Claims.empty())
    return;

  // A known trip count runs in full (capped so a pathological declared
  // trip cannot stall the campaign); claims over an unknown trip hold for
  // every i >= 0, so a fixed-length probe is a valid refutation attempt.
  int64_t Trip = L.runtimeTripCount();
  int64_t Iters = Trip >= 0 ? std::min<int64_t>(Trip, 4096) : 64;
  if (Iters <= 0)
    return; // Every per-iteration claim is vacuous.

  ExecTrace Trace;
  ExecOptions Opts;
  Opts.Seed = Seed;
  Opts.Iterations = Iters;
  Opts.Trace = &Trace;
  interpretLoop(L, Opts);

  const size_t BodySize = L.body().size();
  std::vector<std::vector<ClaimObs>> Table(
      BodySize, std::vector<ClaimObs>(static_cast<size_t>(Iters)));
  for (const ExecTraceStep &S : Trace.Steps) {
    if (S.BodyIndex >= BodySize || S.Iteration < 0 || S.Iteration >= Iters)
      continue;
    ClaimObs &O = Table[S.BodyIndex][static_cast<size_t>(S.Iteration)];
    O.Guard = S.GuardOn ? 1 : 0;
    O.Accessed = S.IsMemory;
    O.Addr = S.Address;
    O.HasInt = S.HasIntDest;
    O.Int = S.IntDest;
  }

  auto Refute = [&](const StaticClaim &C, const std::string &Detail) {
    fail(Out, "static-claims", describeClaim(C, L) + " refuted: " + Detail);
  };

  for (const StaticClaim &C : Claims) {
    switch (C.K) {
    case StaticClaim::Kind::GuardAlwaysTrue:
    case StaticClaim::Kind::GuardAlwaysFalse: {
      if (C.A >= BodySize) {
        Refute(C, "body index out of range");
        break;
      }
      bool WantOn = C.K == StaticClaim::Kind::GuardAlwaysTrue;
      for (int64_t I = 0; I < Iters; ++I) {
        const ClaimObs &O = Table[C.A][static_cast<size_t>(I)];
        if (O.Guard < 0)
          continue; // Iteration cut short before this instruction.
        if ((O.Guard == 1) != WantOn) {
          Refute(C, std::string("guard was ") +
                        (O.Guard == 1 ? "on" : "off") + " at iteration " +
                        std::to_string(I));
          break;
        }
      }
      break;
    }
    case StaticClaim::Kind::RangeBound: {
      // Claimed registers are body-defined (the analysis never claims
      // live-ins, and phi values always carry their init as a symbolic
      // base); check the value every defining instruction left behind.
      bool Defined = false, Done = false;
      for (uint32_t B = 0; B < BodySize && !Done; ++B) {
        const Instruction &Def = L.body()[B];
        if (!Def.hasDest() || Def.Dest != C.Reg)
          continue;
        Defined = true;
        for (int64_t I = 0; I < Iters && !Done; ++I) {
          const ClaimObs &O = Table[B][static_cast<size_t>(I)];
          if (!O.HasInt)
            continue;
          if (O.Int < C.Lo || O.Int > C.Hi) {
            Refute(C, "value " + std::to_string(O.Int) + " at iteration " +
                          std::to_string(I));
            Done = true;
          }
        }
      }
      if (!Defined)
        Refute(C, "register is never defined in the body");
      break;
    }
    case StaticClaim::Kind::Disjoint: {
      if (C.A >= BodySize || C.B >= BodySize) {
        Refute(C, "body index out of range");
        break;
      }
      const Instruction &IA = L.body()[C.A];
      const Instruction &IB = L.body()[C.B];
      if (!IA.isMemory() || !IB.isMemory()) {
        Refute(C, "claim names a non-memory instruction");
        break;
      }
      if (IA.Mem.BaseSym != IB.Mem.BaseSym)
        break; // Distinct base symbols are distinct address spaces.
      int64_t SizeA = IA.Mem.SizeBytes, SizeB = IB.Mem.SizeBytes;
      for (int64_t I = 0; I + static_cast<int64_t>(C.Lag) < Iters; ++I) {
        const ClaimObs &OA = Table[C.A][static_cast<size_t>(I)];
        const ClaimObs &OB =
            Table[C.B][static_cast<size_t>(I + static_cast<int64_t>(C.Lag))];
        if (!OA.Accessed || !OB.Accessed)
          continue; // A predicated-off access touches nothing.
        if (OA.Addr < OB.Addr + SizeB && OB.Addr < OA.Addr + SizeA) {
          Refute(C, "bytes [" + std::to_string(OA.Addr) + ", " +
                        std::to_string(OA.Addr + SizeA) + ") and [" +
                        std::to_string(OB.Addr) + ", " +
                        std::to_string(OB.Addr + SizeB) +
                        ") overlap at iterations " + std::to_string(I) +
                        " and " + std::to_string(I + C.Lag));
          break;
        }
      }
      break;
    }
    }
  }
}

void metaopt::oracleStaticClaims(const Loop &L, uint64_t Seed,
                                 std::vector<OracleFailure> &Out) {
  SymbolicAnalysis Symbolic(L);
  checkClaimsAgainstExecution(L, Symbolic.claims(), Seed, Out);

  // The body-stats key's certificate (analysis/symbolic/Canonical.h,
  // sim/SimCompile.h): bodies that hash to one canonical structure share
  // their schedule and liveness, so the canonical simulation form must
  // receive the original loop's exact SimResult. Two plain factors plus
  // one SWP probe keep the oracle cheap while still crossing every
  // normalized dimension.
  static const MachineModel Itanium2{itanium2Config()};
  SimContext Ctx;
  Loop Canon = canonicalSimForm(L);
  if (!isWellFormed(Canon)) {
    fail(Out, "static-claims", "canonicalSimForm produced malformed IR");
    return;
  }
  struct Probe {
    unsigned Factor;
    bool EnableSwp;
  };
  const Probe Probes[] = {{1, false}, {MaxUnrollFactor, false}, {3, true}};
  for (const Probe &P : Probes) {
    SimResult Want = simulateLoop(L, P.Factor, Itanium2, Ctx, P.EnableSwp);
    SimResult Got =
        simulateLoop(Canon, P.Factor, Itanium2, Ctx, P.EnableSwp);
    if (!(Want == Got))
      fail(Out, "static-claims",
           "canonical form diverges from the original in the simulator "
           "(factor " +
               std::to_string(P.Factor) +
               (P.EnableSwp ? ", swp)" : ", no swp)"));
  }
}

//===----------------------------------------------------------------------===//
// driver
//===----------------------------------------------------------------------===//

std::vector<OracleFailure>
metaopt::runOracles(const Loop &L, const OracleOptions &Options) {
  std::vector<OracleFailure> Out;
  std::vector<std::string> Errors = verifyLoop(L);
  if (!Errors.empty()) {
    fail(Out, "well-formed", "input loop malformed: " + Errors.front());
    return Out;
  }
  if (Options.CheckRoundTrip)
    oracleRoundTrip(L, Out);
  if (Options.CheckImportRoundTrip)
    oracleImportRoundTrip(L, Out);
  if (Options.CheckUnroll)
    oracleUnrollEquivalence(L, Options.Seed, Out);
  if (Options.CheckMemoryOpt)
    oracleMemoryOpt(L, Options.Seed, Out);
  if (Options.CheckSchedulers)
    oracleSchedulers(L, Out);
  if (Options.CheckSimCache)
    oracleSimCache(L, Out);
  if (Options.CheckBundle)
    oracleBundle(L, Out);
  if (Options.CheckStaticClaims)
    oracleStaticClaims(L, Options.Seed, Out);
  return Out;
}
