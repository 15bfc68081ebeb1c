//===- tests/symbolic_test.cpp - Stride-interval analysis tests -----------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// Golden stride-interval fixpoints for hand-traced loops, predicate-fact
// proofs, the disjointness prover (positive and refusal cases), the
// independence summary, and the canonical sim-equivalence form (including
// simulateLoop invariance at every factor).
//
//===----------------------------------------------------------------------===//

#include "analysis/symbolic/Canonical.h"
#include "analysis/symbolic/Disjointness.h"
#include "analysis/symbolic/StrideInterval.h"
#include "ir/LoopBuilder.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "machine/Machine.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

#include <limits>

using namespace metaopt;

namespace {

Loop parseOne(std::string_view Text) {
  ParseResult Parsed = parseLoops(Text, "symbolic_test.loop");
  EXPECT_TRUE(Parsed.succeeded()) << Parsed.Error;
  EXPECT_EQ(Parsed.Loops.size(), 1u);
  return Parsed.Loops.at(0);
}

/// Finds the register with printer name \p Name.
RegId regNamed(const Loop &L, std::string_view Name) {
  for (RegId Reg = 0; Reg < L.numRegs(); ++Reg)
    if (L.regName(Reg) == Name)
      return Reg;
  ADD_FAILURE() << "no register named " << Name;
  return NoReg;
}

/// Body index of the Nth memory op.
const AccessSummary &accessNo(const SymbolicAnalysis &SA, size_t N) {
  EXPECT_LT(N, SA.accesses().size());
  return SA.accesses()[N];
}

//===----------------------------------------------------------------------===//
// Golden fixpoints for hand-traced loops
//===----------------------------------------------------------------------===//

TEST(StrideInterval, LinearInductionResolvesToAffineForm) {
  // j starts at an opaque live-in and advances by 4 each iteration:
  // j(i) = j.init + 4*i. The address register scales it by 8.
  LoopBuilder B("ind", SourceLanguage::C, 1, 100);
  RegId J = B.phi(RegClass::Int, "j");
  RegId Four = B.iconst(4);
  RegId JNext = B.iadd(J, Four);
  B.setPhiRecur(J, JNext);
  RegId Eight = B.iconst(8);
  RegId Addr = B.imul(J, Eight);
  Loop L = B.finalize();
  ASSERT_TRUE(isWellFormed(L));

  SymbolicAnalysis SA(L);
  EXPECT_EQ(SA.describeValue(J), "%i_j.init + 4*i");
  EXPECT_EQ(SA.describeValue(JNext), "%i_j.init + 4 + 4*i");
  EXPECT_EQ(SA.describeValue(Four), "4");
  // Base-carrying values cannot be scaled: implicit coefficient is 1.
  EXPECT_EQ(SA.describeValue(Addr), "top");
}

TEST(StrideInterval, IvAddIsIterationPlusOneAndBounded) {
  LoopBuilder B("iv", SourceLanguage::C, 1, 64);
  RegId X = B.liveIn(RegClass::Float, "x");
  B.store(X, {/*BaseSym=*/0, /*Stride=*/8});
  Loop L = B.finalize();
  ASSERT_TRUE(isWellFormed(L));

  SymbolicAnalysis SA(L);
  RegId IvNext = regNamed(L, "iv.next");
  EXPECT_EQ(SA.describeValue(IvNext), "1 + 1*i");
  int64_t Lo = 0, Hi = 0;
  ASSERT_TRUE(SA.valueRange(IvNext, Lo, Hi));
  EXPECT_EQ(Lo, 1);
  EXPECT_EQ(Hi, 64);
  ASSERT_TRUE(SA.ivRange(Lo, Hi));
  EXPECT_EQ(Lo, 0);
  EXPECT_EQ(Hi, 63);
}

TEST(StrideInterval, ConstantFoldingFollowsInterpreterEdgeCases) {
  LoopBuilder B("fold", SourceLanguage::C, 1, 8);
  RegId A = B.iconst(42);
  RegId Zero = B.iconst(0);
  RegId Div = B.idiv(A, Zero); // x / 0 == 0 in the reference semantics.
  RegId Rem = B.irem(A, Zero); // x % 0 == x.
  RegId Prod = B.imul(A, A);
  RegId Sink = B.iadd(Div, Rem);
  RegId Sink2 = B.iadd(Prod, Sink);
  B.store(B.fcvt(Sink2), {/*BaseSym=*/0, /*Stride=*/8});
  Loop L = B.finalize();
  ASSERT_TRUE(isWellFormed(L));

  SymbolicAnalysis SA(L);
  EXPECT_EQ(SA.describeValue(Div), "0");
  EXPECT_EQ(SA.describeValue(Rem), "42");
  EXPECT_EQ(SA.describeValue(Prod), "1764");
  EXPECT_EQ(SA.describeValue(Sink2), "1806");
}

TEST(StrideInterval, UnknownTripKeepsAffineFormButRefusesRange) {
  LoopBuilder B("unk", SourceLanguage::C, 1, Loop::UnknownTripCount);
  RegId J = B.phi(RegClass::Int, "j");
  RegId One = B.iconst(1);
  B.setPhiRecur(J, B.iadd(J, One));
  B.store(B.fcvt(J), {/*BaseSym=*/0, /*Stride=*/8});
  Loop L = B.finalize();
  ASSERT_TRUE(isWellFormed(L));

  SymbolicAnalysis SA(L);
  EXPECT_EQ(SA.describeValue(J), "%i_j.init + 1*i");
  int64_t Lo, Hi;
  EXPECT_FALSE(SA.ivRange(Lo, Hi));
  RegId IvNext = regNamed(L, "iv.next");
  EXPECT_EQ(SA.describeValue(IvNext), "1 + 1*i");
  EXPECT_FALSE(SA.valueRange(IvNext, Lo, Hi));
}

TEST(StrideInterval, NonLinearRecurrenceWidensToTop) {
  // j(i+1) = 2 * j(i): geometric, not affine.
  LoopBuilder B("geo", SourceLanguage::C, 1, 16);
  RegId J = B.phi(RegClass::Int, "j");
  RegId Two = B.iconst(2);
  B.setPhiRecur(J, B.imul(J, Two));
  B.store(B.fcvt(J), {/*BaseSym=*/0, /*Stride=*/8});
  Loop L = B.finalize();
  ASSERT_TRUE(isWellFormed(L));

  SymbolicAnalysis SA(L);
  EXPECT_EQ(SA.describeValue(J), "top");
}

TEST(StrideInterval, MutualInductionsResolveTogether) {
  // Two counters advancing in lock-step through a shared increment.
  LoopBuilder B("pair", SourceLanguage::C, 1, 32);
  RegId A = B.phi(RegClass::Int, "a");
  RegId C = B.phi(RegClass::Int, "c");
  RegId Three = B.iconst(3);
  B.setPhiRecur(A, B.iadd(A, Three));
  B.setPhiRecur(C, B.isub(C, Three));
  RegId Diff = B.isub(A, A); // Cancels the base: constant 0.
  B.store(B.fcvt(Diff), {/*BaseSym=*/0, /*Stride=*/8});
  Loop L = B.finalize();
  ASSERT_TRUE(isWellFormed(L));

  SymbolicAnalysis SA(L);
  EXPECT_EQ(SA.describeValue(A), "%i_a.init + 3*i");
  EXPECT_EQ(SA.describeValue(C), "%i_c.init - 3*i");
  EXPECT_EQ(SA.describeValue(Diff), "0");
}

TEST(StrideInterval, PredicatedDefJoinsWithZeroDefault) {
  // Under an unknown guard, a predicated-off instruction writes the class
  // default, so the defined value is the join of {computed, 0}.
  Loop L = parseOne("loop \"pred\" lang=C nest=1 trip=8 rtrip=8 {\n"
                    "  %f_a = load @0[stride=8, offset=0, size=8]\n"
                    "  %p_g = fcmp %f_a, %f_b\n"
                    "  (%p_g) %i_x = iconst 7\n"
                    "  (%p_g) %i_z = iconst 0\n"
                    "  %f_c = fcvt %i_x\n"
                    "  store %f_c, @1[stride=8, offset=0, size=8]\n"
                    "  %i_iv.next = iv_add %i_iv\n"
                    "  %p_iv.cond = iv_cmp %i_iv.next\n"
                    "  back_br %p_iv.cond\n"
                    "}\n");
  ASSERT_TRUE(isWellFormed(L));
  SymbolicAnalysis SA(L);
  EXPECT_EQ(SA.describeValue(regNamed(L, "x")), "top"); // join(7, 0)
  EXPECT_EQ(SA.describeValue(regNamed(L, "z")), "0");   // join(0, 0)
}

TEST(StrideInterval, OverflowProneInductionIsFlaggedAndRefused) {
  LoopBuilder B("ovf", SourceLanguage::C, 1, 1000);
  RegId Big = B.iconst(std::numeric_limits<int64_t>::max() - 10);
  RegId IvLike = B.phi(RegClass::Int, "k");
  RegId One = B.iconst(1);
  B.setPhiRecur(IvLike, B.iadd(IvLike, One));
  B.store(B.fcvt(Big), {/*BaseSym=*/0, /*Stride=*/8});
  Loop L = B.finalize();
  ASSERT_TRUE(isWellFormed(L));

  // Wire the big constant into an iteration term: big + (1+i)*large.
  // Rebuild: simpler to parse a loop where iv.next is scaled hugely.
  Loop L2 = parseOne(
      "loop \"ovf2\" lang=C nest=1 trip=1000 rtrip=1000 {\n"
      "  %i_big = iconst 9223372036854775797\n"
      "  %i_sc = iconst 4611686018427387904\n"
      "  %i_j = iadd %i_big, %i_sc\n"
      "  %f_v = fcvt %i_j\n"
      "  store %f_v, @0[stride=8, offset=0, size=8]\n"
      "  %i_iv.next = iv_add %i_iv\n"
      "  %p_iv.cond = iv_cmp %i_iv.next\n"
      "  back_br %p_iv.cond\n"
      "}\n");
  ASSERT_TRUE(isWellFormed(L2));
  SymbolicAnalysis SA(L2);
  RegId J = regNamed(L2, "j");
  // The wrapped affine form is still exact mod 2^64...
  EXPECT_TRUE(SA.value(J).isAffine());
  // ...but the constant fold overflowed, so the value is overflow-prone
  // and gets no range.
  EXPECT_TRUE(SA.overflowProne(J));
  int64_t Lo, Hi;
  EXPECT_FALSE(SA.valueRange(J, Lo, Hi));
}

//===----------------------------------------------------------------------===//
// Predicate facts
//===----------------------------------------------------------------------===//

TEST(StrideInterval, SelfCompareIsAlwaysFalse) {
  Loop L = parseOne("loop \"selfcmp\" lang=C nest=1 trip=16 rtrip=16 {\n"
                    "  %f_a = load @0[stride=8, offset=0, size=8]\n"
                    "  %p_i = icmp %i_x, %i_x\n"
                    "  %p_f = fcmp %f_a, %f_a\n"
                    "  (%p_i) store %f_a, @1[stride=8, offset=0, size=8]\n"
                    "  (%p_f) store %f_a, @2[stride=8, offset=0, size=8]\n"
                    "  %i_iv.next = iv_add %i_iv\n"
                    "  %p_iv.cond = iv_cmp %i_iv.next\n"
                    "  back_br %p_iv.cond\n"
                    "}\n");
  ASSERT_TRUE(isWellFormed(L));
  SymbolicAnalysis SA(L);
  EXPECT_EQ(SA.predFact(regNamed(L, "i")), PredFact::AlwaysFalse);
  EXPECT_EQ(SA.predFact(regNamed(L, "f")), PredFact::AlwaysFalse);
  // Both guarded stores are provably dead.
  EXPECT_EQ(accessNo(SA, 1).Guard, PredFact::AlwaysFalse);
  EXPECT_EQ(accessNo(SA, 2).Guard, PredFact::AlwaysFalse);
}

TEST(StrideInterval, IterationBoundedCompareProvesBothDirections) {
  // Two counters share one init and advance by 3 and 1; their difference
  // cancels the base, leaving the pure iteration term 2*i in [0, 198]
  // (trip=100). Against constants: 2*i < 200 always, 2*i < 0 never.
  Loop L = parseOne("loop \"rangecmp\" lang=C nest=1 trip=100 rtrip=100 {\n"
                    "  phi %i_p = [%i_x, %i_pn]\n"
                    "  phi %i_q = [%i_x, %i_qn]\n"
                    "  %i_three = iconst 3\n"
                    "  %i_one = iconst 1\n"
                    "  %i_pn = iadd %i_p, %i_three\n"
                    "  %i_qn = iadd %i_q, %i_one\n"
                    "  %i_d = isub %i_p, %i_q\n"
                    "  %i_hi = iconst 200\n"
                    "  %i_lo = iconst 0\n"
                    "  %p_a = icmp %i_d, %i_hi\n"
                    "  %p_b = icmp %i_d, %i_lo\n"
                    "  %f_v = load @0[stride=8, offset=0, size=8]\n"
                    "  (%p_a) store %f_v, @1[stride=8, offset=0, size=8]\n"
                    "  (%p_b) store %f_v, @2[stride=8, offset=0, size=8]\n"
                    "  %i_iv.next = iv_add %i_iv\n"
                    "  %p_iv.cond = iv_cmp %i_iv.next\n"
                    "  back_br %p_iv.cond\n"
                    "}\n");
  ASSERT_TRUE(isWellFormed(L));
  SymbolicAnalysis SA(L);
  EXPECT_EQ(SA.describeValue(regNamed(L, "d")), "2*i");
  int64_t Lo = 0, Hi = 0;
  ASSERT_TRUE(SA.valueRange(regNamed(L, "d"), Lo, Hi));
  EXPECT_EQ(Lo, 0);
  EXPECT_EQ(Hi, 198);
  EXPECT_EQ(SA.predFact(regNamed(L, "a")), PredFact::AlwaysTrue);
  EXPECT_EQ(SA.predFact(regNamed(L, "b")), PredFact::AlwaysFalse);
}

TEST(StrideInterval, PredSetCombinesFactsWithAnd) {
  Loop L = parseOne("loop \"predset\" lang=C nest=1 trip=16 rtrip=16 {\n"
                    "  %p_dead = icmp %i_x, %i_x\n"
                    "  %p_c = predset %p_u, %p_dead\n"
                    "  %f_v = load @0[stride=8, offset=0, size=8]\n"
                    "  (%p_c) store %f_v, @1[stride=8, offset=0, size=8]\n"
                    "  %i_iv.next = iv_add %i_iv\n"
                    "  %p_iv.cond = iv_cmp %i_iv.next\n"
                    "  back_br %p_iv.cond\n"
                    "}\n");
  ASSERT_TRUE(isWellFormed(L));
  SymbolicAnalysis SA(L);
  // unknown AND always-false == always-false.
  EXPECT_EQ(SA.predFact(regNamed(L, "c")), PredFact::AlwaysFalse);
}

//===----------------------------------------------------------------------===//
// Access summaries and the disjointness prover
//===----------------------------------------------------------------------===//

TEST(Disjointness, AffineIndirectAccessResolvesToDirectForm) {
  // a[j] where j advances 8 bytes per iteration through a phi: the
  // indirect access folds into stride 8 with the phi init as base.
  LoopBuilder B("gather", SourceLanguage::C, 1, 64);
  RegId J = B.phi(RegClass::Int, "j");
  RegId Eight = B.iconst(8);
  B.setPhiRecur(J, B.iadd(J, Eight));
  RegId V = B.load(RegClass::Float,
                   {/*BaseSym=*/0, /*Stride=*/0, /*Offset=*/0,
                    /*Indirect=*/true},
                   J);
  B.store(V, {/*BaseSym=*/1, /*Stride=*/8});
  Loop L = B.finalize();
  ASSERT_TRUE(isWellFormed(L));

  SymbolicAnalysis SA(L);
  const AccessSummary &Gather = accessNo(SA, 0);
  EXPECT_TRUE(Gather.WasIndirect);
  ASSERT_TRUE(Gather.AddressKnown);
  EXPECT_EQ(Gather.Base, L.phis().at(0).Init);
  EXPECT_EQ(Gather.Stride, 8);
  EXPECT_EQ(Gather.Offset, 0);
}

TEST(Disjointness, SameSymbolGapAndStrideProofs) {
  // Store walks @0 at stride 16 writing offset 0; load reads offset 8:
  // same-iteration disjoint (gap 8 >= size? no: 8 >= 8 yes), and the
  // cross-iteration lag-1 delta of -8 also clears -size.
  LoopBuilder B("gap", SourceLanguage::C, 1, 128);
  RegId V = B.load(RegClass::Float,
                   {/*BaseSym=*/0, /*Stride=*/16, /*Offset=*/8});
  B.store(V, {/*BaseSym=*/0, /*Stride=*/16, /*Offset=*/0});
  Loop L = B.finalize();
  ASSERT_TRUE(isWellFormed(L));

  SymbolicAnalysis SA(L);
  const AccessSummary &Ld = accessNo(SA, 0);
  const AccessSummary &St = accessNo(SA, 1);
  // Same iteration: byte ranges [8,16) vs [0,8).
  EXPECT_TRUE(provesDisjoint(SA, Ld, St, 0));
  // Store at i+1 writes 16 bytes later: [16, 24) vs load's [8, 16).
  EXPECT_TRUE(provesDisjoint(SA, Ld, St, 1));
  // Load at i+1 reads [24, 32) vs store's [0, 8).
  EXPECT_TRUE(provesDisjoint(SA, St, Ld, 1));

  // An 8-byte-apart pair at stride 8 is NOT disjoint across one
  // iteration: store at i+1 hits exactly the load's slot.
  LoopBuilder B2("carried", SourceLanguage::C, 1, 128);
  RegId V2 = B2.load(RegClass::Float,
                     {/*BaseSym=*/0, /*Stride=*/8, /*Offset=*/8});
  B2.store(V2, {/*BaseSym=*/0, /*Stride=*/8, /*Offset=*/0});
  Loop L2 = B2.finalize();
  SymbolicAnalysis SA2(L2);
  EXPECT_TRUE(provesDisjoint(SA2, accessNo(SA2, 0), accessNo(SA2, 1), 0));
  // Load at [8i+8, 8i+16) vs store at i+1 writing [8(i+1), 8(i+1)+8):
  // the exact same bytes, so the proof must be refused.
  EXPECT_FALSE(provesDisjoint(SA2, accessNo(SA2, 0), accessNo(SA2, 1), 1));
}

TEST(Disjointness, DifferentStridesUseIterationBounds) {
  // Load at stride 0 offset 4096; store walks stride 8 from 0 over 100
  // iterations: max store byte is 8*99+8 = 800 <= 4096, provably
  // disjoint at every lag — but only because the trip is known.
  LoopBuilder B("bounded", SourceLanguage::C, 1, 100);
  RegId V = B.load(RegClass::Float,
                   {/*BaseSym=*/0, /*Stride=*/0, /*Offset=*/4096});
  B.store(V, {/*BaseSym=*/0, /*Stride=*/8, /*Offset=*/0});
  Loop L = B.finalize();
  ASSERT_TRUE(isWellFormed(L));
  SymbolicAnalysis SA(L);
  EXPECT_TRUE(provesDisjoint(SA, accessNo(SA, 0), accessNo(SA, 1), 0));
  EXPECT_TRUE(provesDisjoint(SA, accessNo(SA, 0), accessNo(SA, 1), 7));

  LoopBuilder B2("unbounded", SourceLanguage::C, 1, Loop::UnknownTripCount);
  RegId V2 = B2.load(RegClass::Float,
                     {/*BaseSym=*/0, /*Stride=*/0, /*Offset=*/4096});
  B2.store(V2, {/*BaseSym=*/0, /*Stride=*/8, /*Offset=*/0});
  Loop L2 = B2.finalize();
  SymbolicAnalysis SA2(L2);
  // Unknown trip: the walking store eventually reaches 4096.
  EXPECT_FALSE(provesDisjoint(SA2, accessNo(SA2, 0), accessNo(SA2, 1), 0));
}

TEST(Disjointness, IndependenceSummaryOnDaxpyShape) {
  // y[i] = a*x[i] + y[i]: the only same-symbol pair is load/store of @1
  // at identical addresses — lag 0 is a real dependence (not disjoint),
  // but every cross-iteration lag is provably clean, so all eight
  // unrolled copies are mutually independent.
  LoopBuilder B("daxpy", SourceLanguage::C, 1, 256);
  RegId A = B.liveIn(RegClass::Float, "alpha");
  RegId X = B.load(RegClass::Float, {/*BaseSym=*/0, /*Stride=*/8});
  RegId Y = B.load(RegClass::Float, {/*BaseSym=*/1, /*Stride=*/8});
  RegId R = B.fma(A, X, Y);
  B.store(R, {/*BaseSym=*/1, /*Stride=*/8});
  Loop L = B.finalize();
  ASSERT_TRUE(isWellFormed(L));

  SymbolicAnalysis SA(L);
  IndependenceSummary Sum = summarizeIndependence(SA);
  EXPECT_EQ(Sum.ProvenFactor, MaxUnrollFactor);
  EXPECT_EQ(Sum.MinDependenceLag, MaxUnrollFactor + 1);
  EXPECT_EQ(Sum.DisjointFraction, 1.0);
  EXPECT_GT(Sum.RelevantChecks, 0u);

  // A recurrence through memory (stride 8, store 8 bytes behind the
  // load) caps the proven factor at 1 and the dependence lag at 1.
  LoopBuilder B2("rec", SourceLanguage::C, 1, 256);
  RegId V2 = B2.load(RegClass::Float,
                     {/*BaseSym=*/0, /*Stride=*/8, /*Offset=*/8});
  B2.store(V2, {/*BaseSym=*/0, /*Stride=*/8, /*Offset=*/0});
  Loop L2 = B2.finalize();
  SymbolicAnalysis SA2(L2);
  IndependenceSummary Sum2 = summarizeIndependence(SA2);
  EXPECT_EQ(Sum2.ProvenFactor, 1u);
  EXPECT_EQ(Sum2.MinDependenceLag, 1u);
  EXPECT_LT(Sum2.DisjointFraction, 1.0);
}

TEST(Disjointness, DeadGuardMakesAccessVacuouslyDisjoint) {
  Loop L = parseOne("loop \"deadstore\" lang=C nest=1 trip=64 rtrip=64 {\n"
                    "  %p_dead = icmp %i_x, %i_x\n"
                    "  %f_v = load @0[stride=8, offset=0, size=8]\n"
                    "  (%p_dead) store %f_v, @0[stride=8, offset=0, size=8]\n"
                    "  %i_iv.next = iv_add %i_iv\n"
                    "  %p_iv.cond = iv_cmp %i_iv.next\n"
                    "  back_br %p_iv.cond\n"
                    "}\n");
  ASSERT_TRUE(isWellFormed(L));
  SymbolicAnalysis SA(L);
  // The store aliases the load exactly, but it never executes.
  EXPECT_TRUE(provesDisjoint(SA, accessNo(SA, 0), accessNo(SA, 1), 0));
  EXPECT_EQ(summarizeIndependence(SA).ProvenFactor, MaxUnrollFactor);
}

//===----------------------------------------------------------------------===//
// Claims
//===----------------------------------------------------------------------===//

TEST(StrideInterval, ClaimsAreEmittedAndDescribable) {
  LoopBuilder B("claims", SourceLanguage::C, 1, 32);
  RegId V = B.load(RegClass::Float,
                   {/*BaseSym=*/0, /*Stride=*/16, /*Offset=*/8});
  B.store(V, {/*BaseSym=*/0, /*Stride=*/16, /*Offset=*/0});
  Loop L = B.finalize();
  SymbolicAnalysis SA(L);
  std::vector<StaticClaim> Claims = SA.claims();
  ASSERT_FALSE(Claims.empty());
  bool SawDisjoint = false, SawRange = false;
  for (const StaticClaim &C : Claims) {
    EXPECT_FALSE(describeClaim(C, L).empty());
    SawDisjoint |= C.K == StaticClaim::Kind::Disjoint;
    SawRange |= C.K == StaticClaim::Kind::RangeBound;
  }
  EXPECT_TRUE(SawDisjoint);
  EXPECT_TRUE(SawRange); // iv.next gets [1, 32].
}

TEST(StrideInterval, ZeroTripLoopEmitsNoClaims) {
  LoopBuilder B("zero", SourceLanguage::C, 1, 0);
  RegId V = B.load(RegClass::Float, {/*BaseSym=*/0, /*Stride=*/8});
  B.store(V, {/*BaseSym=*/0, /*Stride=*/8});
  Loop L = B.finalize();
  SymbolicAnalysis SA(L);
  EXPECT_TRUE(SA.claims().empty());
}

//===----------------------------------------------------------------------===//
// Canonical sim form
//===----------------------------------------------------------------------===//

/// Builds the same daxpy structure with configurable surface details.
Loop surfaceVariant(const std::string &Name, SourceLanguage Lang, int Nest,
                    int32_t SymA, int32_t SymB, const std::string &Prefix) {
  LoopBuilder B(Name, Lang, Nest, 256);
  RegId A = B.liveIn(RegClass::Float, Prefix + "alpha");
  RegId X = B.load(RegClass::Float, {SymA, /*Stride=*/8});
  RegId Y = B.load(RegClass::Float, {SymB, /*Stride=*/8});
  RegId R = B.fma(A, X, Y);
  B.store(R, {SymB, /*Stride=*/8});
  return B.finalize();
}

/// The structure key the body-stats cache uses for \p L.
Fingerprint structureKey(const Loop &L) {
  FingerprintHasher H;
  hashCanonicalSimStructure(H, L);
  return H.digest();
}

TEST(Canonical, SurfaceDetailsCanonicalizeAway) {
  Loop A = surfaceVariant("first", SourceLanguage::C, 1, 0, 1, "p");
  Loop B = surfaceVariant("second", SourceLanguage::Fortran, 3, 7, 2, "q");
  EXPECT_EQ(printLoop(canonicalSimForm(A)), printLoop(canonicalSimForm(B)));

  // A structural difference (stride) must NOT collide.
  LoopBuilder C("third", SourceLanguage::C, 1, 256);
  RegId Alpha = C.liveIn(RegClass::Float, "alpha");
  RegId X = C.load(RegClass::Float, {0, /*Stride=*/16});
  RegId Y = C.load(RegClass::Float, {1, /*Stride=*/8});
  C.store(C.fma(Alpha, X, Y), {1, /*Stride=*/8});
  EXPECT_NE(printLoop(canonicalSimForm(A)),
            printLoop(canonicalSimForm(C.finalize())));

  // Different trip metadata must not collide either.
  Loop D = surfaceVariant("fourth", SourceLanguage::C, 1, 0, 1, "p");
  D.setTripCount(128);
  EXPECT_NE(printLoop(canonicalSimForm(A)), printLoop(canonicalSimForm(D)));
}

TEST(Canonical, SimKeyCollidesForHandBuiltEquivalentLoops) {
  // The body-stats cache keys bodies by hashCanonicalSimStructure, not by
  // the printed canonical text, so the hash itself must collide for loops
  // that differ only in simulation-irrelevant surface detail.
  Loop A = surfaceVariant("first", SourceLanguage::C, 1, 0, 1, "p");
  Loop B = surfaceVariant("second", SourceLanguage::Fortran, 3, 7, 2, "q");
  EXPECT_EQ(structureKey(A), structureKey(B));

  // A structural difference must keep distinct keys: a changed stride.
  LoopBuilder C("third", SourceLanguage::C, 1, 256);
  RegId Alpha = C.liveIn(RegClass::Float, "alpha");
  RegId X = C.load(RegClass::Float, {0, /*Stride=*/16});
  RegId Y = C.load(RegClass::Float, {1, /*Stride=*/8});
  C.store(C.fma(Alpha, X, Y), {1, /*Stride=*/8});
  EXPECT_NE(structureKey(A), structureKey(C.finalize()));

  // A changed trip count collides by design: the key is taken after
  // unrolling and memory optimization, and nothing downstream of the
  // memory optimizer reads trip counts.
  Loop D = surfaceVariant("fourth", SourceLanguage::C, 1, 0, 1, "p");
  D.setTripCount(128);
  EXPECT_EQ(structureKey(A), structureKey(D));
}

TEST(Canonical, SimulatorIsInvariantUnderCanonicalization) {
  Loop A = surfaceVariant("orig", SourceLanguage::Fortran90, 2, 5, 3, "v");
  Loop Canon = canonicalSimForm(A);
  ASSERT_TRUE(isWellFormed(Canon));
  MachineModel Machine(itanium2Config());
  SimContext Ctx;
  for (unsigned Factor = 1; Factor <= MaxUnrollFactor; ++Factor) {
    for (bool Swp : {false, true}) {
      SimResult RA = simulateLoop(A, Factor, Machine, Ctx, Swp);
      SimResult RB = simulateLoop(Canon, Factor, Machine, Ctx, Swp);
      EXPECT_TRUE(RA == RB) << "factor " << Factor << " swp " << Swp;
    }
  }
}

} // namespace
