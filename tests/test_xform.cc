/**
 * @file
 * Tests for the control-flow melder (src/xform): the alignment cost
 * model, per-diamond legality verdicts over builder-authored kernels,
 * functional exactness of the transform (builder kernels and registry
 * workloads under both execution backends), the verifier's
 * complementary-predication refinement the melded code relies on, and
 * the run-harness / cache-key wiring of RunRequest::meld.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "func/memory.hh"
#include "isa/builder.hh"
#include "lint/verifier.hh"
#include "run/run.hh"
#include "step_digest.hh"
#include "workloads/registry.hh"
#include "xform/align.hh"
#include "xform/diff.hh"
#include "xform/meld.hh"

namespace
{

using namespace iwc;
using isa::CondMod;
using isa::DataType;
using isa::Instruction;
using isa::Kernel;
using isa::KernelBuilder;
using isa::Opcode;
using isa::PredCtrl;
using xform::AlignKind;
using xform::Alignment;
using xform::MeldOptions;
using xform::MeldReport;
using xform::MeldResult;
using xform::MeldVerdict;

Instruction
addF16(unsigned dst, unsigned src, float imm)
{
    Instruction in;
    in.op = Opcode::Add;
    in.simdWidth = 16;
    in.dst = isa::grfOperand(static_cast<std::uint8_t>(dst), DataType::F);
    in.src0 = isa::grfOperand(static_cast<std::uint8_t>(src), DataType::F);
    in.src1 = isa::immF(imm);
    return in;
}

// --- Alignment cost model ---------------------------------------------

TEST(XformAlign, InstrCyclesScaleWithWidthAndElementSize)
{
    // simd16 x 4B = 64 B over the 16 B/cycle datapath.
    EXPECT_EQ(xform::instrCycles(addF16(20, 20, 1.0f)), 4u);
    Instruction narrow = addF16(20, 20, 1.0f);
    narrow.simdWidth = 8;
    EXPECT_EQ(xform::instrCycles(narrow), 2u);
    narrow.simdWidth = 1;
    EXPECT_EQ(xform::instrCycles(narrow), 1u);
}

TEST(XformAlign, IdenticalArmsFullyMatch)
{
    std::vector<Instruction> instrs;
    for (unsigned arm = 0; arm < 2; ++arm) {
        instrs.push_back(addF16(20, 20, 1.0f));
        instrs.push_back(addF16(22, 22, 2.0f));
        instrs.push_back(addF16(24, 24, 3.0f));
    }
    const Alignment a = xform::alignArms(instrs.data(), 0, 3, 3, 6);
    EXPECT_EQ(a.matches, 3u);
    EXPECT_EQ(a.score, 12u); // three simd16 float ops, 4 cycles each
    ASSERT_EQ(a.ops.size(), 3u);
    for (const xform::AlignOp &op : a.ops)
        EXPECT_EQ(op.kind, AlignKind::Match);
}

TEST(XformAlign, DisjointArmsNeverMatch)
{
    std::vector<Instruction> instrs{addF16(20, 20, 1.0f),
                                    addF16(22, 22, 2.0f)};
    const Alignment a = xform::alignArms(instrs.data(), 0, 1, 1, 2);
    EXPECT_EQ(a.matches, 0u);
    EXPECT_EQ(a.score, 0u);
    EXPECT_EQ(a.ops.size(), 2u); // one ThenOnly + one ElseOnly
}

TEST(XformAlign, CycleWeightPrefersWiderMatch)
{
    // then = [A16, B1], else = [B1, A16]: the monotone alignment can
    // keep only one of the two common instructions, and the cycle
    // weight must pick the simd16 one (4 cycles) over simd1 (1).
    Instruction a16 = addF16(20, 20, 1.0f);
    Instruction b1 = addF16(22, 22, 2.0f);
    b1.simdWidth = 1;
    const std::vector<Instruction> instrs{a16, b1, b1, a16};
    const Alignment a = xform::alignArms(instrs.data(), 0, 2, 2, 4);
    EXPECT_EQ(a.matches, 1u);
    EXPECT_EQ(a.score, 4u);
    bool matched_a16 = false;
    for (const xform::AlignOp &op : a.ops)
        if (op.kind == AlignKind::Match)
            matched_a16 = op.thenIp == 0 && op.elseIp == 3;
    EXPECT_TRUE(matched_a16);
}

TEST(XformAlign, MatchRequiresSemanticEquality)
{
    Instruction a = addF16(20, 20, 1.0f);
    Instruction b = addF16(20, 20, 1.0f);
    EXPECT_TRUE(xform::sameInstruction(a, b));
    b.src1 = isa::immF(1.5f);
    EXPECT_FALSE(xform::sameInstruction(a, b));
    b = a;
    b.src0.negate = true;
    EXPECT_FALSE(xform::sameInstruction(a, b));
    b = a;
    b.simdWidth = 8;
    EXPECT_FALSE(xform::sameInstruction(a, b));
}

// --- Builder-authored diamonds ----------------------------------------

/**
 * A divergent if/else diamond over a per-channel float accumulator.
 * The arm bodies come from @p then_body / @p else_body so each test
 * shapes its own legality scenario; the epilogue stores the
 * accumulator so arm effects stay observable.
 */
template <typename ThenFn, typename ElseFn>
Kernel
diamond(ThenFn &&then_body, ElseFn &&else_body, bool uniform = false)
{
    KernelBuilder b("diamond", 16);
    auto out = b.argBuffer("out");
    auto x = b.tmp(DataType::F);
    auto bit = b.tmp(DataType::UD);
    auto addr = b.tmp(DataType::UD);
    b.mov(x, b.f(1.0f));
    if (uniform)
        b.and_(bit, b.groupId(), b.ud(1));
    else
        b.and_(bit, b.globalId(), b.ud(1));
    b.cmp(CondMod::Ne, 0, bit, b.ud(0));
    b.if_(0);
    then_body(b, x);
    b.else_();
    else_body(b, x);
    b.endif_();
    b.mad(addr, b.globalId(), b.ud(4), out);
    b.scatterStore(addr, x, DataType::F);
    return b.build();
}

/** The single meld candidate of a one-diamond kernel. */
const xform::MeldCandidate &
soleCandidate(const MeldReport &report)
{
    EXPECT_EQ(report.candidates.size(), 1u);
    return report.candidates.front();
}

TEST(XformMeld, DivergentDiamondMeldsAndMerges)
{
    const Kernel k = diamond(
        [](KernelBuilder &b, isa::Reg x) {
            b.mad(x, x, b.f(2.0f), b.f(1.0f)); // identical in both arms
            b.add(x, x, b.f(3.0f));
        },
        [](KernelBuilder &b, isa::Reg x) {
            b.mad(x, x, b.f(2.0f), b.f(1.0f));
            b.add(x, x, b.f(5.0f));
        });
    const MeldResult result = xform::meldKernel(k);
    ASSERT_TRUE(result.report.valid);
    EXPECT_TRUE(result.changed);
    EXPECT_FALSE(result.report.reverted);
    EXPECT_FALSE(result.report.postVerify.hasErrors());

    const xform::MeldCandidate &c = soleCandidate(result.report);
    EXPECT_EQ(c.verdict, MeldVerdict::Melded);
    EXPECT_TRUE(c.divergent);
    EXPECT_EQ(c.matched, 1u);
    EXPECT_EQ(c.merged, 1u);
    // One merged copy + each arm's distinct add under a predicate.
    EXPECT_EQ(c.emitted, 3u);
    // Diamond of 3 control instructions + 4 body vanished into 3.
    EXPECT_EQ(result.kernel.size(), k.size() - 4);
    EXPECT_GT(c.savedCycles, 0u);

    // The merged instruction must be unpredicated; the arm-only ones
    // must carry complementary senses of the branch flag.
    unsigned plain = 0, normal = 0, inverted = 0;
    for (const Instruction &in : result.kernel.instructions()) {
        if (in.op != Opcode::Mad && in.op != Opcode::Add)
            continue;
        if (in.op == Opcode::Mad && in.dst.type == DataType::F &&
            in.predCtrl == PredCtrl::None)
            ++plain;
        if (in.predCtrl == PredCtrl::Normal)
            ++normal;
        if (in.predCtrl == PredCtrl::Inverted)
            ++inverted;
    }
    EXPECT_GE(plain, 1u);
    EXPECT_EQ(normal, 1u);
    EXPECT_EQ(inverted, 1u);
}

TEST(XformMeld, UniformBranchSkippedUnlessAsked)
{
    const Kernel k = diamond(
        [](KernelBuilder &b, isa::Reg x) { b.add(x, x, b.f(3.0f)); },
        [](KernelBuilder &b, isa::Reg x) { b.add(x, x, b.f(5.0f)); },
        /*uniform=*/true);

    const MeldResult skipped = xform::meldKernel(k);
    EXPECT_FALSE(skipped.changed);
    EXPECT_EQ(soleCandidate(skipped.report).verdict,
              MeldVerdict::UniformBranch);
    EXPECT_FALSE(soleCandidate(skipped.report).divergent);

    MeldOptions options;
    options.meldUniform = true;
    const MeldResult melded = xform::meldKernel(k, options);
    EXPECT_TRUE(melded.changed);
    EXPECT_EQ(soleCandidate(melded.report).verdict, MeldVerdict::Melded);
}

TEST(XformMeld, ArmSendBlocksMelding)
{
    const Kernel k = diamond(
        [](KernelBuilder &b, isa::Reg x) {
            auto addr = b.tmp(DataType::UD);
            b.mad(addr, b.globalId(), b.ud(4), b.ud(0x10000));
            b.gatherLoad(x, addr, DataType::F);
        },
        [](KernelBuilder &b, isa::Reg x) { b.add(x, x, b.f(5.0f)); });
    const MeldResult result = xform::meldKernel(k);
    EXPECT_FALSE(result.changed);
    EXPECT_EQ(soleCandidate(result.report).verdict, MeldVerdict::ArmSend);
}

TEST(XformMeld, NestedControlFlowBlocksTheOuterDiamondOnly)
{
    const Kernel k = diamond(
        [](KernelBuilder &b, isa::Reg x) {
            auto bit = b.tmp(DataType::UD);
            b.and_(bit, b.globalId(), b.ud(2));
            b.cmp(CondMod::Ne, 1, bit, b.ud(0));
            b.if_(1);
            b.add(x, x, b.f(3.0f));
            b.endif_();
        },
        [](KernelBuilder &b, isa::Reg x) { b.add(x, x, b.f(5.0f)); });
    const MeldResult result = xform::meldKernel(k);
    // The inner diamond (divergent, straight-line arm) melds on its
    // own; the outer one must be rejected for nested control flow.
    ASSERT_EQ(result.report.candidates.size(), 2u);
    const xform::MeldCandidate &outer = result.report.candidates[0];
    const xform::MeldCandidate &inner = result.report.candidates[1];
    EXPECT_LT(outer.headIp, inner.headIp);
    EXPECT_EQ(outer.verdict, MeldVerdict::ArmControlFlow);
    EXPECT_EQ(inner.verdict, MeldVerdict::Melded);
    EXPECT_TRUE(result.changed);
    EXPECT_FALSE(result.report.postVerify.hasErrors());
}

TEST(XformMeld, PredicatedArmInstructionBlocksMelding)
{
    const Kernel k = diamond(
        [](KernelBuilder &b, isa::Reg x) {
            auto bit = b.tmp(DataType::UD);
            b.and_(bit, b.globalId(), b.ud(2));
            b.cmp(CondMod::Ne, 1, bit, b.ud(0));
            b.add(x, x, b.f(3.0f)).pred(1);
        },
        [](KernelBuilder &b, isa::Reg x) { b.add(x, x, b.f(5.0f)); });
    const MeldResult result = xform::meldKernel(k);
    EXPECT_FALSE(result.changed);
    EXPECT_EQ(soleCandidate(result.report).verdict,
              MeldVerdict::ArmPredicated);
}

TEST(XformMeld, BranchFlagClobberBlocksMelding)
{
    const Kernel k = diamond(
        [](KernelBuilder &b, isa::Reg x) {
            auto bit = b.tmp(DataType::UD);
            b.and_(bit, b.globalId(), b.ud(2));
            b.cmp(CondMod::Ne, 0, bit, b.ud(0)); // rewrites branch flag
            b.add(x, x, b.f(3.0f));
        },
        [](KernelBuilder &b, isa::Reg x) { b.add(x, x, b.f(5.0f)); });
    const MeldResult result = xform::meldKernel(k);
    EXPECT_FALSE(result.changed);
    EXPECT_EQ(soleCandidate(result.report).verdict,
              MeldVerdict::PredFlagClobber);
}

TEST(XformMeld, ArmLengthCeilingBlocksMelding)
{
    const Kernel k = diamond(
        [](KernelBuilder &b, isa::Reg x) {
            b.add(x, x, b.f(3.0f));
            b.add(x, x, b.f(4.0f));
        },
        [](KernelBuilder &b, isa::Reg x) { b.add(x, x, b.f(5.0f)); });
    MeldOptions options;
    options.maxArmLen = 1;
    const MeldResult result = xform::meldKernel(k, options);
    EXPECT_FALSE(result.changed);
    EXPECT_EQ(soleCandidate(result.report).verdict,
              MeldVerdict::ArmTooLong);
}

TEST(XformMeld, NarrowIfBlocksMelding)
{
    // Rebuild the diamond kernel with the If narrowed below the kernel
    // width: the arm-mask partition argument no longer holds, so the
    // melder must refuse.
    const Kernel k = diamond(
        [](KernelBuilder &b, isa::Reg x) { b.add(x, x, b.f(3.0f)); },
        [](KernelBuilder &b, isa::Reg x) { b.add(x, x, b.f(5.0f)); });
    std::vector<Instruction> instrs = k.instructions();
    for (Instruction &in : instrs)
        if (in.op == Opcode::If)
            in.simdWidth = 8;
    const Kernel narrow(k.name(), k.simdWidth(), std::move(instrs),
                        k.args(), k.firstTempReg(), k.regsUsed(),
                        k.slmBytes());
    const MeldResult result = xform::meldKernel(narrow);
    EXPECT_FALSE(result.changed);
    EXPECT_EQ(soleCandidate(result.report).verdict,
              MeldVerdict::WidthMismatch);
}

TEST(XformMeld, StraightLineKernelUnchanged)
{
    KernelBuilder b("straight", 16);
    auto out = b.argBuffer("out");
    auto x = b.tmp(DataType::F);
    auto addr = b.tmp(DataType::UD);
    b.mov(x, b.f(2.5f));
    b.mad(addr, b.globalId(), b.ud(4), out);
    b.scatterStore(addr, x, DataType::F);
    const Kernel k = b.build();
    const MeldResult result = xform::meldKernel(k);
    EXPECT_TRUE(result.report.valid);
    EXPECT_FALSE(result.changed);
    EXPECT_TRUE(result.report.candidates.empty());
    EXPECT_EQ(result.kernel.digest(), k.digest());
}

// --- Functional exactness ---------------------------------------------

/**
 * Executes @p kernel over 32 work items into a fresh buffer and
 * returns (effect-stream digest, final-memory digest).
 */
std::pair<std::uint64_t, std::uint64_t>
executeDiamond(const Kernel &kernel, func::BackendKind backend)
{
    func::GlobalMemory gmem;
    const Addr out = gmem.allocate(32 * 4);
    const std::vector<std::uint32_t> args{
        static_cast<std::uint32_t>(out)};
    const std::uint64_t stream = testsupport::digestEffectStream(
        kernel, gmem, 32, 16, args, backend);
    return {stream, gmem.digest()};
}

TEST(XformExact, MeldedDiamondIsBitIdentical)
{
    const Kernel k = diamond(
        [](KernelBuilder &b, isa::Reg x) {
            b.mad(x, x, b.f(2.0f), b.f(1.0f));
            b.add(x, x, b.f(3.0f));
        },
        [](KernelBuilder &b, isa::Reg x) {
            b.mad(x, x, b.f(2.0f), b.f(1.0f));
            b.add(x, x, b.f(5.0f));
        });
    const MeldResult melded = xform::meldKernel(k);
    ASSERT_TRUE(melded.changed);
    for (const func::BackendKind backend :
         {func::BackendKind::Scalar, func::BackendKind::Vector}) {
        const auto original = executeDiamond(k, backend);
        const auto transformed = executeDiamond(melded.kernel, backend);
        EXPECT_EQ(original.first, transformed.first);
        EXPECT_EQ(original.second, transformed.second);
    }
}

TEST(XformExact, RegistryWorkloadDifferentials)
{
    // Spot-check meldable registry workloads under both backends; the
    // meld-diff-gate ctest covers the full corpus the same way.
    const char *names[] = {"micro_ifelse", "micro_nested", "nw",
                           "bsearch", "treesearch"};
    for (const char *name : names) {
        for (const func::BackendKind backend :
             {func::BackendKind::Scalar, func::BackendKind::Vector}) {
            const xform::MeldDiff diff =
                xform::runMeldDiff(name, 1, backend);
            EXPECT_TRUE(diff.identical())
                << name << " under "
                << func::backendKindName(backend);
            EXPECT_GE(diff.meldedBranches, 1u) << name;
            EXPECT_FALSE(diff.report.postVerify.hasErrors()) << name;
        }
    }
}

TEST(XformExact, WholeCorpusMeldsWithoutFailures)
{
    // Static half of the corpus gate: every registered kernel melds
    // (or declines) without an input-verify failure or a post-verify
    // revert. The dynamic half lives in the meld-diff-gate ctest.
    for (const std::string &name : workloads::allNames()) {
        gpu::Device dev;
        const workloads::Workload w = workloads::make(name, dev, 1);
        const MeldResult result = xform::meldKernel(w.kernel);
        EXPECT_TRUE(result.report.valid) << name;
        EXPECT_FALSE(result.report.reverted) << name;
        EXPECT_FALSE(result.report.postVerify.hasErrors()) << name;
    }
}

// --- Verifier complementary-predication refinement --------------------

TEST(XformVerifier, ComplementaryPredicatedPairCountsAsFullDef)
{
    // The exact shape the melder emits: (+f0) write and (-f0) write of
    // the same register, then an unpredicated read. Without the
    // refinement this read would warn about a partial definition.
    KernelBuilder b("meld_shape", 16);
    auto out = b.argBuffer("out");
    auto x = b.tmp(DataType::F);
    auto y = b.tmp(DataType::F);
    auto bit = b.tmp(DataType::UD);
    auto addr = b.tmp(DataType::UD);
    b.and_(bit, b.globalId(), b.ud(1));
    b.cmp(CondMod::Ne, 0, bit, b.ud(0));
    b.mov(x, b.f(3.0f)).pred(0);
    b.mov(x, b.f(5.0f)).pred(0, /*inverted=*/true);
    b.add(y, x, x); // full-def read: must not warn
    b.mad(addr, b.globalId(), b.ud(4), out);
    b.scatterStore(addr, y, DataType::F);
    const lint::Report report = lint::verify(b.build());
    EXPECT_TRUE(report.clean()) << lint::renderText(report, nullptr);
}

TEST(XformVerifier, LonePredicatedWriteStaysPartial)
{
    KernelBuilder b("half_pair", 16);
    auto out = b.argBuffer("out");
    auto x = b.tmp(DataType::F);
    auto y = b.tmp(DataType::F);
    auto bit = b.tmp(DataType::UD);
    auto addr = b.tmp(DataType::UD);
    b.and_(bit, b.globalId(), b.ud(1));
    b.cmp(CondMod::Ne, 0, bit, b.ud(0));
    b.mov(x, b.f(3.0f)).pred(0);
    b.add(y, x, x); // reads channels the predicate left undefined
    b.mad(addr, b.globalId(), b.ud(4), out);
    b.scatterStore(addr, y, DataType::F);
    const lint::Report report = lint::verify(b.build());
    EXPECT_FALSE(report.clean());
    EXPECT_FALSE(report.hasErrors()); // partial reads warn, not error
}

TEST(XformVerifier, PredicateRewriteBreaksThePair)
{
    // cmp rewrites f0 between the two halves, so they no longer cover
    // complementary channel sets — the read must still warn.
    KernelBuilder b("broken_pair", 16);
    auto out = b.argBuffer("out");
    auto x = b.tmp(DataType::F);
    auto y = b.tmp(DataType::F);
    auto bit = b.tmp(DataType::UD);
    auto addr = b.tmp(DataType::UD);
    b.and_(bit, b.globalId(), b.ud(1));
    b.cmp(CondMod::Ne, 0, bit, b.ud(0));
    b.mov(x, b.f(3.0f)).pred(0);
    b.and_(bit, b.globalId(), b.ud(2));
    b.cmp(CondMod::Ne, 0, bit, b.ud(0));
    b.mov(x, b.f(5.0f)).pred(0, /*inverted=*/true);
    b.add(y, x, x);
    b.mad(addr, b.globalId(), b.ud(4), out);
    b.scatterStore(addr, y, DataType::F);
    const lint::Report report = lint::verify(b.build());
    EXPECT_FALSE(report.clean());
}

TEST(XformVerifier, MismatchedWidthDoesNotCompleteThePair)
{
    KernelBuilder b("width_pair", 16);
    auto out = b.argBuffer("out");
    auto x = b.tmp(DataType::F);
    auto y = b.tmp(DataType::F);
    auto bit = b.tmp(DataType::UD);
    auto addr = b.tmp(DataType::UD);
    b.and_(bit, b.globalId(), b.ud(1));
    b.cmp(CondMod::Ne, 0, bit, b.ud(0));
    b.mov(x, b.f(3.0f)).pred(0);
    b.mov(x, b.f(5.0f)).pred(0, /*inverted=*/true).width(8);
    b.add(y, x, x);
    b.mad(addr, b.globalId(), b.ud(4), out);
    b.scatterStore(addr, y, DataType::F);
    const lint::Report report = lint::verify(b.build());
    EXPECT_FALSE(report.clean());
}

// --- Run-harness wiring -----------------------------------------------

TEST(XformRun, MeldFlagIsPartOfTheCacheKey)
{
    run::RunRequest plain =
        run::RunRequest::functionalTrace("micro_ifelse", 1);
    run::RunRequest melded = plain;
    melded.meld = true;
    const auto key_plain = run::cacheKeyFor(plain);
    const auto key_melded = run::cacheKeyFor(melded);
    ASSERT_TRUE(key_plain.has_value());
    ASSERT_TRUE(key_melded.has_value());
    EXPECT_FALSE(*key_plain == *key_melded);
}

TEST(XformRun, TimingRunWithMeldStaysCorrect)
{
    run::RunRequest request =
        run::RunRequest::timing("micro_ifelse", gpu::ivbConfig(), 1);
    request.checkOutput = true;
    const run::RunResult plain = run::executeRun(request);
    request.meld = true;
    const run::RunResult melded = run::executeRun(request);

    ASSERT_TRUE(plain.checked && melded.checked);
    EXPECT_TRUE(plain.checkOk);
    EXPECT_TRUE(melded.checkOk);
    // The melder rewrote the kernel (digest differs) and the melded
    // kernel retires fewer instructions.
    EXPECT_NE(plain.kernelDigest, melded.kernelDigest);
    EXPECT_LT(melded.stats.eu.instructions, plain.stats.eu.instructions);
}

TEST(XformRun, FunctionalTraceWithMeldShrinksTheTrace)
{
    run::RunRequest request =
        run::RunRequest::functionalTrace("micro_ifelse", 1);
    const run::RunResult plain = run::executeRun(request);
    request.meld = true;
    const run::RunResult melded = run::executeRun(request);
    EXPECT_LT(melded.analysis.records, plain.analysis.records);
}

} // namespace
