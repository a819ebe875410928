/**
 * @file
 * Execution-backend tests: selection and IWC_BACKEND dispatch, the
 * scalar-vs-vector differential over every registry workload (both the
 * functional StepResult stream and the timing statistics must be
 * bit-identical), macro-stepping equivalence, and targeted edge-case
 * kernels (NaN propagation, signed wraparound, shift-count extremes)
 * where host-SIMD semantics classically diverge from scalar ones.
 */

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "func/backend_vector.hh"
#include "func/exec_backend.hh"
#include "func/interp.hh"
#include "gpu/device.hh"
#include "isa/builder.hh"
#include "step_digest.hh"
#include "workloads/registry.hh"

namespace
{

using namespace iwc;
using func::BackendKind;
using gpu::Arg;
using gpu::Device;
using isa::CondMod;
using isa::DataType;
using isa::Kernel;
using isa::KernelBuilder;

/** Saves/clears IWC_BACKEND for one test, restoring it on exit. */
class EnvGuard
{
  public:
    EnvGuard()
    {
        const char *old = std::getenv("IWC_BACKEND");
        if (old != nullptr) {
            saved_ = old;
            had_ = true;
        }
        unsetenv("IWC_BACKEND");
    }

    ~EnvGuard()
    {
        if (had_)
            setenv("IWC_BACKEND", saved_.c_str(), 1);
        else
            unsetenv("IWC_BACKEND");
    }

  private:
    std::string saved_;
    bool had_ = false;
};

TEST(BackendSelection, ParseAndNameRoundTrip)
{
    BackendKind kind = BackendKind::Auto;
    EXPECT_TRUE(func::parseBackendKind("scalar", kind));
    EXPECT_EQ(kind, BackendKind::Scalar);
    EXPECT_TRUE(func::parseBackendKind("vector", kind));
    EXPECT_EQ(kind, BackendKind::Vector);
    EXPECT_TRUE(func::parseBackendKind("auto", kind));
    EXPECT_EQ(kind, BackendKind::Auto);
    EXPECT_FALSE(func::parseBackendKind("sse", kind));
    EXPECT_FALSE(func::parseBackendKind("", kind));

    EXPECT_STREQ(func::backendKindName(BackendKind::Auto), "auto");
    EXPECT_STREQ(func::backendKindName(BackendKind::Scalar), "scalar");
    EXPECT_STREQ(func::backendKindName(BackendKind::Vector), "vector");
}

TEST(BackendSelection, AutoResolvesToVectorWithoutEnvironment)
{
    EnvGuard guard;
    EXPECT_EQ(func::resolveBackendKind(BackendKind::Auto),
              BackendKind::Vector);
}

TEST(BackendSelection, EnvironmentVariableDrivesAutoResolution)
{
    EnvGuard guard;
    setenv("IWC_BACKEND", "scalar", 1);
    EXPECT_EQ(func::resolveBackendKind(BackendKind::Auto),
              BackendKind::Scalar);
    setenv("IWC_BACKEND", "vector", 1);
    EXPECT_EQ(func::resolveBackendKind(BackendKind::Auto),
              BackendKind::Vector);
}

TEST(BackendSelection, UnknownEnvironmentValueFallsBackToDefault)
{
    EnvGuard guard;
    setenv("IWC_BACKEND", "quantum", 1);
    EXPECT_EQ(func::resolveBackendKind(BackendKind::Auto),
              BackendKind::Vector);
}

TEST(BackendSelection, ExplicitRequestBeatsEnvironment)
{
    EnvGuard guard;
    setenv("IWC_BACKEND", "vector", 1);
    EXPECT_EQ(func::resolveBackendKind(BackendKind::Scalar),
              BackendKind::Scalar);
    setenv("IWC_BACKEND", "scalar", 1);
    EXPECT_EQ(func::resolveBackendKind(BackendKind::Vector),
              BackendKind::Vector);
}

Kernel
tinyKernel()
{
    KernelBuilder b("tiny", 16);
    auto x = b.tmp(DataType::F);
    b.mov(x, b.f(1.0f));
    b.add(x, x, b.f(2.0f));
    return b.build();
}

TEST(BackendSelection, MakeBackendAndInterpreterReportNames)
{
    EnvGuard guard;
    const Kernel k = tinyKernel();
    func::GlobalMemory gmem;
    EXPECT_STREQ(
        func::makeBackend(BackendKind::Scalar, k, gmem)->name(),
        "scalar");
    EXPECT_STREQ(
        func::makeBackend(BackendKind::Vector, k, gmem)->name(),
        "vector");

    setenv("IWC_BACKEND", "scalar", 1);
    func::Interpreter via_env(k, gmem);
    EXPECT_STREQ(via_env.backendName(), "scalar");

    func::Interpreter explicit_vec(k, gmem, BackendKind::Vector);
    EXPECT_STREQ(explicit_vec.backendName(), "vector");
}

TEST(BackendSelection, VectorBackendPlansFastPathsOnSimpleAlu)
{
    const Kernel k = tinyKernel();
    func::GlobalMemory gmem;
    func::VectorBackend backend(k, gmem);
    EXPECT_GT(backend.vectorizedCount(), 0u);
}

// ------------------------------------------------------ differential

TEST(BackendDifferential, FunctionalDigestsMatchOnEveryWorkload)
{
    EnvGuard guard;
    for (const auto &entry : workloads::registry()) {
        std::uint64_t digest[2];
        const BackendKind kinds[2] = {BackendKind::Scalar,
                                      BackendKind::Vector};
        for (unsigned i = 0; i < 2; ++i) {
            Device dev;
            const auto w = workloads::make(entry.name, dev, 1);
            std::vector<std::uint32_t> words;
            for (const auto &arg : w.args)
                words.push_back(arg.raw);
            digest[i] = testsupport::digestFunctionalRun(
                w.kernel, dev.memory(), w.globalSize, w.localSize,
                words, kinds[i]);
        }
        EXPECT_EQ(digest[0], digest[1])
            << "scalar and vector backends diverged on " << entry.name;
    }
}

TEST(BackendDifferential, TimingStatsMatchOnSampledWorkloads)
{
    EnvGuard guard;
    const char *names[] = {"mandelbrot", "bfs", "mm", "bscholes",
                           "kmeans"};
    for (const char *name : names) {
        std::uint64_t digest[2];
        const BackendKind kinds[2] = {BackendKind::Scalar,
                                      BackendKind::Vector};
        for (unsigned i = 0; i < 2; ++i) {
            gpu::GpuConfig config = gpu::ivbConfig();
            config.eu.backend = kinds[i];
            Device dev(config);
            const auto w = workloads::make(name, dev, 1);
            const auto stats =
                dev.launch(w.kernel, w.globalSize, w.localSize, w.args);
            digest[i] = testsupport::digestLaunchStats(stats);
        }
        EXPECT_EQ(digest[0], digest[1])
            << "timing stats diverged between backends on " << name;
    }
}

// --------------------------------------------------- macro-stepping

// The observer-free functional runner macro-steps mask-stable runs;
// it must retire exactly the instructions the single-stepping detailed
// runner retires, and the workload's own output check must still pass.
TEST(BackendDifferential, MacroSteppingMatchesSingleStepping)
{
    EnvGuard guard;
    const char *names[] = {"mandelbrot", "urng", "mm", "bscholes"};
    for (const char *name : names) {
        Device macro_dev;
        const auto macro_w = workloads::make(name, macro_dev, 1);
        const std::uint64_t macro_count = macro_dev.launchFunctional(
            macro_w.kernel, macro_w.globalSize, macro_w.localSize,
            macro_w.args);
        if (macro_w.check) {
            EXPECT_TRUE(macro_w.check(macro_dev))
                << "macro-stepped output wrong for " << name;
        }

        Device step_dev;
        const auto step_w = workloads::make(name, step_dev, 1);
        std::uint64_t step_count = 0;
        step_dev.launchFunctionalDetailed(
            step_w.kernel, step_w.globalSize, step_w.localSize,
            step_w.args,
            [&step_count](const gpu::DetailedStep &) { ++step_count; });
        EXPECT_EQ(macro_count, step_count)
            << "macro-stepping retired a different instruction count "
               "for " << name;
    }
}

// ---------------------------------------------------- edge semantics

/** Runs @p kernel on two input buffers under @p kind; returns the raw
 *  words of the output buffer (slots * 16 lanes). */
std::vector<std::uint32_t>
runEdgeKernel(const Kernel &kernel, BackendKind kind,
              const std::vector<std::uint32_t> &a,
              const std::vector<std::uint32_t> &b, unsigned slots)
{
    gpu::GpuConfig config = gpu::ivbConfig();
    config.eu.backend = kind;
    Device dev(config);
    const Addr da = dev.uploadVector(a);
    const Addr db = dev.uploadVector(b);
    const Addr dout =
        dev.allocBuffer(static_cast<std::uint64_t>(slots) * 16 * 4);
    dev.launchFunctional(kernel, 16, 16,
                         {Arg::buffer(da), Arg::buffer(db),
                          Arg::buffer(dout)});
    return dev.downloadVector<std::uint32_t>(dout, slots * 16u);
}

/** min/max/add/mul/mov/cmp+sel over float lanes, one slot each. */
Kernel
floatEdgeKernel(unsigned &slots)
{
    KernelBuilder b("float_edge", 16);
    auto abuf = b.argBuffer("a");
    auto bbuf = b.argBuffer("b");
    auto obuf = b.argBuffer("out");
    auto addr = b.tmp(DataType::UD);
    auto oaddr = b.tmp(DataType::UD);
    auto x = b.tmp(DataType::F);
    auto y = b.tmp(DataType::F);
    auto r = b.tmp(DataType::F);
    b.mad(addr, b.globalId(), b.ud(4), abuf);
    b.gatherLoad(x, addr, DataType::F);
    b.mad(addr, b.globalId(), b.ud(4), bbuf);
    b.gatherLoad(y, addr, DataType::F);
    b.mad(oaddr, b.globalId(), b.ud(4), obuf);

    unsigned n = 0;
    auto emit = [&] {
        b.scatterStore(oaddr, r, DataType::F);
        b.add(oaddr, oaddr, b.ud(16 * 4));
        ++n;
    };
    b.min_(r, x, y);
    emit();
    b.max_(r, x, y);
    emit();
    b.add(r, x, y);
    emit();
    b.mul(r, x, y);
    emit();
    b.mov(r, x); // sNaN-quieting f64 roundtrip
    emit();
    b.mad(r, x, y, x);
    emit();
    b.cmp(CondMod::Lt, 0, x, y);
    b.sel(0, r, x, y);
    emit();
    slots = n;
    return b.build();
}

TEST(BackendEdgeCases, FloatNanZeroInfLanesMatchBitForBit)
{
    EnvGuard guard;
    // Lane soup: quiet/signalling NaNs with payloads, both-NaN pairs
    // (fmin/fmax must propagate the same payload), signed zeros,
    // infinities, denormals, and ordinary values.
    const std::vector<std::uint32_t> a = {
        0x7fc00000u, 0x7fc12345u, 0x7fa00001u, 0xffc00000u,
        0x80000000u, 0x00000000u, 0x7f800000u, 0xff800000u,
        0x00000001u, 0x807fffffu, 0x3f800000u, 0xbf800000u,
        0x7f7fffffu, 0x00800000u, 0x40490fdbu, 0xc2f6e979u,
    };
    const std::vector<std::uint32_t> b = {
        0x7fc54321u, 0x3f800000u, 0x7fc00000u, 0xffc00001u,
        0x00000000u, 0x80000000u, 0xff800000u, 0x7f800000u,
        0x80000001u, 0x007fffffu, 0xbf800000u, 0x3f800000u,
        0x00800000u, 0x7f7fffffu, 0xc2f6e979u, 0x40490fdbu,
    };
    unsigned slots = 0;
    const Kernel k = floatEdgeKernel(slots);

    func::GlobalMemory probe;
    func::VectorBackend backend(k, probe);
    EXPECT_GT(backend.vectorizedCount(), 0u)
        << "edge kernel no longer exercises the vector fast paths";

    const auto scalar =
        runEdgeKernel(k, BackendKind::Scalar, a, b, slots);
    const auto vector =
        runEdgeKernel(k, BackendKind::Vector, a, b, slots);
    ASSERT_EQ(scalar.size(), vector.size());
    for (std::size_t i = 0; i < scalar.size(); ++i)
        EXPECT_EQ(scalar[i], vector[i])
            << "float lane " << i % 16 << " slot " << i / 16
            << " differs between backends";
}

/** Signed-overflow / shift-count / min-max kernel over D lanes. */
Kernel
intEdgeKernel(unsigned &slots)
{
    KernelBuilder b("int_edge", 16);
    auto abuf = b.argBuffer("a");
    auto bbuf = b.argBuffer("b");
    auto obuf = b.argBuffer("out");
    auto addr = b.tmp(DataType::UD);
    auto oaddr = b.tmp(DataType::UD);
    auto x = b.tmp(DataType::D);
    auto y = b.tmp(DataType::D);
    auto r = b.tmp(DataType::D);
    b.mad(addr, b.globalId(), b.ud(4), abuf);
    b.gatherLoad(x, addr, DataType::D);
    b.mad(addr, b.globalId(), b.ud(4), bbuf);
    b.gatherLoad(y, addr, DataType::D);
    b.mad(oaddr, b.globalId(), b.ud(4), obuf);

    unsigned n = 0;
    auto emit = [&] {
        b.scatterStore(oaddr, r, DataType::D);
        b.add(oaddr, oaddr, b.ud(16 * 4));
        ++n;
    };
    b.add(r, x, y);
    emit();
    b.sub(r, x, y);
    emit();
    b.mul(r, x, y); // INT_MIN * -1 wraps
    emit();
    b.min_(r, x, y);
    emit();
    b.max_(r, x, y);
    emit();
    b.shl(r, x, y);
    emit();
    b.shr(r, x, y);
    emit();
    b.asr(r, x, y);
    emit();
    b.cmp(CondMod::Gt, 1, x, y);
    b.sel(1, r, x, y);
    emit();
    slots = n;
    return b.build();
}

TEST(BackendEdgeCases, IntMinWraparoundAndShiftCountsMatchBitForBit)
{
    EnvGuard guard;
    const auto u = [](std::int32_t v) {
        return static_cast<std::uint32_t>(v);
    };
    const std::vector<std::uint32_t> a = {
        u(INT32_MIN), u(INT32_MAX), u(-1),         0u,
        1u,           u(INT32_MIN), u(INT32_MAX),  u(-123456),
        0xdeadbeefu,  u(INT32_MIN), 0x40000000u,   u(-2),
        u(INT32_MAX), 2u,           u(INT32_MIN),  0x12345678u,
    };
    const std::vector<std::uint32_t> b = {
        u(-1),        1u,           u(INT32_MIN),  u(INT32_MIN),
        31u,          32u,          33u,           63u,
        64u,          u(-1),        1u,            u(INT32_MAX),
        u(INT32_MAX), 30u,          u(INT32_MIN),  0u,
    };
    unsigned slots = 0;
    const Kernel k = intEdgeKernel(slots);

    func::GlobalMemory probe;
    func::VectorBackend backend(k, probe);
    EXPECT_GT(backend.vectorizedCount(), 0u)
        << "edge kernel no longer exercises the vector fast paths";

    const auto scalar =
        runEdgeKernel(k, BackendKind::Scalar, a, b, slots);
    const auto vector =
        runEdgeKernel(k, BackendKind::Vector, a, b, slots);
    ASSERT_EQ(scalar.size(), vector.size());
    for (std::size_t i = 0; i < scalar.size(); ++i)
        EXPECT_EQ(scalar[i], vector[i])
            << "int lane " << i % 16 << " slot " << i / 16
            << " differs between backends";
}

} // namespace
