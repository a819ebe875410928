/**
 * @file
 * End-to-end integration tests: timing-mode runs of representative
 * workloads validate outputs AND exhibit the paper's headline
 * behaviours (compaction speeds up divergent kernels, never slows
 * coherent ones, and never changes memory divergence).
 */

#include <gtest/gtest.h>

#include "gpu/gpu_config.hh"
#include "workloads/registry.hh"

namespace
{

using iwc::compaction::Mode;
using iwc::gpu::Device;
using iwc::gpu::GpuConfig;
using iwc::gpu::ivbConfig;
using iwc::gpu::LaunchStats;
using iwc::workloads::make;
using iwc::workloads::Workload;

LaunchStats
runTiming(const std::string &name, Mode mode, bool check = true,
          const GpuConfig *config_override = nullptr)
{
    Device dev(config_override ? *config_override : ivbConfig(mode));
    Workload w = make(name, dev, 1);
    const LaunchStats stats =
        dev.launch(w.kernel, w.globalSize, w.localSize, w.args);
    if (check) {
        EXPECT_TRUE(w.check(dev)) << name;
    }
    return stats;
}

class TimingCorrectness
    : public ::testing::TestWithParam<const char *>
{
};

// Timing-mode execution must be functionally identical to the
// reference for a representative slice of the suite (covering ALU,
// branches, loops, SLM + barriers, and sends).
TEST_P(TimingCorrectness, OutputsMatchReferenceUnderScc)
{
    runTiming(GetParam(), Mode::Scc);
}

INSTANTIATE_TEST_SUITE_P(
    RepresentativeWorkloads, TimingCorrectness,
    ::testing::Values("va", "dp", "scla", "bfs", "hotspot", "bsearch",
                      "mandelbrot", "rt_ao_alien8", "micro_looptrip"));

TEST(Integration, CompactionSpeedsUpDivergentWorkload)
{
    const LaunchStats base = runTiming("mandelbrot", Mode::Baseline);
    const LaunchStats bcc = runTiming("mandelbrot", Mode::Bcc);
    const LaunchStats scc = runTiming("mandelbrot", Mode::Scc);
    EXPECT_LT(bcc.totalCycles, base.totalCycles);
    EXPECT_LE(scc.totalCycles, bcc.totalCycles);
}

TEST(Integration, CompactionNeverSlowsCoherentWorkload)
{
    const LaunchStats ivb = runTiming("va", Mode::IvbOpt);
    const LaunchStats scc = runTiming("va", Mode::Scc);
    // "our optimizations have no adverse impact on coherent
    // applications" (Section 5.4).
    EXPECT_LE(scc.totalCycles, ivb.totalCycles + 1);
}

TEST(Integration, MemoryDivergenceUnchangedByCompaction)
{
    // Intra-warp compaction must not alter the coalescing behaviour:
    // identical line counts and messages under every mode.
    for (const char *name : {"bfs", "lavamd", "va"}) {
        const LaunchStats ivb = runTiming(name, Mode::IvbOpt, false);
        const LaunchStats scc = runTiming(name, Mode::Scc, false);
        EXPECT_EQ(ivb.eu.memMessages, scc.eu.memMessages) << name;
        EXPECT_EQ(ivb.eu.memLines, scc.eu.memLines) << name;
        EXPECT_DOUBLE_EQ(ivb.avgLinesPerMessage,
                         scc.avgLinesPerMessage) << name;
    }
}

TEST(Integration, EuCycleAccountingIndependentOfRunMode)
{
    const LaunchStats a = runTiming("treesearch", Mode::Baseline,
                                    false);
    const LaunchStats b = runTiming("treesearch", Mode::Scc, false);
    for (unsigned m = 0; m < iwc::compaction::kNumModes; ++m)
        EXPECT_EQ(a.eu.euCyclesByMode[m], b.eu.euCyclesByMode[m]);
}

TEST(Integration, Dc2RelievesBandwidthBoundKernels)
{
    GpuConfig dc1 = ivbConfig(Mode::Scc);
    dc1.mem.dcLinesPerCycle = 1;
    GpuConfig dc2 = dc1;
    dc2.mem.dcLinesPerCycle = 2;
    // Transpose scatters across lines: bandwidth hungry.
    const LaunchStats r1 = runTiming("trans", Mode::Scc, false, &dc1);
    const LaunchStats r2 = runTiming("trans", Mode::Scc, false, &dc2);
    EXPECT_LT(r2.totalCycles, r1.totalCycles);
}

TEST(Integration, PerfectL3HelpsMemoryBoundBfs)
{
    GpuConfig real = ivbConfig(Mode::Scc);
    GpuConfig perfect = real;
    perfect.mem.perfectL3 = true;
    const LaunchStats r = runTiming("bfs", Mode::Scc, false, &real);
    const LaunchStats p = runTiming("bfs", Mode::Scc, false, &perfect);
    EXPECT_LT(p.totalCycles, r.totalCycles);
}

TEST(Integration, ScaledProblemsStillValidate)
{
    Device dev;
    Workload w = make("hotspot", dev, 2);
    dev.launch(w.kernel, w.globalSize, w.localSize, w.args);
    EXPECT_TRUE(w.check(dev));
}

TEST(Integration, MoreEusShortenExecution)
{
    GpuConfig small = ivbConfig(Mode::IvbOpt);
    small.numEus = 2;
    GpuConfig big = small;
    big.numEus = 6;
    const LaunchStats s = runTiming("bscholes", Mode::IvbOpt, false,
                                    &small);
    const LaunchStats l = runTiming("bscholes", Mode::IvbOpt, false,
                                    &big);
    EXPECT_LT(l.totalCycles, s.totalCycles);
}

} // namespace
