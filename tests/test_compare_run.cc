/**
 * @file
 * Gates the issue-trace capture/replay layer and the single-build
 * multi-mode compare runs built on it: a replayed launch must produce
 * LaunchStats bit-identical to a full simulation of the same mode,
 * and executeCompareRun must match per-mode individual runs while
 * doing the expensive work (workload build, predecode, plan
 * construction, functional execution) only once.
 */

#include <gtest/gtest.h>

#include "compaction/mask_info.hh"
#include "compaction/shared_plan_table.hh"
#include "eu/issue_trace.hh"
#include "func/predecode_cache.hh"
#include "gpu/device.hh"
#include "gpu/gpu_config.hh"
#include "run/run.hh"
#include "run_result_eq.hh"
#include "workloads/registry.hh"

namespace
{

using iwc::compaction::Mode;
using iwc::eu::IssueTrace;
using iwc::gpu::Device;
using iwc::gpu::GpuConfig;
using iwc::gpu::ivbConfig;
using iwc::gpu::LaunchStats;
using iwc::testsupport::expectStatsEqual;
using iwc::workloads::make;
using iwc::workloads::Workload;

constexpr Mode kModes[] = {Mode::Baseline, Mode::IvbOpt, Mode::Bcc,
                           Mode::Scc};

class CaptureReplay : public ::testing::TestWithParam<const char *>
{
};

// The core invariant of compare runs: replaying a trace captured
// under one mode reproduces, bit for bit, the LaunchStats of a full
// simulation under any mode — including the mode-sensitive dispatch
// placement, cache interleaving, and plan-cache counters.
TEST_P(CaptureReplay, ReplayMatchesFullRunUnderEveryMode)
{
    const char *name = GetParam();

    // Full per-mode runs: the reference results.
    LaunchStats ref[4];
    for (unsigned m = 0; m < 4; ++m) {
        Device dev(ivbConfig(kModes[m]));
        Workload w = make(name, dev, 1);
        ref[m] = dev.launch(w.kernel, w.globalSize, w.localSize, w.args);
    }

    // One captured run (lead mode Baseline) + three replays.
    IssueTrace trace;
    {
        Device dev(ivbConfig(Mode::Baseline));
        Workload w = make(name, dev, 1);
        const LaunchStats lead = dev.launchCapture(
            w.kernel, w.globalSize, w.localSize, w.args, trace);
        expectStatsEqual(lead, ref[0],
                         std::string(name) + " capture/baseline");
        EXPECT_TRUE(w.check(dev)) << name;
    }
    for (unsigned m = 1; m < 4; ++m) {
        Device dev(ivbConfig(kModes[m]));
        Workload w = make(name, dev, 1);
        const LaunchStats rep = dev.launchReplay(
            w.kernel, w.globalSize, w.localSize, w.args, trace);
        expectStatsEqual(rep, ref[m],
                         std::string(name) + " replay mode " +
                             std::to_string(m));
    }
}

// Coverage spans ALU-only, divergent branches, loops, SLM + barriers,
// global scatter/gather, and partial last workgroups.
INSTANTIATE_TEST_SUITE_P(
    RepresentativeWorkloads, CaptureReplay,
    ::testing::Values("va", "dp", "scla", "bfs", "hotspot", "bsearch",
                      "mandelbrot", "micro_ifelse", "micro_looptrip",
                      "kmeans", "rt_ao_alien8"));

using iwc::run::executeRun;
using iwc::run::RunRequest;
using iwc::run::RunResult;

// A compare job's per-mode stats are the same bits an individual
// Timing run of each mode produces; checkOutput runs exactly once
// (on the lead mode) and stands for all modes.
TEST(CompareRun, MatchesIndividualTimingRuns)
{
    RunRequest compare = RunRequest::timingCompare("bfs", ivbConfig());
    compare.checkOutput = true;
    const RunResult all = executeRun(compare);
    ASSERT_EQ(all.compare.size(), iwc::compaction::kNumModes);
    EXPECT_TRUE(all.checked);
    EXPECT_TRUE(all.checkOk);

    for (unsigned m = 0; m < iwc::compaction::kNumModes; ++m) {
        EXPECT_EQ(all.compare[m].mode, kModes[m]);
        const RunResult solo = executeRun(RunRequest::timing(
            "bfs", ivbConfig(kModes[m])));
        expectStatsEqual(all.compare[m].stats, solo.stats,
                         "bfs compare mode " + std::to_string(m));
        EXPECT_EQ(all.kernelDigest, solo.kernelDigest);
    }
}

// A subset mask times only the requested modes, led by the lowest.
TEST(CompareRun, SubsetMaskSelectsModes)
{
    const std::uint8_t mask = (1u << 1) | (1u << 3); // IvbOpt + Scc
    const RunResult out = executeRun(
        RunRequest::timingCompare("dp", ivbConfig(), 1, mask));
    ASSERT_EQ(out.compare.size(), 2u);
    EXPECT_EQ(out.compare[0].mode, Mode::IvbOpt);
    EXPECT_EQ(out.compare[1].mode, Mode::Scc);
    for (const auto &entry : out.compare) {
        const RunResult solo = executeRun(RunRequest::timing(
            "dp", ivbConfig(entry.mode)));
        expectStatsEqual(entry.stats, solo.stats, "dp subset");
    }
}

// The single-build claim, verified through the process-wide shared
// caches: one 4-mode compare predecodes its kernel at most once (one
// digest), and a repeat of the same point misses neither the
// predecode cache nor the shared plan table — every plan any mode
// needs is already resident device-wide.
TEST(CompareRun, SharesBuildAcrossModesAndRepeats)
{
    const auto &plans = iwc::compaction::SharedPlanTable::instance();
    const auto &predecode = iwc::func::PredecodeCache::instance();
    const RunRequest compare =
        RunRequest::timingCompare("hotspot", ivbConfig());

    const std::uint64_t pre0 = predecode.misses();
    executeRun(compare);
    EXPECT_LE(predecode.misses() - pre0, 1u);

    const std::uint64_t pre1 = predecode.misses();
    const std::uint64_t plan1 = plans.misses();
    executeRun(compare);
    EXPECT_EQ(predecode.misses() - pre1, 0u);
    EXPECT_EQ(plans.misses() - plan1, 0u);
}

} // namespace
