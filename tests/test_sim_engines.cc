/**
 * @file
 * Cycle-exactness gate for the event-driven simulation engine: the
 * next-event calendar must reproduce the reference per-cycle polling
 * loop bit for bit — every LaunchStats field, every workload, every
 * compaction mode, both functional backends. "Bit-identical" is
 * checked field by field over the whole RunResult (run_result_eq.hh).
 *
 * Also gates SweepRunner determinism: a jobs=4 run returns results
 * byte-identical to jobs=1 and to serial executeRun calls, including
 * points routed through shared multi-mode compare jobs.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "compaction/mask_info.hh"
#include "gpu/gpu_config.hh"
#include "run/run.hh"
#include "run/sweep_runner.hh"
#include "run_result_eq.hh"
#include "workloads/registry.hh"

namespace
{

using iwc::compaction::kNumModes;
using iwc::compaction::Mode;
using iwc::func::BackendKind;
using iwc::gpu::ivbConfig;
using iwc::gpu::SimEngine;
using iwc::run::executeRun;
using iwc::run::RunRequest;
using iwc::run::RunResult;
using iwc::run::SweepOptions;
using iwc::run::SweepRunner;
using iwc::testsupport::expectResultsEqual;

std::vector<std::string>
allWorkloads()
{
    std::vector<std::string> names;
    for (const iwc::workloads::Entry &e : iwc::workloads::registry())
        names.emplace_back(e.name);
    return names;
}

class SimEngines : public ::testing::TestWithParam<std::string>
{
};

// The event engine is an optimization of the reference loop, not an
// approximation: for every workload, compaction mode, and functional
// backend the two engines must agree on every statistic, including
// total cycles, per-mode EU cycles, cache hit counts, and the idle
// bookkeeping only the event engine meaningfully exercises.
TEST_P(SimEngines, EventMatchesReferenceEveryModeAndBackend)
{
    const std::string &name = GetParam();
    for (const BackendKind backend :
         {BackendKind::Scalar, BackendKind::Vector}) {
        for (unsigned m = 0; m < kNumModes; ++m) {
            RunRequest req = RunRequest::timing(
                name, ivbConfig(static_cast<Mode>(m)));
            req.backend = backend;

            req.config.engine = SimEngine::Reference;
            const RunResult ref = executeRun(req);
            req.config.engine = SimEngine::Event;
            const RunResult event = executeRun(req);

            expectResultsEqual(
                ref, event,
                name + " mode " + std::to_string(m) + " backend " +
                    iwc::func::backendKindName(backend));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, SimEngines, ::testing::ValuesIn(allWorkloads()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

// A parallel sweep must be indistinguishable from a serial one — and
// both must match individual executeRun calls even when the runner
// routes mode-only-differing points through one shared compare job.
TEST(SweepDeterminism, ParallelRunBitIdenticalToSerialAndDirect)
{
    std::vector<RunRequest> requests;
    for (const char *name : {"va", "bfs", "micro_ifelse"})
        for (unsigned m = 0; m < kNumModes; ++m)
            requests.push_back(RunRequest::timing(
                name, ivbConfig(static_cast<Mode>(m))));
    requests.push_back(RunRequest::functionalTrace("dp"));
    requests.push_back(RunRequest::syntheticTrace("cp"));

    SweepOptions serial_opts;
    serial_opts.jobs = 1;
    SweepRunner serial(serial_opts);
    const std::vector<RunResult> a = serial.run(requests);

    SweepOptions parallel_opts;
    parallel_opts.jobs = 4;
    SweepRunner parallel(parallel_opts);
    const std::vector<RunResult> b = parallel.run(requests);

    ASSERT_EQ(a.size(), requests.size());
    ASSERT_EQ(b.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const RunResult direct = executeRun(requests[i]);
        const std::string what = "request " + std::to_string(i);
        expectResultsEqual(a[i], direct, what + " serial");
        expectResultsEqual(b[i], direct, what + " parallel");
    }

    // The three mode-quads each ran as ONE compare job per runner.
    EXPECT_EQ(serial.lastStats().compareExecutions, 3u);
    EXPECT_EQ(serial.lastStats().comparePoints, 12u);
    EXPECT_EQ(parallel.lastStats().compareExecutions, 3u);
    EXPECT_EQ(parallel.lastStats().comparePoints, 12u);
}

} // namespace
