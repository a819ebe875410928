/**
 * @file
 * The run/ experiment harness: parallel sweeps must be bit-identical
 * to the legacy serial path (every job owns its simulation state), the
 * per-sweep trace cache must collapse the per-mode requests of one
 * workload onto a single functional execution, and the parallel-for
 * primitive must visit every index exactly once. Also pins the cache
 * identity the runner groups requests by: config digests, kernel
 * digests, and run::CacheKey.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "gpu/gpu_config.hh"
#include "run/experiment.hh"
#include "run/sweep_runner.hh"
#include "run_result_eq.hh"
#include "trace/synthetic.hh"
#include "workloads/registry.hh"

namespace
{

using namespace iwc;
using compaction::Mode;

const std::vector<std::string> kWorkloads = {"mandelbrot", "bfs",
                                             "bsort"};
const Mode kModes[] = {Mode::Baseline, Mode::IvbOpt, Mode::Bcc,
                       Mode::Scc};

std::vector<run::RunRequest>
mixedSweep()
{
    // workloads x modes, timing and functional legs, plus synthetic
    // trace profiles: the shape of a full bench-driver sweep.
    std::vector<run::RunRequest> requests;
    for (const auto &name : kWorkloads) {
        for (const Mode mode : kModes) {
            requests.push_back(run::RunRequest::timing(
                name, gpu::ivbConfig(mode)));
            run::RunRequest trace_request =
                run::RunRequest::functionalTrace(name);
            trace_request.config = gpu::ivbConfig(mode);
            requests.push_back(std::move(trace_request));
        }
    }
    requests.push_back(run::RunRequest::syntheticTrace("luxmark_sky"));
    requests.push_back(run::RunRequest::syntheticTrace("glbench_egypt"));
    return requests;
}

TEST(SweepRunner, ParallelMatchesSerialBitExactly)
{
    const auto requests = mixedSweep();

    run::SweepRunner serial({.jobs = 1, .progress = {}});
    const auto serial_results = serial.run(requests);
    ASSERT_EQ(serial_results.size(), requests.size());

    run::SweepRunner parallel({.jobs = 4, .progress = {}});
    EXPECT_EQ(parallel.jobs(), 4u);
    const auto parallel_results = parallel.run(requests);
    ASSERT_EQ(parallel_results.size(), requests.size());

    for (std::size_t i = 0; i < requests.size(); ++i)
        testsupport::expectResultsEqual(
            serial_results[i], parallel_results[i],
            "request " + std::to_string(i) + " (" +
                serial_results[i].label + ")");
}

TEST(SweepRunner, RepeatedParallelRunsAreDeterministic)
{
    const auto requests = mixedSweep();
    run::SweepRunner runner({.jobs = 4, .progress = {}});
    const auto first = runner.run(requests);
    const auto second = runner.run(requests);
    for (std::size_t i = 0; i < requests.size(); ++i)
        testsupport::expectResultsEqual(first[i], second[i],
                                        "request " + std::to_string(i));
}

TEST(SweepRunner, TraceCacheRunsFunctionalExecutionOncePerWorkload)
{
    // Four modes of each workload ask for the same functional
    // analysis; only the mode differs, which the analysis covers in
    // one pass. Expect one execution per workload, the rest hits.
    std::vector<run::RunRequest> requests;
    for (const auto &name : kWorkloads) {
        for (const Mode mode : kModes) {
            run::RunRequest request =
                run::RunRequest::functionalTrace(name);
            request.config = gpu::ivbConfig(mode);
            requests.push_back(std::move(request));
        }
    }

    for (const unsigned jobs : {1u, 4u}) {
        run::SweepRunner runner({.jobs = jobs, .progress = {}});
        const auto results = runner.run(requests);
        EXPECT_EQ(runner.lastStats().traceExecutions,
                  kWorkloads.size())
            << "jobs=" << jobs;
        EXPECT_EQ(runner.lastStats().traceCacheHits,
                  requests.size() - kWorkloads.size())
            << "jobs=" << jobs;
        // All four modes of one workload see the same analysis.
        for (std::size_t w = 0; w < kWorkloads.size(); ++w)
            for (unsigned m = 1; m < 4; ++m)
                EXPECT_EQ(results[w * 4].analysis.euCycles,
                          results[w * 4 + m].analysis.euCycles);
    }
}

TEST(SweepRunner, SyntheticTraceRequestsShareOneSynthesis)
{
    std::vector<run::RunRequest> requests = {
        run::RunRequest::syntheticTrace("luxmark_sky"),
        run::RunRequest::syntheticTrace("luxmark_sky"),
        run::RunRequest::syntheticTrace("luxmark_sky"),
    };
    run::SweepRunner runner({.jobs = 2, .progress = {}});
    const auto results = runner.run(requests);
    EXPECT_EQ(runner.lastStats().traceExecutions, 1u);
    EXPECT_EQ(runner.lastStats().traceCacheHits, 2u);
    EXPECT_EQ(results[0].analysis.records, results[1].analysis.records);
    EXPECT_EQ(results[0].analysis.euCycles, results[2].analysis.euCycles);
}

TEST(SweepRunner, FactoryRequestsBypassTheCache)
{
    std::vector<run::RunRequest> requests;
    for (unsigned i = 0; i < 3; ++i) {
        run::RunRequest request = run::RunRequest::functionalTrace("va");
        request.factory = [](gpu::Device &dev, unsigned scale) {
            return workloads::make("va", dev, scale);
        };
        requests.push_back(std::move(request));
    }
    run::SweepRunner runner({.jobs = 2, .progress = {}});
    const auto results = runner.run(requests);
    // Opaque builders are never shared; the cache stays cold.
    EXPECT_EQ(runner.lastStats().traceExecutions, 0u);
    EXPECT_EQ(runner.lastStats().traceCacheHits, 0u);
    EXPECT_EQ(results[0].analysis.records, results[1].analysis.records);
}

TEST(SweepRunner, ForEachVisitsEveryIndexOnce)
{
    for (const unsigned jobs : {1u, 3u, 8u}) {
        run::SweepRunner runner({.jobs = jobs, .progress = {}});
        std::vector<std::atomic<unsigned>> visits(257);
        runner.forEach(visits.size(), [&](std::size_t i) {
            visits[i].fetch_add(1);
        });
        for (std::size_t i = 0; i < visits.size(); ++i)
            EXPECT_EQ(visits[i].load(), 1u)
                << "jobs=" << jobs << " index " << i;
    }
}

TEST(SweepRunner, ProgressReportsEveryCompletionInOrderOfCount)
{
    std::vector<std::size_t> seen;
    run::SweepOptions options;
    options.jobs = 4;
    options.progress = [&](std::size_t done, std::size_t total) {
        EXPECT_EQ(total, 16u);
        seen.push_back(done); // serialized by the runner
    };
    run::SweepRunner runner(options);
    runner.forEach(16, [](std::size_t) {});
    ASSERT_EQ(seen.size(), 16u);
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], i + 1);
}

TEST(SweepRunner, TimingCheckOutputRunsReferenceCheck)
{
    run::RunRequest request =
        run::RunRequest::timing("va", gpu::ivbConfig());
    request.checkOutput = true;
    const run::RunResult result = run::executeRun(request);
    EXPECT_TRUE(result.checked);
    EXPECT_TRUE(result.checkOk);
}

TEST(SweepOptions, ParsedFromDriverOptions)
{
    const char *argv[] = {"driver", "jobs=7"};
    const OptionMap opts(2, const_cast<char **>(argv));
    const run::SweepOptions options = run::sweepOptions(opts);
    EXPECT_EQ(options.jobs, 7u);
    EXPECT_FALSE(options.progress);
    run::SweepRunner runner(options);
    EXPECT_EQ(runner.jobs(), 7u);
}

// --- Canonical config encoding / digest ---------------------------------

/** One mutation per encoded field (keep in step with fieldTable()). */
const std::vector<std::function<void(gpu::GpuConfig &)>> &
fieldMutations()
{
    using C = gpu::GpuConfig;
    static const std::vector<std::function<void(C &)>> muts = {
        [](C &c) { c.numEus += 1; },
        [](C &c) { c.dispatchLatency += 1; },
        [](C &c) { c.maxCycles += 1; },
        [](C &c) { c.eu.numThreads += 1; },
        [](C &c) { c.eu.mode = compaction::Mode::Baseline; },
        [](C &c) { c.eu.backend = func::BackendKind::Scalar; },
        [](C &c) { c.eu.issueWidth += 1; },
        [](C &c) { c.eu.arbitrationPeriod += 1; },
        [](C &c) { c.eu.fpuLatency += 1; },
        [](C &c) { c.eu.emLatency += 1; },
        [](C &c) { c.eu.sendIssueLatency += 1; },
        [](C &c) { c.eu.writebackLatency += 1; },
        [](C &c) { c.eu.ctrlCycles += 1; },
        [](C &c) { c.eu.sendCycles += 1; },
        [](C &c) { c.mem.l3Bytes *= 2; },
        [](C &c) { c.mem.l3Ways *= 2; },
        [](C &c) { c.mem.l3Banks *= 2; },
        [](C &c) { c.mem.l3Latency += 1; },
        [](C &c) { c.mem.llcBytes *= 2; },
        [](C &c) { c.mem.llcWays *= 2; },
        [](C &c) { c.mem.llcBanks *= 2; },
        [](C &c) { c.mem.llcLatency += 1; },
        [](C &c) { c.mem.dcLinesPerCycle += 1; },
        [](C &c) { c.mem.dramLatency += 1; },
        [](C &c) { c.mem.dramCyclesPerLine += 1; },
        [](C &c) { c.mem.slmLatency += 1; },
        [](C &c) { c.mem.slmBanks *= 2; },
        [](C &c) { c.mem.slmBankBytes *= 2; },
        [](C &c) { c.mem.perfectL3 = !c.mem.perfectL3; },
    };
    return muts;
}

TEST(ConfigDigest, ValueNotAssignmentOrderDeterminesDigest)
{
    // Build the same config twice with fields assigned in opposite
    // orders; the digest depends only on the resulting values.
    gpu::GpuConfig a = gpu::ivbConfig();
    a.numEus = 8;
    a.eu.fpuLatency = 9;
    a.mem.dramLatency = 200;

    gpu::GpuConfig b = gpu::ivbConfig();
    b.mem.dramLatency = 200;
    b.eu.fpuLatency = 9;
    b.numEus = 8;

    EXPECT_EQ(gpu::encodeCanonical(a), gpu::encodeCanonical(b));
    EXPECT_EQ(gpu::configDigest(a), gpu::configDigest(b));
}

TEST(ConfigDigest, EveryFieldChangesTheDigest)
{
    const gpu::GpuConfig base = gpu::ivbConfig();
    const std::uint64_t base_digest = gpu::configDigest(base);

    std::set<std::uint64_t> digests{base_digest};
    for (std::size_t i = 0; i < fieldMutations().size(); ++i) {
        gpu::GpuConfig mutated = base;
        fieldMutations()[i](mutated);
        const std::uint64_t d = gpu::configDigest(mutated);
        EXPECT_NE(d, base_digest) << "field mutation " << i
                                  << " did not change the digest";
        digests.insert(d);
    }
    // All mutations are distinct configs; their digests must be too.
    EXPECT_EQ(digests.size(), fieldMutations().size() + 1);
}

TEST(ConfigDigest, SinkPointerIsExcluded)
{
    gpu::GpuConfig with_sink = gpu::ivbConfig();
    with_sink.sink = reinterpret_cast<obs::EventSink *>(0x1234);
    EXPECT_EQ(gpu::configDigest(with_sink),
              gpu::configDigest(gpu::ivbConfig()));
}

TEST(ConfigDigest, CanonicalRoundTrip)
{
    for (std::size_t i = 0; i < fieldMutations().size(); ++i) {
        gpu::GpuConfig config = gpu::ivbConfig();
        fieldMutations()[i](config);
        gpu::GpuConfig decoded;
        ASSERT_TRUE(gpu::decodeCanonical(gpu::encodeCanonical(config),
                                         decoded))
            << "mutation " << i;
        EXPECT_EQ(gpu::encodeCanonical(decoded),
                  gpu::encodeCanonical(config))
            << "mutation " << i;
    }
}

TEST(ConfigDigest, DecodeRejectsMalformedText)
{
    gpu::GpuConfig out;
    EXPECT_FALSE(gpu::decodeCanonical("", out));
    EXPECT_FALSE(gpu::decodeCanonical("iwc_config=2\n", out));
    EXPECT_FALSE(gpu::decodeCanonical("iwc_config=1\nbogus_key=3\n", out));

    std::string good = gpu::encodeCanonical(gpu::ivbConfig());
    EXPECT_TRUE(gpu::decodeCanonical(good, out));
    EXPECT_FALSE(gpu::decodeCanonical(good + "extra=1\n", out));

    // Malformed value on a known key.
    const std::size_t pos = good.find("num_eus=");
    ASSERT_NE(pos, std::string::npos);
    std::string bad = good;
    bad.replace(pos, std::string("num_eus=6").size(), "num_eus=abc");
    EXPECT_FALSE(gpu::decodeCanonical(bad, out));
}

// --- Kernel digest ------------------------------------------------------

TEST(KernelDigest, StableAcrossRunsAndDistinctAcrossWorkloads)
{
    const auto req = run::RunRequest::functionalTrace("micro_ifelse", 1);
    const run::RunResult first = run::executeRun(req);
    const run::RunResult second = run::executeRun(req);
    EXPECT_NE(first.kernelDigest, 0u);
    EXPECT_EQ(first.kernelDigest, second.kernelDigest);

    const run::RunResult other =
        run::executeRun(run::RunRequest::functionalTrace("va", 1));
    EXPECT_NE(other.kernelDigest, first.kernelDigest);
}

// --- Cache keys ---------------------------------------------------------

TEST(CacheKey, IdentityAndSensitivity)
{
    const auto req =
        run::RunRequest::timing("micro_ifelse", gpu::ivbConfig(), 1);
    const auto key = run::cacheKeyFor(req);
    ASSERT_TRUE(key.has_value());
    EXPECT_EQ(key, run::cacheKeyFor(req));

    auto scaled = req;
    scaled.scale = 2;
    EXPECT_NE(key, run::cacheKeyFor(scaled));

    auto checked = req;
    checked.checkOutput = true;
    EXPECT_NE(key, run::cacheKeyFor(checked));

    auto reconfigured = req;
    reconfigured.config.eu.mode = compaction::Mode::Baseline;
    EXPECT_NE(key, run::cacheKeyFor(reconfigured));

    auto functional = run::RunRequest::functionalTrace("micro_ifelse", 1);
    EXPECT_NE(key, run::cacheKeyFor(functional));
}

TEST(CacheKey, UncacheableRequests)
{
    auto traced =
        run::RunRequest::timing("micro_ifelse", gpu::ivbConfig(), 1);
    traced.trace = true;
    EXPECT_FALSE(run::cacheKeyFor(traced).has_value());

    run::RunRequest untagged;
    untagged.factory = [](gpu::Device &dev, unsigned scale) {
        return workloads::make("micro_ifelse", dev, scale);
    };
    untagged.workload = "custom";
    EXPECT_FALSE(run::cacheKeyFor(untagged).has_value());

    auto tagged = untagged;
    tagged.cacheTag = "custom-v1";
    ASSERT_TRUE(run::cacheKeyFor(tagged).has_value());

    // File-trace replay depends on bytes outside the request, so it
    // is not cacheable.
    EXPECT_FALSE(
        run::cacheKeyFor(run::RunRequest::fileTrace("/tmp/t.iwct"))
            .has_value());

    // A factory tag and a registry name never collide, even when the
    // strings are equal: the digests are origin-tagged.
    auto registry_req = run::RunRequest::functionalTrace("custom-v1", 1);
    registry_req.config = tagged.config;
    EXPECT_NE(run::cacheKeyFor(tagged)->workloadDigest,
              run::cacheKeyFor(registry_req)->workloadDigest);
}

} // namespace
