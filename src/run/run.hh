/**
 * @file
 * One experiment point as a pure job: a RunRequest names a workload
 * (or trace profile), a scale, and a machine configuration; executing
 * it produces a RunResult holding timing statistics or a trace
 * analysis. All mutable state a job needs — the Device, its
 * GlobalMemory, the workload inputs — is created inside the job, so
 * two requests never share mutable state and can run on different
 * threads (see sweep_runner.hh).
 */

#ifndef IWC_RUN_RUN_HH
#define IWC_RUN_RUN_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gpu/device.hh"
#include "gpu/gpu_config.hh"
#include "obs/sink.hh"
#include "trace/analyzer.hh"
#include "workloads/workload.hh"

namespace iwc::run
{

/** What executing a request means. */
enum class JobKind
{
    /** Cycle-level simulation; the result carries LaunchStats. */
    Timing,
    /**
     * Functional execution feeding the trace analyzer; the result
     * carries a TraceAnalysis (which reports EU cycles for every
     * compaction mode at once, so one functional run answers all
     * per-mode questions — the SweepRunner caches on this).
     */
    FunctionalTrace,
    /** Synthetic mask-trace generation + analysis (trace workloads). */
    SyntheticTrace,
    /**
     * Replay of an on-disk trace file through the trace analyzer.
     * Container traces (.iwct, see src/tracestream) stream out-of-core
     * and shard across RunRequest::traceJobs threads; legacy
     * flat-binary and text traces load in memory first.
     */
    FileTrace,
    /**
     * Single-build multi-mode timing comparison: the workload and its
     * inputs are built ONCE, the lowest requested mode runs a full
     * simulation capturing the issue trace (see eu/issue_trace.hh),
     * and every other mode replays that trace — full mode-dependent
     * timing, no redundant functional execution, predecode, or plan
     * construction. Per-mode LaunchStats land in RunResult::compare
     * and are bit-identical to individual JobKind::Timing runs of the
     * same modes (gated by tests/test_compare_run.cc). The request's
     * config.eu.mode is ignored; RunRequest::compareModes selects the
     * modes.
     */
    TimingCompare,
};

/**
 * Builds the workload instance a job runs. Defaults to the registry
 * factory for RunRequest::workload; set explicitly for parameterized
 * kernels (lane patterns, nesting depths, datatypes).
 */
using WorkloadFactory =
    std::function<workloads::Workload(gpu::Device &, unsigned)>;

/** See file comment. */
struct RunRequest
{
    JobKind kind = JobKind::Timing;

    /** Registry name; display label when @ref factory is set. */
    std::string workload;
    /** Optional non-registry workload builder (disables caching). */
    WorkloadFactory factory;
    /**
     * Caller-supplied cache identity for @ref factory requests. A
     * factory is an opaque closure, so the harness cannot derive a
     * cache key from it; the caller asserts one here ("every request
     * with this tag, scale, and config builds the same workload").
     * Empty (the default) means "no cache identity": such requests
     * are uncacheable, so SweepRunner never groups them into a shared
     * compare job. Ignored for registry requests, whose name is
     * already their identity.
     */
    std::string cacheTag;
    unsigned scale = 1;
    /** Machine configuration (compaction mode lives in config.eu.mode). */
    gpu::GpuConfig config = gpu::ivbConfig();
    /**
     * Functional execution backend. Anything other than Auto overrides
     * config.eu.backend for this job (both the timing model's
     * issue-time execution and functional-trace runs).
     */
    func::BackendKind backend = func::BackendKind::Auto;
    /** Profile name for JobKind::SyntheticTrace. */
    std::string traceProfile;
    /** Trace file path for JobKind::FileTrace. */
    std::string tracePath;
    /** Analyzer shards for container FileTrace requests (0 = 1). */
    unsigned traceJobs = 1;
    /** Timing only: run the host-side reference check after launch. */
    bool checkOutput = false;
    /**
     * Timing only: record observability events (see obs/event.hh) into
     * RunResult::events. Off by default — tracing multi-million-cycle
     * sweeps would dwarf the simulation itself in memory.
     */
    bool trace = false;
    /** Max events kept per EU stream when tracing; 0 = unbounded. */
    std::size_t traceCapacity = 0;
    /**
     * Run the static kernel verifier (src/lint) over the built kernel
     * before simulating; any diagnostic is fatal. Cheap next to any
     * simulation, but opt-in so sweeps choose their own strictness.
     */
    bool lint = false;
    /**
     * Run the control-flow melder (src/xform) over the built kernel
     * before simulating: divergent if/else diamonds are if-converted
     * into predicated straight-line code. Functionally bit-identical
     * by construction (the melder re-verifies and reverts on any
     * legality failure), so the flag only changes cycle counts — part
     * of the cache key like lint/checkOutput.
     */
    bool meld = false;
    /**
     * TimingCompare only: bitmask of compaction modes to time, bit m
     * selecting static_cast<compaction::Mode>(m). 0 means all modes.
     */
    std::uint8_t compareModes = 0;

    // --- Convenience constructors ---------------------------------------

    static RunRequest timing(std::string workload, gpu::GpuConfig config,
                             unsigned scale = 1);
    static RunRequest timingCompare(std::string workload,
                                    gpu::GpuConfig config,
                                    unsigned scale = 1,
                                    std::uint8_t modes = 0);
    static RunRequest functionalTrace(std::string workload,
                                      unsigned scale = 1);
    static RunRequest syntheticTrace(std::string profile);
    static RunRequest fileTrace(std::string path, unsigned jobs = 1);
};

/**
 * Full identity of a request for result caching: anything that can
 * change a RunResult bit is either part of this key or makes the
 * request uncacheable (see cacheKeyFor). Two requests with equal
 * keys produce bit-identical results by the same argument that makes
 * SweepRunner's per-sweep sharing sound — every job builds its whole
 * world from (workload identity, scale, config).
 */
struct CacheKey
{
    /** Digest of the workload identity (registry name, cache tag, or
     *  synthetic profile name, tagged by origin). */
    std::uint64_t workloadDigest = 0;
    /** gpu::configDigest of the request's machine configuration. */
    std::uint64_t configDigest = 0;
    std::uint32_t scale = 1;
    std::uint8_t kind = 0;
    std::uint8_t backend = 0;
    /** checkOutput/lint/meld bits — they change the result. */
    std::uint8_t flags = 0;
    /**
     * TimingCompare: the requested mode set. Always 0 for other
     * kinds. The config digest of a compare key is taken with
     * config.eu.mode normalized to Baseline (the mode is irrelevant
     * to a compare result), so without this field two compare
     * requests over different mode sets would alias.
     */
    std::uint8_t modeMask = 0;

    bool operator==(const CacheKey &) const = default;
};

/**
 * The mode set a compare request with @p modes times: masked to the
 * valid modes, with 0 (the default) meaning all of them.
 */
std::uint8_t normalizedCompareModes(std::uint8_t modes);

/**
 * The cache identity of @p request, or nullopt for requests that
 * must not be served from a cache: factory requests without a
 * cacheTag (opaque builder, no asserted identity), tracing requests
 * (their value is the event stream, which is unique to an execution),
 * and file-trace requests (the key cannot see the file's contents, so
 * equal paths do not imply equal results).
 */
std::optional<CacheKey> cacheKeyFor(const RunRequest &request);

/** Outcome of one executed request. */
struct RunResult
{
    JobKind kind = JobKind::Timing;
    /** Workload or profile name the job ran. */
    std::string label;

    /**
     * isa::Kernel::digest() of the kernel the job built and ran; 0
     * for synthetic-trace jobs, which have no kernel. Lets callers
     * verify that two runs claiming the same cache identity really
     * executed the same instructions.
     */
    std::uint64_t kernelDigest = 0;

    /** Valid for JobKind::Timing. */
    gpu::LaunchStats stats;
    /** Valid for JobKind::FunctionalTrace / SyntheticTrace. */
    trace::TraceAnalysis analysis;
    /** One timed mode of a TimingCompare result. */
    struct ModeStats
    {
        compaction::Mode mode = compaction::Mode::Baseline;
        gpu::LaunchStats stats;
    };
    /** Valid for JobKind::TimingCompare, ascending mode order. */
    std::vector<ModeStats> compare;

    /** Reference-check outcome (Timing with checkOutput=true). */
    bool checked = false;
    bool checkOk = false;

    /** Captured event streams (Timing with trace=true), else null. */
    std::shared_ptr<obs::RingBufferSink> events;
};

/**
 * Executes one request in isolation on the calling thread: fresh
 * Device and GlobalMemory, workload built from scratch. The building
 * block of SweepRunner; callable directly for one-off runs.
 */
RunResult executeRun(const RunRequest &request);

/**
 * The functional-trace computation executeRun performs for
 * JobKind::FunctionalTrace, exposed so the SweepRunner cache can
 * share one execution among the requests that agree on it.
 */
trace::TraceAnalysis analyzeWorkload(const std::string &name,
                                     unsigned scale);

/** As analyzeWorkload, but through an explicit factory. */
trace::TraceAnalysis analyzeWorkload(const WorkloadFactory &factory,
                                     unsigned scale);

/** Synthesizes and analyzes the named paper trace profile. */
trace::TraceAnalysis analyzeSyntheticProfile(const std::string &name);

/** Runs a workload on the timing simulator under @p config. */
gpu::LaunchStats runWorkloadTiming(const std::string &name,
                                   const gpu::GpuConfig &config,
                                   unsigned scale);

} // namespace iwc::run

#endif // IWC_RUN_RUN_HH
