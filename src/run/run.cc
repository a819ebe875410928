#include "run/run.hh"

#include <bit>
#include <utility>

#include "common/hash.hh"
#include "common/logging.hh"
#include "lint/verifier.hh"
#include "trace/synthetic.hh"
#include "trace/trace.hh"
#include "tracestream/analyze.hh"
#include "workloads/registry.hh"
#include "xform/meld.hh"

namespace iwc::run
{

namespace
{

workloads::Workload
buildWorkload(const RunRequest &request, gpu::Device &dev)
{
    if (request.factory)
        return request.factory(dev, request.scale);
    return workloads::make(request.workload, dev, request.scale);
}

trace::TraceAnalysis
analyzeBuilt(gpu::Device &dev, const workloads::Workload &w)
{
    trace::TraceAnalyzer analyzer;
    // Every TraceRecord field except execMask is a pure function of
    // the static instruction, so derive them once per ip up front
    // instead of once per dynamic instruction.
    std::vector<trace::TraceRecord> tmpl;
    std::vector<LaneMask> width_mask;
    tmpl.reserve(w.kernel.size());
    width_mask.reserve(w.kernel.size());
    for (const isa::Instruction &in : w.kernel.instructions()) {
        tmpl.push_back(trace::recordOf(in, 0));
        width_mask.push_back(in.widthMask());
    }
    dev.launchFunctionalDetailed(
        w.kernel, w.globalSize, w.localSize, w.args,
        [&](const gpu::DetailedStep &step) {
            trace::TraceRecord r = tmpl[step.ip];
            r.execMask = step.result->execMask & width_mask[step.ip];
            analyzer.add(r);
        });
    return analyzer.result();
}

} // namespace

std::uint8_t
normalizedCompareModes(std::uint8_t modes)
{
    constexpr std::uint8_t all =
        (1u << compaction::kNumModes) - 1;
    const std::uint8_t mask = modes & all;
    return mask == 0 ? all : mask;
}

std::optional<CacheKey>
cacheKeyFor(const RunRequest &request)
{
    if (request.trace || request.kind == JobKind::FileTrace)
        return std::nullopt;

    CacheKey key;
    if (request.kind == JobKind::SyntheticTrace) {
        key.workloadDigest = fnv64("t:" + request.traceProfile);
    } else if (request.factory) {
        if (request.cacheTag.empty())
            return std::nullopt;
        key.workloadDigest = fnv64("f:" + request.cacheTag);
    } else {
        key.workloadDigest = fnv64("w:" + request.workload);
    }
    if (request.kind == JobKind::TimingCompare) {
        // The request's own eu.mode cannot influence a compare result
        // (every requested mode is timed explicitly), so normalize it
        // out of the digest; the mode set itself lives in modeMask.
        gpu::GpuConfig norm = request.config;
        norm.eu.mode = compaction::Mode::Baseline;
        key.configDigest = gpu::configDigest(norm);
        key.modeMask = normalizedCompareModes(request.compareModes);
    } else {
        key.configDigest = gpu::configDigest(request.config);
    }
    key.scale = request.scale;
    key.kind = static_cast<std::uint8_t>(request.kind);
    key.backend = static_cast<std::uint8_t>(request.backend);
    key.flags = static_cast<std::uint8_t>(
        (request.checkOutput ? 1u : 0u) | (request.lint ? 2u : 0u) |
        (request.meld ? 4u : 0u));
    return key;
}

RunRequest
RunRequest::timing(std::string workload, gpu::GpuConfig config,
                   unsigned scale)
{
    RunRequest request;
    request.kind = JobKind::Timing;
    request.workload = std::move(workload);
    request.config = std::move(config);
    request.scale = scale;
    return request;
}

RunRequest
RunRequest::timingCompare(std::string workload, gpu::GpuConfig config,
                          unsigned scale, std::uint8_t modes)
{
    RunRequest request;
    request.kind = JobKind::TimingCompare;
    request.workload = std::move(workload);
    request.config = std::move(config);
    request.scale = scale;
    request.compareModes = modes;
    return request;
}

RunRequest
RunRequest::functionalTrace(std::string workload, unsigned scale)
{
    RunRequest request;
    request.kind = JobKind::FunctionalTrace;
    request.workload = std::move(workload);
    request.scale = scale;
    return request;
}

RunRequest
RunRequest::syntheticTrace(std::string profile)
{
    RunRequest request;
    request.kind = JobKind::SyntheticTrace;
    request.traceProfile = std::move(profile);
    return request;
}

RunRequest
RunRequest::fileTrace(std::string path, unsigned jobs)
{
    RunRequest request;
    request.kind = JobKind::FileTrace;
    request.tracePath = std::move(path);
    request.traceJobs = jobs;
    return request;
}

trace::TraceAnalysis
analyzeWorkload(const std::string &name, unsigned scale)
{
    gpu::Device dev;
    const workloads::Workload w = workloads::make(name, dev, scale);
    return analyzeBuilt(dev, w);
}

trace::TraceAnalysis
analyzeWorkload(const WorkloadFactory &factory, unsigned scale)
{
    gpu::Device dev;
    const workloads::Workload w = factory(dev, scale);
    return analyzeBuilt(dev, w);
}

trace::TraceAnalysis
analyzeSyntheticProfile(const std::string &name)
{
    return trace::analyzeTrace(
        trace::synthesize(trace::profileByName(name)));
}

gpu::LaunchStats
runWorkloadTiming(const std::string &name, const gpu::GpuConfig &config,
                  unsigned scale)
{
    gpu::Device dev(config);
    const workloads::Workload w = workloads::make(name, dev, scale);
    return dev.launch(w.kernel, w.globalSize, w.localSize, w.args);
}

RunResult
executeRun(const RunRequest &request)
{
    RunResult result;
    result.kind = request.kind;

    switch (request.kind) {
      case JobKind::Timing: {
        result.label = request.workload;
        gpu::GpuConfig config = request.config;
        if (request.backend != func::BackendKind::Auto)
            config.eu.backend = request.backend;
        if (request.trace) {
            result.events = std::make_shared<obs::RingBufferSink>(
                config.numEus, request.traceCapacity);
            config.sink = result.events.get();
        }
        gpu::Device dev(config);
        workloads::Workload w = buildWorkload(request, dev);
        if (request.meld)
            w.kernel = xform::meldKernel(w.kernel).kernel;
        result.kernelDigest = w.kernel.digest();
        if (request.lint)
            lint::verifyOrDie(w.kernel);
        result.stats =
            dev.launch(w.kernel, w.globalSize, w.localSize, w.args);
        if (request.checkOutput) {
            result.checked = true;
            result.checkOk = w.check ? w.check(dev) : true;
        }
        return result;
      }
      case JobKind::FunctionalTrace: {
        result.label = request.workload;
        gpu::GpuConfig config = request.config;
        if (request.backend != func::BackendKind::Auto)
            config.eu.backend = request.backend;
        gpu::Device dev(config);
        workloads::Workload w = buildWorkload(request, dev);
        if (request.meld)
            w.kernel = xform::meldKernel(w.kernel).kernel;
        result.kernelDigest = w.kernel.digest();
        if (request.lint)
            lint::verifyOrDie(w.kernel);
        result.analysis = analyzeBuilt(dev, w);
        return result;
      }
      case JobKind::SyntheticTrace: {
        result.label = request.traceProfile;
        result.analysis = analyzeSyntheticProfile(request.traceProfile);
        return result;
      }
      case JobKind::FileTrace: {
        result.label = request.tracePath;
        tracestream::StreamAnalyzeOptions options;
        options.jobs = request.traceJobs;
        result.analysis =
            tracestream::analyzeTraceFile(request.tracePath, options);
        return result;
      }
      case JobKind::TimingCompare: {
        fatal_if(request.trace,
                 "TimingCompare cannot record observability events; "
                 "trace the individual Timing runs instead");
        result.label = request.workload;
        gpu::GpuConfig config = request.config;
        if (request.backend != func::BackendKind::Auto)
            config.eu.backend = request.backend;

        // Build the workload and its inputs exactly once.
        gpu::Device dev(config);
        workloads::Workload w = buildWorkload(request, dev);
        if (request.meld)
            w.kernel = xform::meldKernel(w.kernel).kernel;
        result.kernelDigest = w.kernel.digest();
        if (request.lint)
            lint::verifyOrDie(w.kernel);

        // The lowest requested mode leads: one full simulation that
        // captures the issue trace (and owns the output check, whose
        // result is mode-invariant). Every other mode replays.
        const std::uint8_t mask =
            normalizedCompareModes(request.compareModes);
        const unsigned lead =
            static_cast<unsigned>(std::countr_zero(mask));
        eu::IssueTrace trace;
        for (unsigned m = 0; m < compaction::kNumModes; ++m) {
            if ((mask & (1u << m)) == 0)
                continue;
            dev.config().eu.mode = static_cast<compaction::Mode>(m);
            RunResult::ModeStats entry;
            entry.mode = static_cast<compaction::Mode>(m);
            if (m == lead) {
                entry.stats =
                    dev.launchCapture(w.kernel, w.globalSize,
                                      w.localSize, w.args, trace);
                if (request.checkOutput) {
                    result.checked = true;
                    result.checkOk = w.check ? w.check(dev) : true;
                }
            } else {
                entry.stats =
                    dev.launchReplay(w.kernel, w.globalSize,
                                     w.localSize, w.args, trace);
            }
            result.compare.push_back(std::move(entry));
        }
        return result;
      }
    }
    panic("unknown JobKind %d", static_cast<int>(request.kind));
}

} // namespace iwc::run
