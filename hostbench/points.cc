#include "points.hh"

#include <cstdio>
#include <exception>
#include <mutex>
#include <set>

#include "common/hash.hh"
#include "compaction/shared_plan_table.hh"
#include "func/predecode_cache.hh"
#include "run/sweep_runner.hh"
#include "spans.hh"
#include "tracestream/analyze.hh"
#include "tracestream/writer.hh"
#include "workloads/registry.hh"

namespace hostbench
{

using namespace iwc;
using compaction::Mode;

namespace
{

/** Scales: divergent-compare matches the committed perf_smoke compare
 *  basket; memory-bound is sized so va/mvm/trans overflow the 128 KB
 *  L3; the sweep is tab04 at its default scale. */
constexpr unsigned kCompareScale = 1;
constexpr unsigned kMemoryScale = 4;
constexpr unsigned kSweepScale = 1;

const char *const kMemoryKernels[] = {"va",    "mvm",   "trans", "fw",
                                      "gauss", "sobel", "bfs",   "nw",
                                      "hotspot", "srad"};

/** The 24 divergent registry kernels that are not micro-kernels. */
std::vector<std::string>
divergentSuite()
{
    std::vector<std::string> names;
    for (const std::string &name : workloads::divergentNames())
        if (name.rfind("micro", 0) != 0)
            names.push_back(name);
    return names;
}

std::string
timingKey(const char *workload, const std::string &name, Mode mode,
          unsigned dc)
{
    return std::string(workload) + "/" + name + "/" +
        compaction::modeName(mode) + "/dc" + std::to_string(dc);
}

Point
timingPoint(std::string key, const std::string &name, Mode mode,
            unsigned dc, unsigned scale)
{
    gpu::GpuConfig config = gpu::ivbConfig(mode);
    config.mem.dcLinesPerCycle = dc;
    Point p;
    p.key = std::move(key);
    p.request = run::RunRequest::timing(name, config, scale);
    p.request.checkOutput = true;
    return p;
}

/** Mixes the benchmark seed into a profile's own seed. */
std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t profile_seed)
{
    Fnv64 h;
    h.add(seed);
    h.add(profile_seed);
    return h.value();
}

} // namespace

bool
parseWorkload(const std::string &name, WorkloadKind &kind)
{
    static const std::pair<const char *, WorkloadKind> names[] = {
        {"divergent-compare", WorkloadKind::DivergentCompare},
        {"memory-bound", WorkloadKind::MemoryBound},
        {"trace-stream", WorkloadKind::TraceStream},
        {"paper-sweep", WorkloadKind::PaperSweep},
    };
    for (const auto &[n, k] : names) {
        if (name == n) {
            kind = k;
            return true;
        }
    }
    return false;
}

Workload
makeWorkload(WorkloadKind kind, std::uint64_t seed,
             const std::string &work_dir)
{
    Workload w;
    w.kind = kind;
    w.workDir = work_dir;
    switch (kind) {
      case WorkloadKind::DivergentCompare:
        for (const std::string &name : divergentSuite()) {
            Point p;
            p.key = "divergent-compare/" + name;
            p.request = run::RunRequest::timingCompare(
                name, gpu::ivbConfig(), kCompareScale);
            p.request.checkOutput = true;
            w.points.push_back(std::move(p));
        }
        w.passS = 1.6;
        break;
      case WorkloadKind::MemoryBound:
        for (const char *name : kMemoryKernels)
            for (unsigned dc = 1; dc <= 2; ++dc)
                w.points.push_back(timingPoint(
                    timingKey("memory-bound", name, Mode::IvbOpt, dc),
                    name, Mode::IvbOpt, dc, kMemoryScale));
        w.passS = 1.1;
        break;
      case WorkloadKind::TraceStream:
        for (const trace::SyntheticProfile &profile :
             trace::paperTraceProfiles()) {
            Point p;
            p.key = "trace-stream/" + profile.name;
            p.synthetic = true;
            p.profile = profile;
            p.profile.seed = mixSeed(seed, profile.seed);
            p.profileSeed = profile.seed;
            w.points.push_back(std::move(p));
        }
        w.passS = 0.5;
        break;
      case WorkloadKind::PaperSweep: {
        // The tab04 request set: functional traces of the divergent
        // suite, the divergent synthetic traces at their own seeds,
        // and the kernel x {IvbOpt, BCC, SCC} x {DC1, DC2} timing
        // cross-product.
        for (const std::string &name : workloads::divergentNames()) {
            Point p;
            p.key = "paper-sweep/functional/" + name;
            p.request = run::RunRequest::functionalTrace(name, kSweepScale);
            w.points.push_back(std::move(p));
        }
        for (const trace::SyntheticProfile &profile :
             trace::paperTraceProfiles()) {
            if (profile.divergentFraction < 0.3)
                continue;
            Point p;
            p.key = "paper-sweep/synthetic/" + profile.name;
            p.request = run::RunRequest::syntheticTrace(profile.name);
            w.points.push_back(std::move(p));
        }
        for (const std::string &name : divergentSuite()) {
            for (const Mode mode : {Mode::IvbOpt, Mode::Bcc, Mode::Scc})
                for (unsigned dc = 1; dc <= 2; ++dc)
                    w.points.push_back(timingPoint(
                        timingKey("paper-sweep", name, mode, dc), name,
                        mode, dc, kSweepScale));
            // The traced run's isolated-layer passes take one
            // configuration of each sweep kernel.
            w.isolation.push_back(timingPoint(
                timingKey("paper-sweep", name, Mode::IvbOpt, 1), name,
                Mode::IvbOpt, 1, kSweepScale));
        }
        // One worker: on a small shared host, sweeps with a worker per
        // core, or two, spread 15-25% run to run with their neighbours'
        // load and with which jobs raced for a shared compare run.
        // Compare routing and the trace cache still run.
        w.jobs = 1;
        w.passS = 2.5;
        break;
      }
    }
    if (kind != WorkloadKind::PaperSweep)
        w.isolation = w.points;
    return w;
}

bool
Goldens::load(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (f == nullptr)
        return false;
    char key[256];
    unsigned long long digest = 0;
    while (std::fscanf(f, "%255s %llx", key, &digest) == 2)
        digests[key] = digest;
    std::fclose(f);
    return true;
}

bool
Goldens::save(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    for (const auto &[key, digest] : digests)
        std::fprintf(f, "%s %016llx\n", key.c_str(),
                     static_cast<unsigned long long>(digest));
    return std::fclose(f) == 0;
}

bool
Goldens::check(const std::string &key, std::uint64_t digest)
{
    if (recording) {
        digests[key] = digest;
        return true;
    }
    const auto it = digests.find(key);
    return it != digests.end() && it->second == digest;
}

std::uint64_t
digestStats(const gpu::LaunchStats &s)
{
    Fnv64 h;
    h.add(s.totalCycles);
    h.add(s.eu.instructions);
    h.add(s.eu.aluInstructions);
    h.add(s.eu.sendInstructions);
    h.add(s.eu.ctrlInstructions);
    h.add(s.eu.sumActiveLanes);
    h.add(s.eu.sumSimdWidth);
    for (const std::uint64_t c : s.eu.euCyclesByMode)
        h.add(c);
    for (const std::uint64_t b : s.eu.utilBins)
        h.add(b);
    h.add(s.eu.memMessages);
    h.add(s.eu.memLines);
    h.add(s.eu.slmMessages);
    h.add(s.eu.sccSwizzledLanes);
    h.add(s.eu.issueSlotsUsed);
    h.add(s.eu.threadsRetired);
    h.add(s.fpuBusyCycles);
    h.add(s.emBusyCycles);
    h.add(s.l3Hits);
    h.add(s.l3Misses);
    h.add(s.llcHits);
    h.add(s.llcMisses);
    h.add(s.dramLines);
    h.add(s.dcLines);
    h.add(s.slmAccesses);
    h.addBytes(&s.avgLinesPerMessage, sizeof s.avgLinesPerMessage);
    h.add(s.workgroups);
    h.add(s.threads);
    return h.value();
}

std::uint64_t
digestAnalysis(const trace::TraceAnalysis &a)
{
    Fnv64 h;
    h.add(a.records);
    h.add(a.sumActiveLanes);
    h.add(a.sumSimdWidth);
    for (const std::uint64_t c : a.euCycles)
        h.add(c);
    for (const std::uint64_t b : a.utilBins)
        h.add(b);
    h.add(a.aluRecords);
    h.add(a.sccSwizzledLanes);
    return h.value();
}

std::uint64_t
digestResult(const run::RunResult &result)
{
    Fnv64 h;
    h.add(static_cast<std::uint64_t>(result.kind));
    h.add(result.kernelDigest);
    switch (result.kind) {
      case run::JobKind::Timing:
        h.add(digestStats(result.stats));
        break;
      case run::JobKind::TimingCompare:
        for (const run::RunResult::ModeStats &m : result.compare) {
            h.add(static_cast<std::uint64_t>(m.mode));
            h.add(digestStats(m.stats));
        }
        break;
      default:
        h.add(digestAnalysis(result.analysis));
        break;
    }
    return h.value();
}

HostCounters
hostCounters(const gpu::LaunchStats &stats)
{
    HostCounters c;
    c.planCacheHits = stats.planCacheHits;
    c.planCacheMisses = stats.planCacheMisses;
    c.idleCyclesSkipped = stats.idleCyclesSkipped;
    c.idleSkips = stats.idleSkips;
    return c;
}

CacheCounters
cacheCounters()
{
    CacheCounters c;
    const func::PredecodeCache &pre = func::PredecodeCache::instance();
    c.predecodeHits = pre.hits();
    c.predecodeMisses = pre.misses();
    const compaction::SharedPlanTable &plan =
        compaction::SharedPlanTable::instance();
    c.sharedPlanHits = plan.hits();
    c.sharedPlanMisses = plan.misses();
    return c;
}

std::vector<PointResult>
buildInstances(Workload &w, Goldens &goldens)
{
    std::vector<PointResult> checks;
    std::set<std::pair<std::string, unsigned>> built;
    for (Point &p : w.points) {
        if (p.synthetic) {
            p.expected = digestAnalysis(
                trace::analyzeTrace(trace::synthesize(p.profile)));
            trace::SyntheticProfile fixed = p.profile;
            fixed.seed = p.profileSeed;
            PointResult r;
            r.key = p.key;
            r.digest = digestAnalysis(
                trace::analyzeTrace(trace::synthesize(fixed)));
            r.ok = goldens.check(p.key, r.digest);
            checks.push_back(r);
            continue;
        }
        if (p.request.kind == run::JobKind::SyntheticTrace ||
            !built.emplace(p.request.workload, p.request.scale).second)
            continue;
        gpu::Device dev(p.request.config);
        workloads::make(p.request.workload, dev, p.request.scale);
    }
    return checks;
}

namespace
{

/** Fills the simulated-work totals of a registry result. */
void
countWork(const run::RunResult &r, PointResult &out)
{
    switch (r.kind) {
      case run::JobKind::Timing:
        out.simCycles += r.stats.totalCycles;
        out.records += r.stats.eu.instructions;
        break;
      case run::JobKind::TimingCompare:
        for (const run::RunResult::ModeStats &m : r.compare) {
            out.simCycles += m.stats.totalCycles;
            out.records += m.stats.eu.instructions;
        }
        break;
      default:
        for (const std::uint64_t c : r.analysis.euCycles)
            out.simCycles += c;
        out.records += r.analysis.records;
        break;
    }
}

} // namespace

void
checkResult(const Point &p, const run::RunResult &r, Goldens &goldens,
            PointResult &out)
{
    out.digest = digestResult(r);
    const bool ref_ok = !p.request.checkOutput || (r.checked && r.checkOk);
    out.ok = ref_ok && goldens.check(p.key, out.digest);
    countWork(r, out);
}

PointResult
runPoint(const Point &p, const std::string &work_dir, Goldens &goldens)
{
    PointResult out;
    out.key = p.key;
    const Clock::time_point t0 = Clock::now();
    try {
        if (p.synthetic) {
            // Synthesize, write the container, stream it back.
            const trace::MaskTrace mt = trace::synthesize(p.profile);
            const std::string path = work_dir + "/trace-stream.iwct";
            tracestream::ChunkedTraceWriter writer(path);
            for (const trace::TraceRecord &r : mt.records)
                writer.append(r);
            writer.finish();
            const trace::TraceAnalysis streamed =
                tracestream::analyzeTraceStream(path);
            out.digest = digestAnalysis(streamed);
            out.ok = out.digest == p.expected &&
                writer.recordsWritten() == p.profile.instructions;
            for (const std::uint64_t c : streamed.euCycles)
                out.simCycles += c;
            out.records = writer.recordsWritten() + streamed.records;
        } else {
            checkResult(p, run::executeRun(p.request), goldens, out);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "point %s failed: %s\n", p.key.c_str(),
                     e.what());
        out.ok = false;
    }
    out.wallS = std::chrono::duration<double>(Clock::now() - t0).count();
    return out;
}

SweepPass
runSweep(const std::vector<Point> &points, unsigned jobs,
         Goldens &goldens, SpanRecorder *spans, std::uint64_t id)
{
    SweepPass pass;
    std::vector<run::RunRequest> requests;
    requests.reserve(points.size());
    for (const Point &p : points)
        requests.push_back(p.request);

    const Clock::time_point t0 = Clock::now();
    std::mutex mu;
    run::SweepOptions options;
    options.jobs = jobs;
    options.progress = [&](std::size_t, std::size_t) {
        const double at =
            std::chrono::duration<double>(Clock::now() - t0).count();
        const std::lock_guard<std::mutex> lock(mu);
        pass.jobDoneS.push_back(at);
    };
    run::SweepRunner runner(options);
    pass.workers = runner.jobs();
    std::vector<run::RunResult> results;
    bool threw = false;
    try {
        const Scope span(spans, "run.sweep", id);
        results = runner.run(requests);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sweep failed: %s\n", e.what());
        threw = true;
    }
    pass.wallS = std::chrono::duration<double>(Clock::now() - t0).count();
    pass.stats = runner.lastStats();

    pass.points.resize(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        PointResult &out = pass.points[i];
        out.key = points[i].key;
        if (threw)
            out.ok = false;
        else
            checkResult(points[i], results[i], goldens, out);
    }
    return pass;
}

} // namespace hostbench
