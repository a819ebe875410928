#include "layers.hh"

#include <bit>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <unordered_set>

#include "compaction/plan_cache.hh"
#include "mem/mem_system.hh"
#include "trace/trace.hh"
#include "tracestream/analyze.hh"
#include "tracestream/writer.hh"
#include "workloads/registry.hh"

namespace hostbench
{

using namespace iwc;

namespace
{

/** Runs @p fn inside span @p name; returns the span's duration. */
template <typename Fn>
std::int64_t
timed(SpanRecorder &spans, const char *name, std::uint64_t id, Fn &&fn)
{
    std::size_t index = 0;
    {
        const Scope scope(&spans, name, id);
        index = scope.index();
        fn();
    }
    const Span &s = spans.spans()[index];
    return s.endNs - s.startNs;
}

/** Reports a failed input-fidelity check; returns false. */
bool
fidelity(const std::string &key, const char *what, std::uint64_t got,
         std::uint64_t want)
{
    if (got == want)
        return true;
    std::fprintf(stderr,
                 "point %s: %s %llu, full run saw %llu\n", key.c_str(),
                 what, static_cast<unsigned long long>(got),
                 static_cast<unsigned long long>(want));
    return false;
}

/** Sums the simulated counters the per-layer metrics read. */
void
addLaunch(LayerTotals &t, const gpu::LaunchStats &s)
{
    gpu::LaunchStats &a = t.launches;
    a.totalCycles += s.totalCycles;
    a.eu.merge(s.eu);
    a.l3Hits += s.l3Hits;
    a.l3Misses += s.l3Misses;
    a.llcHits += s.llcHits;
    a.llcMisses += s.llcMisses;
    a.dramLines += s.dramLines;
    a.dcLines += s.dcLines;
    const HostCounters host = hostCounters(s);
    t.idleCyclesSkipped += host.idleCyclesSkipped;
    t.idleSkips += host.idleSkips;
}

std::uint64_t
eventsVisited(const gpu::LaunchStats &s)
{
    return s.totalCycles - hostCounters(s).idleCyclesSkipped;
}

/**
 * The mask-consuming isolated passes: plan lookups through
 * TraceAnalyzer::add, uncached planning of each distinct shape, and
 * the in-memory analyzeTrace. Returns the in-memory analysis.
 */
trace::TraceAnalysis
maskPasses(const trace::MaskTrace &mt, std::uint64_t id,
           SpanRecorder &spans, LayerTotals &t)
{
    trace::TraceAnalyzer analyzer;
    t.planNs += timed(spans, "plan.only", id, [&] {
        for (const trace::TraceRecord &r : mt.records)
            if (r.kind == trace::InstrKind::Alu ||
                r.kind == trace::InstrKind::Em)
                analyzer.add(r);
    });
    t.planLookups += analyzer.result().aluRecords;
    t.planHits += analyzer.planCache().hits();
    t.planMisses += analyzer.planCache().misses();

    std::vector<compaction::ExecShape> shapes;
    {
        const Scope scope(&spans, "bench.shapes", id);
        std::unordered_set<std::uint64_t> seen;
        for (const trace::TraceRecord &r : mt.records) {
            if (r.kind != trace::InstrKind::Alu &&
                r.kind != trace::InstrKind::Em)
                continue;
            const compaction::ExecShape shape{r.simdWidth, r.elemBytes,
                                              r.execMask};
            const std::uint64_t key =
                (std::uint64_t{r.simdWidth} << 40) |
                (std::uint64_t{r.elemBytes} << 32) | shape.maskedExec();
            if (seen.insert(key).second)
                shapes.push_back(shape);
        }
    }
    t.distinctShapes += shapes.size();
    std::uint64_t sink = 0;
    t.planComputeNs += timed(spans, "plan.compute", id, [&] {
        for (const compaction::ExecShape &shape : shapes)
            sink += compaction::PlanCache::compute(shape).cycles.back();
    });
    if (sink == 0 && !shapes.empty())
        std::fprintf(stderr, "plan.compute: no cycles planned\n");

    trace::TraceAnalysis in_memory;
    t.traceNs += timed(spans, "trace.analyze", id,
                       [&] { in_memory = trace::analyzeTrace(mt); });
    t.traceRecords += mt.size();
    return in_memory;
}

/** Writes @p mt as a container (span tracestream.write). */
void
writeContainer(const trace::MaskTrace &mt, const std::string &path,
               std::uint64_t id, SpanRecorder &spans, LayerTotals &t)
{
    t.writeNs += timed(spans, "tracestream.write", id, [&] {
        tracestream::ChunkedTraceWriter writer(path);
        for (const trace::TraceRecord &r : mt.records)
            writer.append(r);
        writer.finish();
    });
    t.streamRecords += mt.size();
    t.streamBytes += std::filesystem::file_size(path);
}

/** Streams the container back (span tracestream.read). */
trace::TraceAnalysis
readContainer(const std::string &path, std::uint64_t id,
              SpanRecorder &spans, LayerTotals &t)
{
    trace::TraceAnalysis streamed;
    t.readNs += timed(spans, "tracestream.read", id, [&] {
        streamed = tracestream::analyzeTraceStream(path);
    });
    return streamed;
}

void
tracedSynthetic(const Point &p, std::uint64_t id, const char *root_name,
                const std::string &work_dir, SpanRecorder &spans,
                LayerTotals &t, PointResult &out)
{
    const std::string path = work_dir + "/trace-stream.iwct";
    trace::MaskTrace mt;
    trace::TraceAnalysis streamed;
    {
        const RootScope root(&spans, root_name, id);
        timed(spans, "trace.synthesize", id,
              [&] { mt = trace::synthesize(p.profile); });
        writeContainer(mt, path, id, spans, t);
        streamed = readContainer(path, id, spans, t);
    }
    out.digest = digestAnalysis(streamed);
    out.ok = out.digest == p.expected &&
        mt.size() == p.profile.instructions;
    for (const std::uint64_t c : streamed.euCycles)
        out.simCycles += c;
    out.records = mt.size() + streamed.records;

    const RootScope isolated(&spans, "isolated", id);
    const std::uint64_t lookups_before = t.planLookups;
    const trace::TraceAnalysis in_memory = maskPasses(mt, id, spans, t);
    out.ok &= fidelity(p.key, "plan lookups",
                       t.planLookups - lookups_before,
                       in_memory.aluRecords) &&
        fidelity(p.key, "in-memory analysis digest",
                 digestAnalysis(in_memory), p.expected);
}

void
tracedTiming(const Point &p, std::uint64_t id, const char *root_name,
             const std::string &work_dir, SpanRecorder &spans,
             Goldens &goldens, LayerTotals &t, PointResult &out)
{
    const run::RunRequest &rq = p.request;
    const gpu::GpuConfig &config = rq.config;
    const std::uint8_t mask = rq.kind == run::JobKind::TimingCompare
        ? run::normalizedCompareModes(rq.compareModes)
        : static_cast<std::uint8_t>(
              1u << static_cast<unsigned>(config.eu.mode));
    const unsigned lead = static_cast<unsigned>(std::countr_zero(mask));

    // The point: what executeRun does, one layer call at a time.
    run::RunResult result;
    result.kind = rq.kind;
    result.label = rq.workload;
    eu::IssueTrace capture;
    gpu::LaunchStats lead_stats;
    {
        const RootScope root(&spans, root_name, id);
        gpu::Device dev(config);
        workloads::Workload w;
        t.buildNs += timed(spans, "workloads.build", id, [&] {
            w = workloads::make(rq.workload, dev, rq.scale);
        });
        ++t.builds;
        result.kernelDigest = w.kernel.digest();
        for (unsigned m = 0; m < compaction::kNumModes; ++m) {
            if ((mask & (1u << m)) == 0)
                continue;
            const auto mode = static_cast<compaction::Mode>(m);
            dev.config().eu.mode = mode;
            gpu::LaunchStats stats;
            if (m == lead) {
                t.captureNs += timed(spans, "gpu.capture", id, [&] {
                    stats = dev.launchCapture(w.kernel, w.globalSize,
                                              w.localSize, w.args,
                                              capture);
                });
                lead_stats = stats;
                if (rq.checkOutput) {
                    timed(spans, "workloads.check", id, [&] {
                        result.checked = true;
                        result.checkOk = w.check ? w.check(dev) : true;
                    });
                }
            } else {
                t.replayNs += timed(spans, "gpu.replay", id, [&] {
                    stats = dev.launchReplay(w.kernel, w.globalSize,
                                             w.localSize, w.args, capture);
                });
                t.replayInstrs += stats.eu.instructions;
                t.replayEvents += eventsVisited(stats);
            }
            addLaunch(t, stats);
            if (rq.kind == run::JobKind::TimingCompare)
                result.compare.push_back({mode, stats});
            else
                result.stats = stats;
        }
    }
    checkResult(p, result, goldens, out);

    // Isolated-layer passes over the point's captured inputs.
    const RootScope isolated(&spans, "isolated", id);
    bool ok = true;
    gpu::GpuConfig lead_config = config;
    lead_config.eu.mode = static_cast<compaction::Mode>(lead);
    gpu::Device dev(lead_config);
    workloads::Workload w;
    timed(spans, "workloads.build", id,
          [&] { w = workloads::make(rq.workload, dev, rq.scale); });
    const std::vector<isa::Instruction> &instrs = w.kernel.instructions();

    std::uint64_t func_instrs = 0;
    t.funcNs += timed(spans, "func.only", id, [&] {
        func_instrs = dev.launchFunctional(w.kernel, w.globalSize,
                                           w.localSize, w.args);
    });
    t.funcInstrs += func_instrs;
    ok &= fidelity(p.key, "functional instructions", func_instrs,
                   lead_stats.eu.instructions);

    gpu::LaunchStats replayed;
    const std::int64_t replay_ns = timed(spans, "gpu.replay", id, [&] {
        replayed = dev.launchReplay(w.kernel, w.globalSize, w.localSize,
                                    w.args, capture);
    });
    t.leadReplayNs += replay_ns;
    t.replayNs += replay_ns;
    t.replayInstrs += replayed.eu.instructions;
    t.replayEvents += eventsVisited(replayed);
    ok &= fidelity(p.key, "lead-mode replay digest",
                   digestStats(replayed), digestStats(lead_stats));

    trace::MaskTrace mt;
    timed(spans, "bench.masks", id, [&] {
        for (const std::vector<eu::IssueRecord> &stream : capture.streams)
            for (const eu::IssueRecord &rec : stream)
                mt.append(trace::recordOf(instrs[rec.ip], rec.execMask));
    });
    ok &= fidelity(p.key, "captured masks", mt.size(),
                   lead_stats.eu.instructions);

    // Global messages replayed in stream order, each issued when the
    // previous one completes.
    mem::MemSystem mem(config.mem);
    std::uint64_t messages = 0;
    std::uint64_t lines = 0;
    t.memNs += timed(spans, "mem.only", id, [&] {
        std::vector<Addr> buf;
        Cycle now = 0;
        for (const std::vector<eu::IssueRecord> &stream : capture.streams) {
            for (const eu::IssueRecord &rec : stream) {
                if ((rec.flags & eu::IssueRecord::kHasMem) == 0)
                    continue;
                const isa::SendOp op = instrs[rec.ip].send.op;
                if (isa::isSlmSend(op))
                    continue;
                const auto first = capture.lines.begin() + rec.lineOff;
                buf.assign(first, first + rec.lineCount);
                const bool is_write = op == isa::SendOp::ScatterStore ||
                    op == isa::SendOp::BlockStore;
                const mem::MemResult res =
                    mem.accessGlobal(buf, is_write, now);
                now = res.completion;
                ++messages;
                lines += res.lines;
            }
        }
    });
    t.memMessages += messages;
    t.memLines += lines;
    ok &= fidelity(p.key, "memory messages", messages,
                   lead_stats.eu.memMessages - lead_stats.eu.slmMessages);
    ok &= fidelity(p.key, "memory lines", lines, lead_stats.eu.memLines);

    const std::uint64_t lookups_before = t.planLookups;
    const trace::TraceAnalysis in_memory = maskPasses(mt, id, spans, t);
    ok &= fidelity(p.key, "plan lookups", t.planLookups - lookups_before,
                   lead_stats.eu.aluInstructions);

    const std::string path = work_dir + "/isolated.iwct";
    writeContainer(mt, path, id, spans, t);
    const trace::TraceAnalysis streamed = readContainer(path, id, spans, t);
    ok &= fidelity(p.key, "streamed analysis digest",
                   digestAnalysis(streamed), digestAnalysis(in_memory));
    out.ok &= ok;
}

} // namespace

PointResult
runTracedPoint(const Point &p, std::uint64_t id,
               const std::string &work_dir, SpanRecorder &spans,
               Goldens &goldens, LayerTotals &totals, const char *root)
{
    PointResult out;
    out.key = p.key;
    const Clock::time_point t0 = Clock::now();
    try {
        if (p.synthetic)
            tracedSynthetic(p, id, root, work_dir, spans, totals, out);
        else
            tracedTiming(p, id, root, work_dir, spans, goldens, totals, out);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "point %s failed: %s\n", p.key.c_str(),
                     e.what());
        out.ok = false;
    }
    out.wallS = std::chrono::duration<double>(Clock::now() - t0).count();
    return out;
}

} // namespace hostbench
