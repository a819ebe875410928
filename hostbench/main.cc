/**
 * @file
 * Host-time benchmark of the IWC simulator. One process runs one
 * workload: set-up (build every instance, then one untimed warm-up
 * pass that fills the process-wide predecode and plan caches), then
 * timed passes over the workload's points until --seconds have
 * passed. Every point is checked. The last line of stdout is one JSON
 * object with the end-to-end metrics (--trace 0) or the per-layer
 * metrics of the traced run (--trace 1). See README.md.
 *
 *   hostbench --workload divergent-compare --seed 1 --seconds 10
 *             --trace 0 --goldens hostbench/goldens.txt
 *             --work-dir .bench_build/work
 */

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "layers.hh"
#include "points.hh"
#include "spans.hh"

namespace
{

using namespace hostbench;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string goldens;
    std::string workDir = ".";
    bool recordGoldens = false;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "hostbench: %s\nusage: hostbench --workload NAME "
                 "--seed N --seconds S --trace 0|1 --goldens FILE "
                 "--work-dir DIR [--record-goldens]\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--record-goldens") {
            o.recordGoldens = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            o.workload = value;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(value.c_str(), &end);
        } else if (arg == "--trace") {
            o.trace = value == "1";
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
        } else if (arg == "--goldens") {
            o.goldens = value;
        } else if (arg == "--work-dir") {
            o.workDir = value;
        } else {
            usage(("unknown option " + arg).c_str());
        }
        if (end != nullptr && *end != '\0')
            usage(("bad value for " + arg).c_str());
    }
    if (o.goldens.empty())
        usage("--goldens is required");
    if (!(o.seconds > 0))
        usage("--seconds must be positive");
    return o;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Percentile with linear interpolation between the two nearest ranks,
 * so a percentile that falls between two points of different sizes
 * reads both of them instead of jumping from one to the other.
 */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** Peak resident set of this process (VmHWM) in MB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0;
}

/** Totals of one pass over a workload. */
struct Pass
{
    double wallS = 0;
    std::uint64_t simCycles = 0;
    std::uint64_t records = 0;
    /** Point latencies; for the sweep, job completion times. */
    std::vector<double> pointMs;
    /** Makespan minus the time at which queued work ran out. */
    double tailS = 0;
    unsigned attempted = 0;
    unsigned failed = 0;
    iwc::run::SweepStats sweep;
    CacheCounters cacheDelta;
    /** Point keys, in the order of @ref pointMs. */
    std::vector<std::string> keys;
};

CacheCounters
operator-(const CacheCounters &a, const CacheCounters &b)
{
    return {a.predecodeHits - b.predecodeHits,
            a.predecodeMisses - b.predecodeMisses,
            a.sharedPlanHits - b.sharedPlanHits,
            a.sharedPlanMisses - b.sharedPlanMisses};
}

void
account(Pass &pass, const PointResult &r)
{
    ++pass.attempted;
    if (!r.ok) {
        ++pass.failed;
        std::fprintf(stderr, "point %s: check failed\n", r.key.c_str());
    }
    pass.simCycles += r.simCycles;
    pass.records += r.records;
    pass.keys.push_back(r.key);
}

/** Queue-drain tail: with W workers, the queue is empty once the
 *  (N-W)-th job completes, so the tail is the makespan minus that
 *  completion time (for one worker, the last point's latency). */
double
tailOf(const std::vector<double> &done_s, double wall_s, unsigned workers)
{
    if (done_s.size() <= workers)
        return wall_s;
    std::vector<double> sorted = done_s;
    std::sort(sorted.begin(), sorted.end());
    return wall_s - sorted[sorted.size() - workers - 1];
}

class Runner
{
  public:
    Runner(Workload &w, Goldens &goldens, std::uint64_t seed)
        : w_(w), goldens_(goldens), rng_(seed ^ 0x9e3779b97f4a7c15ull)
    {
    }

    /**
     * One pass over every point: serial workloads in a fresh seed-drawn
     * order, the sweep in tab04's order. With a recorder it is a traced
     * pass and also runs the isolated-layer passes, adding their work
     * to @p totals.
     */
    Pass
    run(SpanRecorder *spans = nullptr, LayerTotals *totals = nullptr)
    {
        Pass pass;
        const CacheCounters before = cacheCounters();
        if (w_.kind == WorkloadKind::PaperSweep) {
            // Not shuffled: the submission order decides which jobs have
            // completed when a completion-time percentile is read, so a
            // seed-drawn order would move the percentiles seed to seed.
            SweepPass sweep;
            {
                const std::uint64_t id = nextId_++;
                const RootScope root(spans, "point", id);
                sweep = runSweep(w_.points, w_.jobs, goldens_, spans, id);
            }
            pass.wallS = sweep.wallS;
            for (const PointResult &r : sweep.points)
                account(pass, r);
            for (const double at : sweep.jobDoneS)
                pass.pointMs.push_back(at * 1e3);
            pass.tailS = tailOf(sweep.jobDoneS, sweep.wallS, sweep.workers);
            pass.sweep = sweep.stats;
            pass.cacheDelta = cacheCounters() - before;
            if (spans != nullptr)
                for (const Point &p : w_.isolation)
                    account(pass, runTracedPoint(p, nextId_++, w_.workDir,
                                                 *spans, goldens_, *totals,
                                                 "sweep-point"));
            return pass;
        }
        std::shuffle(w_.points.begin(), w_.points.end(), rng_);
        const Clock::time_point t0 = Clock::now();
        std::vector<double> done_s;
        double at = 0;
        for (const Point &p : w_.points) {
            const PointResult r = spans != nullptr
                ? runTracedPoint(p, nextId_++, w_.workDir, *spans,
                                 goldens_, *totals)
                : runPoint(p, w_.workDir, goldens_);
            account(pass, r);
            pass.pointMs.push_back(r.wallS * 1e3);
            at += r.wallS;
            done_s.push_back(at);
        }
        pass.wallS = std::chrono::duration<double>(Clock::now() - t0).count();
        pass.tailS = tailOf(done_s, at, 1);
        pass.cacheDelta = cacheCounters() - before;
        return pass;
    }

  private:
    Workload &w_;
    Goldens &goldens_;
    std::mt19937_64 rng_;
    std::uint64_t nextId_ = 1;
};

/** Set-up: every instance built, then one untimed warm-up pass. */
double
setUp(Workload &w, Goldens &goldens, std::uint64_t seed, Pass &warm)
{
    const Clock::time_point t0 = Clock::now();
    const std::vector<PointResult> golden_checks = buildInstances(w, goldens);
    Runner runner(w, goldens, seed);
    warm = runner.run();
    for (const PointResult &r : golden_checks)
        account(warm, r);
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Set-up samples taken in child processes, besides the main one. */
constexpr unsigned kSetupChildren = 2;

/**
 * Set-up repeated in fresh child processes, one after another, so
 * every sample starts with cold process-wide caches. Forked before
 * the parent starts any thread. Returns the child set-up times; a
 * child that fails or finds a failed point adds to @p failed.
 */
std::vector<double>
childSetUps(const Options &o, WorkloadKind kind, const Goldens &goldens,
            unsigned &failed)
{
    std::vector<double> times;
    for (unsigned c = 0; c < kSetupChildren; ++c) {
        int fds[2];
        if (pipe(fds) != 0) {
            ++failed;
            continue;
        }
        std::fflush(nullptr);
        const pid_t pid = fork();
        if (pid == 0) {
            close(fds[0]);
            Goldens g = goldens;
            Workload w = makeWorkload(kind, o.seed, o.workDir);
            Pass warm;
            double s = -1;
            try {
                s = setUp(w, g, o.seed, warm);
            } catch (...) {
            }
            if (warm.failed != 0)
                s = -1;
            const ssize_t n = write(fds[1], &s, sizeof s);
            _exit(n == sizeof s ? 0 : 1);
        }
        close(fds[1]);
        double s = -1;
        if (pid < 0 || read(fds[0], &s, sizeof s) != sizeof s)
            s = -1;
        close(fds[0]);
        int status = 0;
        if (pid > 0)
            waitpid(pid, &status, 0);
        if (s < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
            ++failed;
        else
            times.push_back(s);
    }
    return times;
}

/** Collects "name value unit" rows and prints the result line. */
class Report
{
  public:
    void
    add(const std::string &name, double value, const char *unit,
        std::size_t samples = 0)
    {
        rows_.push_back({name, value, unit, samples});
    }

    void
    print(bool correct, unsigned attempted, unsigned failed) const
    {
        for (const Row &r : rows_) {
            std::printf("%-32s %16.6f %s", r.name.c_str(), r.value,
                        r.unit);
            if (r.samples != 0)
                std::printf("  (n=%zu)", r.samples);
            std::printf("\n");
        }
        std::printf("{\"correct\": %s, \"attempted\": %u, \"failed\": %u, "
                    "\"metrics\": {",
                    correct ? "true" : "false", attempted, failed);
        for (std::size_t i = 0; i < rows_.size(); ++i)
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", rows_[i].name.c_str(),
                        rows_[i].value, rows_[i].unit);
        std::printf("}}\n");
    }

  private:
    struct Row
    {
        std::string name;
        double value;
        const char *unit;
        std::size_t samples;
    };
    std::vector<Row> rows_;
};

/**
 * Pass time and point latencies with host noise filtered out. A
 * shared host can slow whole stretches of seconds by 10-40% at
 * random, which moves medians run to run; the fastest observation of
 * each point over the timed passes does not move with it (see
 * README.md). Serial workloads: each point's best latency, summed for
 * the pass time. The sweep, whose points overlap: the best sweep, and
 * per-pass completion-time percentiles, best over the passes.
 */
struct BestOf
{
    double passS = 0;
    double p50Ms = 0;
    double p90Ms = 0;
    std::size_t samples = 0;
};

BestOf
bestOf(const std::vector<Pass> &passes, bool serial)
{
    BestOf b;
    if (!serial) {
        b.passS = passes.front().wallS;
        b.p50Ms = b.p90Ms = passes.front().pointMs.empty() ? 0 : 1e300;
        for (const Pass &p : passes) {
            b.passS = std::min(b.passS, p.wallS);
            b.p50Ms = std::min(b.p50Ms, percentile(p.pointMs, 50));
            b.p90Ms = std::min(b.p90Ms, percentile(p.pointMs, 90));
            b.samples += p.pointMs.size();
        }
        return b;
    }
    std::map<std::string, double> best_ms;
    for (const Pass &p : passes) {
        for (std::size_t i = 0; i < p.pointMs.size(); ++i) {
            const auto [it, fresh] =
                best_ms.emplace(p.keys[i], p.pointMs[i]);
            if (!fresh)
                it->second = std::min(it->second, p.pointMs[i]);
        }
        b.samples += p.pointMs.size();
    }
    std::vector<double> latencies;
    for (const auto &[key, ms] : best_ms) {
        b.passS += ms / 1e3;
        latencies.push_back(ms);
    }
    b.p50Ms = percentile(latencies, 50);
    b.p90Ms = percentile(latencies, 90);
    return b;
}

void
endToEnd(Report &report, const std::vector<Pass> &passes, bool serial,
         double setup_s, std::size_t setup_samples)
{
    // Every pass does the same simulated work, so one pass's totals
    // over the best pass time give the throughputs.
    const BestOf best = bestOf(passes, serial);
    const Pass &first = passes.front();
    report.add("setup_s", setup_s, "s", setup_samples);
    report.add("sim_cycles_per_s",
               ratio(static_cast<double>(first.simCycles), best.passS),
               "1/s", passes.size());
    report.add("records_per_s",
               ratio(static_cast<double>(first.records), best.passS), "1/s",
               passes.size());
    report.add("makespan_s", best.passS, "s", passes.size());
    report.add("point_p50_ms", best.p50Ms, "ms", best.samples);
    report.add("point_p90_ms", best.p90Ms, "ms", best.samples);
    report.add("peak_rss_mb", peakRssMb(), "MB");
}

/** One per-layer metric of one traced pass. */
struct LayerMetric
{
    const char *name;
    double value;
    const char *unit;
};

/** Per-layer values of one traced pass. */
std::vector<LayerMetric>
layerValues(const LayerTotals &t, const Pass &untraced,
            const std::map<std::string, std::int64_t> &self_ns)
{
    const iwc::gpu::LaunchStats &l = t.launches;
    const auto d = [](auto v) { return static_cast<double>(v); };
    std::vector<LayerMetric> v;
    const auto put = [&v](const char *name, double value,
                          const char *unit) {
        v.push_back({name, value, unit});
    };
    put("workloads.build_ms", ratio(d(t.buildNs) / 1e6, d(t.builds)),
        "ms/build");
    put("func.ns_per_instr", ratio(d(t.funcNs), d(t.funcInstrs)), "ns/instr");
    put("func.self_ms", d(t.captureNs - t.leadReplayNs) / 1e6, "ms/pass");
    put("func.instrs", d(t.funcInstrs), "count");
    put("replay.ns_per_instr", ratio(d(t.replayNs), d(t.replayInstrs)),
        "ns/instr");
    put("replay.ns_per_event", ratio(d(t.replayNs), d(t.replayEvents)),
        "ns/event");
    put("eu.instrs", d(l.eu.instructions), "count");
    put("eu.issue_slots_used", d(l.eu.issueSlotsUsed), "count");
    put("eu.simd_efficiency", l.eu.sumSimdWidth ? l.eu.simdEfficiency() : 0,
        "ratio");
    put("gpu.events_visited", d(l.totalCycles - t.idleCyclesSkipped), "count");
    put("gpu.idle_skip_frac", ratio(d(t.idleCyclesSkipped), d(l.totalCycles)),
        "ratio");
    put("gpu.idle_skips", d(t.idleSkips), "count");
    put("plan.ns_per_lookup", ratio(d(t.planNs), d(t.planLookups)),
        "ns/lookup");
    put("plan.lookups", d(t.planLookups), "count");
    put("plan.distinct_shapes", d(t.distinctShapes), "count");
    put("plan.hit_rate", ratio(d(t.planHits), d(t.planHits + t.planMisses)),
        "ratio");
    put("plan.compute_ns", ratio(d(t.planComputeNs), d(t.distinctShapes)),
        "ns/shape");
    put("mem.ns_per_line", ratio(d(t.memNs), d(t.memLines)), "ns/line");
    put("mem.messages", d(t.memMessages), "count");
    put("mem.lines", d(t.memLines), "count");
    put("mem.l3_hit_rate", ratio(d(l.l3Hits), d(l.l3Hits + l.l3Misses)),
        "ratio");
    put("mem.llc_hit_rate", ratio(d(l.llcHits), d(l.llcHits + l.llcMisses)),
        "ratio");
    put("mem.dram_lines", d(l.dramLines), "count");
    put("mem.dc_lines_per_cycle", ratio(d(l.dcLines), d(l.totalCycles)),
        "1/cycle");
    put("trace.ns_per_record", ratio(d(t.traceNs), d(t.traceRecords)),
        "ns/record");
    put("tracestream.write_ns_per_record",
        ratio(d(t.writeNs), d(t.streamRecords)), "ns/record");
    put("tracestream.read_ns_per_record",
        ratio(d(t.readNs), d(t.streamRecords)), "ns/record");
    put("tracestream.bytes_per_record",
        ratio(d(t.streamBytes), d(t.streamRecords)), "B/record");
    put("run.tail_s", untraced.tailS, "s/pass");
    put("run.compare_executions", d(untraced.sweep.compareExecutions), "count");
    put("run.compare_points", d(untraced.sweep.comparePoints), "count");
    put("run.trace_cache_hits", d(untraced.sweep.traceCacheHits), "count");
    put("cache.predecode_hits", d(untraced.cacheDelta.predecodeHits), "count");
    put("cache.predecode_misses", d(untraced.cacheDelta.predecodeMisses),
        "count");
    put("cache.shared_plan_hits", d(untraced.cacheDelta.sharedPlanHits),
        "count");
    put("cache.shared_plan_misses", d(untraced.cacheDelta.sharedPlanMisses),
        "count");
    // Each layer's share of the traced points' wall time; "point" is
    // the time no layer call covers.
    std::int64_t wall_ns = 0;
    for (const auto &[layer, ns] : self_ns)
        wall_ns += ns;
    const auto share = [&](const char *layer) {
        const auto it = self_ns.find(layer);
        return it == self_ns.end() ? 0.0 : ratio(d(it->second), d(wall_ns));
    };
    put("self.workloads_frac", share("workloads"), "ratio");
    put("self.gpu_frac", share("gpu"), "ratio");
    put("self.trace_frac", share("trace"), "ratio");
    put("self.tracestream_frac", share("tracestream"), "ratio");
    put("self.run_frac", share("run"), "ratio");
    put("self.unattributed_frac", share("point"), "ratio");
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    WorkloadKind kind;
    if (!parseWorkload(o.workload, kind))
        usage(("unknown workload '" + o.workload + "'").c_str());

    Goldens goldens;
    goldens.recording = o.recordGoldens;
    if (!o.recordGoldens && !goldens.load(o.goldens)) {
        std::fprintf(stderr, "hostbench: cannot read goldens %s\n",
                     o.goldens.c_str());
        return 1;
    }

    unsigned failed = 0;
    unsigned attempted = o.recordGoldens ? 0 : kSetupChildren;
    std::vector<double> setups;
    if (!o.recordGoldens)
        setups = childSetUps(o, kind, goldens, failed);

    Workload w = makeWorkload(kind, o.seed, o.workDir);
    Pass warm;
    setups.push_back(setUp(w, goldens, o.seed, warm));
    attempted += warm.attempted;
    failed += warm.failed;

    Runner runner(w, goldens, o.seed);
    std::vector<Pass> untraced;
    std::vector<std::vector<LayerMetric>> layers;
    std::vector<double> traced_wall;
    SpanRecorder spans;
    bool self_ok = true;
    const Clock::time_point t0 = Clock::now();
    const auto elapsed = [&] {
        return std::chrono::duration<double>(Clock::now() - t0).count();
    };
    // The end-to-end run makes a number of passes fixed by --seconds and
    // the workload's nominal pass time, so a slower build does not take
    // its best-of over fewer samples. The traced run, whose metrics are
    // medians, runs for --seconds.
    const auto passes = static_cast<std::size_t>(
        std::max(3.0, std::round(o.seconds / w.passS)));
    const auto more = [&] {
        return o.trace ? untraced.size() < 2 || elapsed() < o.seconds
                       : untraced.size() < passes;
    };
    while (more()) {
        untraced.push_back(runner.run());
        attempted += untraced.back().attempted;
        failed += untraced.back().failed;
        if (!o.trace)
            continue;
        LayerTotals totals;
        const std::size_t first = spans.size();
        const Pass traced = runner.run(&spans, &totals);
        attempted += traced.attempted;
        failed += traced.failed;
        std::map<std::string, std::int64_t> self_ns;
        if (!layerSelfTimes(spans, first, "point", self_ns)) {
            std::fprintf(stderr, "self-time identity violated\n");
            self_ok = false;
        }
        double point_s = 0;
        for (std::size_t i = first; i < spans.size(); ++i) {
            const Span &s = spans.spans()[i];
            if (s.parent < 0 && std::strcmp(s.name, "point") == 0)
                point_s += (s.endNs - s.startNs) / 1e9;
        }
        traced_wall.push_back(point_s);
        layers.push_back(layerValues(totals, untraced.back(), self_ns));
    }
    if (!self_ok) {
        ++attempted;
        ++failed;
    }

    if (o.recordGoldens && !goldens.save(o.goldens)) {
        std::fprintf(stderr, "hostbench: cannot write %s\n",
                     o.goldens.c_str());
        return 1;
    }

    Report report;
    if (!o.trace) {
        endToEnd(report, untraced, kind != WorkloadKind::PaperSweep,
                 median(setups), setups.size());
    } else {
        // Every traced pass yields the same metrics in the same order.
        for (std::size_t i = 0; i < layers.front().size(); ++i) {
            std::vector<double> values;
            for (const auto &pass : layers)
                values.push_back(pass[i].value);
            const LayerMetric &m = layers.front()[i];
            report.add(m.name, median(values), m.unit, values.size());
        }
        std::vector<double> untraced_wall;
        for (const Pass &p : untraced)
            untraced_wall.push_back(p.wallS);
        const double overhead = median(traced_wall) - median(untraced_wall);
        report.add("bench.tracing_overhead_ms", overhead * 1e3, "ms",
                   traced_wall.size());
        report.add("bench.tracing_overhead_frac",
                   ratio(overhead, median(untraced_wall)), "ratio",
                   traced_wall.size());
        const std::string path =
            o.workDir + "/spans-" + o.workload + ".jsonl";
        if (!spans.writeJsonLines(path))
            std::fprintf(stderr, "hostbench: cannot write %s\n",
                         path.c_str());
    }
    std::printf("%-32s %16.6f ratio  (%u of %u points failed)\n",
                "error_rate", ratio(failed, attempted), failed, attempted);
    report.print(failed == 0, attempted, failed);
    return 0;
}
