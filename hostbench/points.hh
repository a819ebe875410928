/**
 * @file
 * The benchmark's workloads as lists of points, and one untraced
 * execution of a point. A point is one request (a registry kernel
 * under one machine configuration) or one synthetic trace profile.
 * Every executed point is checked: the workload's host reference
 * check, and a digest of its simulated results against the goldens.
 */

#ifndef IWC_HOSTBENCH_POINTS_HH
#define IWC_HOSTBENCH_POINTS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gpu/simulator.hh"
#include "run/run.hh"
#include "run/sweep_runner.hh"
#include "trace/analyzer.hh"
#include "trace/synthetic.hh"

namespace hostbench
{

enum class WorkloadKind
{
    DivergentCompare,
    MemoryBound,
    TraceStream,
    PaperSweep,
};

/** Parses a workload name; false if unknown. */
bool parseWorkload(const std::string &name, WorkloadKind &kind);

/** One unit of work (see file comment). */
struct Point
{
    /** Golden-digest key, stable across seeds for registry points. */
    std::string key;
    /** Registry points: the request (Timing or TimingCompare). */
    iwc::run::RunRequest request;
    /** Trace-stream points: the profile, seeded by the benchmark. */
    iwc::trace::SyntheticProfile profile;
    /** Trace-stream points: the profile's own seed, at which set-up
     *  checks the analysis against the golden under @ref key. */
    std::uint64_t profileSeed = 0;
    bool synthetic = false;
    /** Trace-stream points: digest of the in-memory analysis of the
     *  same profile and seed, computed during set-up. */
    std::uint64_t expected = 0;
};

/** A workload instance: its points and where it may write files. */
struct Workload
{
    WorkloadKind kind = WorkloadKind::DivergentCompare;
    std::vector<Point> points;
    /** Points the traced run feeds through the isolated-layer passes;
     *  the serial workloads use their own points. */
    std::vector<Point> isolation;
    /** Scratch directory for .iwct containers. */
    std::string workDir;
    /** Worker threads of the paper-sweep SweepRunner. */
    unsigned jobs = 1;
    /** Nominal seconds of one timed pass, as measured on a 4-vCPU
     *  2.1 GHz Xeon. --seconds over this fixes the number of timed
     *  passes, so every build draws the same number of samples however
     *  fast it runs. */
    double passS = 1;
};

/** Builds the point lists of @p kind; @p seed sets synthetic seeds. */
Workload makeWorkload(WorkloadKind kind, std::uint64_t seed,
                      const std::string &work_dir);

/** Golden digests keyed by Point::key; records instead of checking
 *  when @ref recording is set. */
struct Goldens
{
    std::map<std::string, std::uint64_t> digests;
    bool recording = false;

    bool load(const std::string &path);
    bool save(const std::string &path) const;
    /** True if @p digest matches (or was recorded under) @p key. */
    bool check(const std::string &key, std::uint64_t digest);
};

/** Outcome of one executed point. */
struct PointResult
{
    std::string key;
    double wallS = 0;
    /** Simulated cycles: launch cycles summed over every timed mode,
     *  or the analyzer's EU cycles summed over every mode. */
    std::uint64_t simCycles = 0;
    /** Dynamic instruction records issued, written or analysed. */
    std::uint64_t records = 0;
    std::uint64_t digest = 0;
    bool ok = true;
};

/** Digest of every simulated LaunchStats field. The host-side
 *  counters (see HostCounters) are left out: they describe the
 *  simulator, not the simulated machine. */
std::uint64_t digestStats(const iwc::gpu::LaunchStats &stats);
std::uint64_t digestAnalysis(const iwc::trace::TraceAnalysis &analysis);

/** Digest of a whole run result (every mode of a compare). */
std::uint64_t digestResult(const iwc::run::RunResult &result);

/**
 * The host-side counters that live in LaunchStats today but describe
 * the simulator rather than the simulated machine. Read only here, so
 * moving them out of LaunchStats changes one function.
 */
struct HostCounters
{
    std::uint64_t planCacheHits = 0;
    std::uint64_t planCacheMisses = 0;
    std::uint64_t idleCyclesSkipped = 0;
    std::uint64_t idleSkips = 0;
};
HostCounters hostCounters(const iwc::gpu::LaunchStats &stats);

/** Process-wide cache counters (predecode and shared plan table). */
struct CacheCounters
{
    std::uint64_t predecodeHits = 0;
    std::uint64_t predecodeMisses = 0;
    std::uint64_t sharedPlanHits = 0;
    std::uint64_t sharedPlanMisses = 0;
};
CacheCounters cacheCounters();

/**
 * Builds every registry instance and synthesizes every expected trace
 * analysis of @p w (the non-pass part of set-up). Each trace point is
 * also analysed at its profile's own seed and checked against the
 * goldens, so the planner and analyzer are checked whatever --seed is;
 * returns one result per such check.
 */
std::vector<PointResult> buildInstances(Workload &w, Goldens &goldens);

/** Checks a registry result (reference check and golden digest) and
 *  adds its simulated work to @p out. */
void checkResult(const Point &point, const iwc::run::RunResult &result,
                 Goldens &goldens, PointResult &out);

/** Runs one serial point untraced and checks it. */
PointResult runPoint(const Point &point, const std::string &work_dir,
                     Goldens &goldens);

/** One paper-sweep pass: per-request results plus the completion
 *  time of every sweep job, in completion order. */
struct SweepPass
{
    std::vector<PointResult> points;
    std::vector<double> jobDoneS;
    double wallS = 0;
    unsigned workers = 1;
    iwc::run::SweepStats stats;
};

class SpanRecorder;

/** Runs every point of a paper-sweep workload through one
 *  SweepRunner in the given order and checks each result. With a
 *  recorder, the SweepRunner::run call is a "run.sweep" span of
 *  point @p id. */
SweepPass runSweep(const std::vector<Point> &points, unsigned jobs,
                   Goldens &goldens, SpanRecorder *spans = nullptr,
                   std::uint64_t id = 0);

} // namespace hostbench

#endif // IWC_HOSTBENCH_POINTS_HH
