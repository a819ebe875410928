/**
 * @file
 * The traced run. A traced point makes the same calls the untraced
 * point makes, but one layer at a time from the benchmark's own code,
 * each call wrapped in a span: workloads::make, the capturing and the
 * replaying Device launches, the reference check. After the point,
 * the isolated-layer passes feed the point's own captured inputs
 * through one layer each: a functional-only launch, a replay of the
 * lead mode, the captured memory messages through a standalone
 * MemSystem, the captured masks through TraceAnalyzer::add and
 * analyzeTrace, and the masks written to and streamed back from a
 * .iwct container. Their work counts must equal what the full run
 * saw, or the point fails.
 */

#ifndef IWC_HOSTBENCH_LAYERS_HH
#define IWC_HOSTBENCH_LAYERS_HH

#include <cstdint>
#include <string>

#include "points.hh"
#include "spans.hh"

namespace hostbench
{

/** Per-layer work and isolated-pass times summed over traced points. */
struct LayerTotals
{
    // workloads + isa
    std::int64_t buildNs = 0;
    std::uint64_t builds = 0;
    // func
    std::int64_t funcNs = 0;
    std::uint64_t funcInstrs = 0;
    std::int64_t captureNs = 0;
    std::int64_t leadReplayNs = 0;
    // eu + gpu: every replaying launch, in the point and isolated
    std::int64_t replayNs = 0;
    std::uint64_t replayInstrs = 0;
    std::uint64_t replayEvents = 0;
    // eu + gpu + mem: the point's own launches
    iwc::gpu::LaunchStats launches;
    std::uint64_t idleCyclesSkipped = 0;
    std::uint64_t idleSkips = 0;
    // compaction
    std::int64_t planNs = 0;
    std::uint64_t planLookups = 0;
    std::uint64_t planHits = 0;
    std::uint64_t planMisses = 0;
    std::uint64_t distinctShapes = 0;
    std::int64_t planComputeNs = 0;
    // mem (standalone replay)
    std::int64_t memNs = 0;
    std::uint64_t memMessages = 0;
    std::uint64_t memLines = 0;
    // trace
    std::int64_t traceNs = 0;
    std::uint64_t traceRecords = 0;
    // tracestream
    std::int64_t writeNs = 0;
    std::int64_t readNs = 0;
    std::uint64_t streamRecords = 0;
    std::uint64_t streamBytes = 0;
};

/**
 * Runs @p point traced as point @p id (spans under a root span named
 * @p root), then its isolated-layer passes (spans under an "isolated"
 * root). Checks results like runPoint plus the input-fidelity checks.
 */
PointResult runTracedPoint(const Point &point, std::uint64_t id,
                           const std::string &work_dir,
                           SpanRecorder &spans, Goldens &goldens,
                           LayerTotals &totals,
                           const char *root = "point");

} // namespace hostbench

#endif // IWC_HOSTBENCH_LAYERS_HH
