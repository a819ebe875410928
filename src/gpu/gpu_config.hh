/**
 * @file
 * Whole-GPU configuration: the machine parameters of the paper's
 * Table 3 plus knobs for the sensitivity studies. A config can be
 * overridden from the command line via an OptionMap, which is how the
 * bench drivers expose DC1/DC2, perfect-L3, compaction mode, etc.
 */

#ifndef IWC_GPU_GPU_CONFIG_HH
#define IWC_GPU_GPU_CONFIG_HH

#include "common/config.hh"
#include "eu/eu_core.hh"
#include "mem/mem_system.hh"

namespace iwc::obs
{
class EventSink;
}

namespace iwc::gpu
{

/**
 * Which top-level simulation loop drives a launch. Both engines
 * produce bit-identical LaunchStats (enforced by the cycle-exactness
 * gate in tests/test_sim_engines.cc): the event engine visits exactly
 * the per-cycle loop's cycle set, it just reaches each visited cycle
 * through the next-event calendar instead of polling every EU. The
 * choice is therefore deliberately excluded from the canonical config
 * encoding and every cache key — it can never change a result, only
 * how fast the result is computed.
 */
enum class SimEngine
{
    Event,     ///< next-event calendar (the default)
    Reference, ///< retained per-cycle polling loop (the oracle)
};

/** See file comment. */
struct GpuConfig
{
    unsigned numEus = 6;
    eu::EuConfig eu;
    mem::MemConfig mem;
    Cycle dispatchLatency = 26; ///< thread-spawn to first-issue latency
    Cycle maxCycles = 1ull << 33; ///< runaway-simulation guard

    /** Simulation loop implementation (see SimEngine: not a key). */
    SimEngine engine = SimEngine::Event;

    /**
     * Observability sink wired into every EU, the dispatcher, and the
     * simulator top level (see src/obs). Null — the default — turns
     * tracing off entirely: no events are built, and the timing model
     * runs the exact pre-observability code path. The sink is not
     * owned and must outlive every launch; runs executing concurrently
     * (SweepRunner jobs) must not share one sink.
     */
    obs::EventSink *sink = nullptr;
};

/** Table 3 configuration (Ivy Bridge-like, DC1 memory subsystem). */
GpuConfig ivbConfig();

/** ivbConfig() with the compaction mode overridden. */
GpuConfig ivbConfig(compaction::Mode mode);

/**
 * Applies "key=value" overrides: mode=baseline|ivb|bcc|scc,
 * backend=auto|scalar|vector, eus=N, threads=N, dc=1|2,
 * perfect_l3=0|1, issue_width=N, arb_period=N, dram_latency=N,
 * l3_kb=N, llc_kb=N.
 */
GpuConfig applyOptions(GpuConfig config, const OptionMap &opts);

/** Parses a compaction mode name (baseline/ivb/bcc/scc). */
compaction::Mode parseMode(const std::string &name);

/** Parses a simulation engine name (event/reference). */
SimEngine parseSimEngine(const std::string &name);

/**
 * Canonical text encoding of a config: one "key=value" line per
 * field in a fixed order, covering every simulation-relevant field
 * (the observability sink pointer is excluded — it never changes a
 * result). Two configs encode identically iff they simulate
 * identically, regardless of how or in what order their fields were
 * assigned, so the encoding (and its digest) is the config half of
 * run::CacheKey.
 */
std::string encodeCanonical(const GpuConfig &config);

/**
 * Strict inverse of encodeCanonical: parses the canonical text back
 * into a config. Returns false (leaving @p out unspecified) on any
 * unknown key, malformed value, or unsupported version line. Only
 * the tests call it; ROADMAP item 7 schedules its removal.
 */
bool decodeCanonical(const std::string &text, GpuConfig &out);

/** Stable 64-bit digest of encodeCanonical(config). */
std::uint64_t configDigest(const GpuConfig &config);

} // namespace iwc::gpu

#endif // IWC_GPU_GPU_CONFIG_HH
