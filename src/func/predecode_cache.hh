/**
 * @file
 * Process-wide predecode cache. DecodedKernel is a pure function of
 * the kernel bytes, yet before this cache every ExecBackend (one per
 * EU per launch, six per launch, and one per functional run) redid the
 * full predecode pass. The cache keys on Kernel::digest() — the same
 * stable 64-bit digest RunResult::kernelDigest reports — and hands out
 * shared immutable entries, so SweepRunner jobs and multi-mode compare
 * runs decode each distinct kernel once per process. Entries own a copy of the kernel because
 * DecodedInstr::instr points into the source kernel's instruction
 * storage; tying both lifetimes into one shared entry keeps those
 * pointers valid for as long as any backend holds the entry.
 *
 * Hit/miss counters are process totals for observability (perf
 * tooling, hostbench, tests); they never feed back into per-run
 * LaunchStats, which must stay a pure function of the request.
 */

#ifndef IWC_FUNC_PREDECODE_CACHE_HH
#define IWC_FUNC_PREDECODE_CACHE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "func/predecode.hh"
#include "isa/kernel.hh"

namespace iwc::func
{

/** One immutable shared predecode result (see file comment). */
struct PredecodedKernel
{
    explicit PredecodedKernel(const isa::Kernel &k)
        : kernel(k), decoded(kernel)
    {
    }

    isa::Kernel kernel; ///< owned copy the decoded form points into
    DecodedKernel decoded;
};

/** Process-wide digest-keyed cache of predecode results. */
class PredecodeCache
{
  public:
    /** The process-wide instance every backend shares. */
    static PredecodeCache &instance();

    /**
     * Returns the shared predecode entry for @p kernel, decoding it
     * on first sight. Thread-safe; the returned entry is immutable
     * and outlives the cache slot (callers hold shared ownership).
     */
    std::shared_ptr<const PredecodedKernel> get(const isa::Kernel &kernel);

    std::uint64_t
    hits() const
    {
        return hits_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    misses() const
    {
        return misses_.load(std::memory_order_relaxed);
    }

    /** Number of currently cached kernels. */
    std::size_t size() const;

    /** Drops every entry (tests; in-use entries stay alive). */
    void clear();

  private:
    /**
     * Bound on resident entries: far above any real corpus (42
     * workloads x melded variants), so eviction only guards runaway
     * synthetic kernel generators. On overflow the map is dropped
     * wholesale — in-flight users keep their shared entries alive and
     * the hot set simply re-decodes once.
     */
    static constexpr std::size_t kMaxEntries = 1024;

    mutable std::mutex mu_;
    std::unordered_map<std::uint64_t,
                       std::shared_ptr<const PredecodedKernel>>
        entries_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
};

} // namespace iwc::func

#endif // IWC_FUNC_PREDECODE_CACHE_HH
