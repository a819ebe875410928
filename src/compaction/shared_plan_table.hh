/**
 * @file
 * Process-wide memoization of cycle-plan costs. PlanCosts is a pure
 * function of ExecShape (no kernel or run state), so the results one
 * run computes are valid for every other run in the process — yet the
 * per-EU PlanCache used to recompute them per launch. The shared
 * table is the second level behind those per-EU caches: an L1 miss
 * consults it before falling back to the planCycleCount/planScc
 * computation, so SweepRunner jobs and multi-mode compare runs plan
 * each (width, elem, mask) shape once per process.
 *
 * The per-EU caches stay in front on purpose: their hit/miss counts
 * are reported in LaunchStats, which must remain a pure function of
 * the request (the engine-parity and capture/replay tests compare
 * every field bit for bit), so per-run counters cannot observe
 * cross-run table state. The shared table's own counters are
 * process totals for observability only.
 *
 * Concurrency: direct-mapped slots hold the packed costs in one
 * atomic and a valid flag in another, published with release/acquire
 * ordering. Two threads that race on first sight of a shape both
 * compute the same pure value and store identical bytes — the race is
 * benign and every access is atomic, so it is also data-race-free.
 */

#ifndef IWC_COMPACTION_SHARED_PLAN_TABLE_HH
#define IWC_COMPACTION_SHARED_PLAN_TABLE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "compaction/plan_cache.hh"

namespace iwc::compaction
{

/** Process-wide shape-keyed plan cost table (see file comment). */
class SharedPlanTable
{
  public:
    /** The process-wide instance every PlanCache shares. */
    static SharedPlanTable &instance();

    /** Plan costs for @p shape, memoized process-wide. Thread-safe. */
    PlanCosts costs(const ExecShape &shape);

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

  private:
    static constexpr unsigned kDirectMappedWidth = 16;
    static constexpr std::uint32_t kValid = 1u << 16;

    /**
     * One direct-mapped entry. cycles packs the four per-mode u16
     * counts; state packs the SCC swizzle count (low 16 bits) with
     * the valid bit. Writers store cycles first, then release-store
     * state; readers acquire-load state before reading cycles.
     */
    struct Slot
    {
        std::atomic<std::uint64_t> cycles{0};
        std::atomic<std::uint32_t> state{0};
    };

    Slot *table(unsigned width_index, unsigned shift, unsigned width);

    /** [widthIndex][elemShift] lazily-published slot arrays. */
    std::array<std::array<std::atomic<Slot *>, 4>, 5> tables_{};
    std::mutex allocMu_;
    std::vector<std::unique_ptr<Slot[]>> owned_;

    /** SIMD32 masks, per element shift, mutex-guarded. */
    std::array<std::unordered_map<LaneMask, PlanCosts>, 4> wide_;
    std::mutex wideMu_;

    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
};

} // namespace iwc::compaction

#endif // IWC_COMPACTION_SHARED_PLAN_TABLE_HH
