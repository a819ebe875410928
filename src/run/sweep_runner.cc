#include "run/sweep_runner.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>

namespace iwc::run
{

namespace
{

/**
 * One shared trace analysis: the first request to need it computes
 * it under the once_flag; later requests (other modes of the same
 * workload) reuse the stored result.
 */
struct CacheEntry
{
    std::once_flag once;
    trace::TraceAnalysis analysis;
    std::uint64_t kernelDigest = 0;
};

/** Cache key for requests whose analysis is config-independent. */
std::string
cacheKey(const RunRequest &request)
{
    if (request.factory)
        return {}; // opaque builder: never shared
    if (request.kind == JobKind::FunctionalTrace)
        return "w:" + request.workload + "@" +
               std::to_string(request.scale) +
               (request.meld ? "+meld" : "");
    if (request.kind == JobKind::SyntheticTrace)
        return "t:" + request.traceProfile;
    return {};
}

/** One shared multi-mode compare job (see class comment). */
struct CompareGroup
{
    std::once_flag once;
    RunRequest request;       ///< the TimingCompare job to run
    RunResult result;         ///< its multi-mode outcome
    std::vector<std::size_t> members;
};

/**
 * The mode-blind identity of a cacheable Timing request: equal keys
 * mean "the same job except possibly the compaction mode", the
 * precondition for sharing one compare run. Total ordering for map
 * storage.
 */
struct ModeBlindKey
{
    CacheKey key;

    bool
    operator<(const ModeBlindKey &o) const
    {
        const auto tie = [](const CacheKey &k) {
            return std::tuple(k.workloadDigest, k.configDigest, k.scale,
                              k.kind, k.backend, k.flags, k.modeMask);
        };
        return tie(key) < tie(o.key);
    }
};

/** Mode-blind key of @p request, or nullopt if it cannot be grouped. */
std::optional<ModeBlindKey>
modeBlindKeyFor(const RunRequest &request)
{
    if (request.kind != JobKind::Timing)
        return std::nullopt;
    RunRequest blind = request;
    blind.config.eu.mode = compaction::Mode::Baseline;
    const auto key = cacheKeyFor(blind);
    if (!key)
        return std::nullopt; // traced or opaque: never shared
    return ModeBlindKey{*key};
}

} // namespace

SweepRunner::SweepRunner(SweepOptions options)
    : progress_(std::move(options.progress))
{
    jobs_ = options.jobs;
    if (jobs_ == 0) {
        jobs_ = std::thread::hardware_concurrency();
        if (jobs_ == 0)
            jobs_ = 1;
    }
}

void
SweepRunner::forEach(std::size_t count,
                     const std::function<void(std::size_t)> &body)
{
    if (count == 0)
        return;

    std::mutex progress_mutex;
    std::size_t done = 0;
    auto report = [&] {
        if (!progress_)
            return;
        const std::lock_guard<std::mutex> lock(progress_mutex);
        progress_(++done, count);
    };

    // Legacy serial path: no threads, everything on the caller.
    if (jobs_ == 1 || count == 1) {
        for (std::size_t i = 0; i < count; ++i) {
            body(i);
            report();
        }
        return;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mutex;

    auto worker = [&] {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count || failed.load(std::memory_order_relaxed))
                return;
            try {
                body(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(error_mutex);
                if (!error)
                    error = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
                return;
            }
            report();
        }
    };

    const std::size_t workers =
        std::min<std::size_t>(jobs_, count);
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();

    if (error)
        std::rethrow_exception(error);
}

std::vector<RunResult>
SweepRunner::run(const std::vector<RunRequest> &requests)
{
    stats_ = {};

    // Per-sweep trace cache: group the requests whose analysis is
    // identical by construction so one execution serves all of them.
    std::map<std::string, std::shared_ptr<CacheEntry>> cache;
    std::vector<std::shared_ptr<CacheEntry>> entry_of(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const std::string key = cacheKey(requests[i]);
        if (key.empty())
            continue;
        auto [it, inserted] =
            cache.emplace(key, std::shared_ptr<CacheEntry>());
        if (inserted)
            it->second = std::make_shared<CacheEntry>();
        else
            ++stats_.traceCacheHits;
        entry_of[i] = it->second;
    }

    // Compare-group routing: cacheable Timing requests that agree on
    // everything but the compaction mode share one TimingCompare job.
    std::map<ModeBlindKey, std::shared_ptr<CompareGroup>> groups;
    std::vector<std::shared_ptr<CompareGroup>> group_of(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const auto key = modeBlindKeyFor(requests[i]);
        if (!key)
            continue;
        auto [it, inserted] =
            groups.emplace(*key, std::shared_ptr<CompareGroup>());
        if (inserted)
            it->second = std::make_shared<CompareGroup>();
        it->second->members.push_back(i);
    }
    for (auto &[key, group] : groups) {
        if (group->members.size() < 2) {
            group_of[group->members.front()] = nullptr;
            continue;
        }
        RunRequest compare = requests[group->members.front()];
        compare.kind = JobKind::TimingCompare;
        compare.compareModes = 0;
        compare.checkOutput = false;
        for (const std::size_t i : group->members) {
            compare.compareModes |= static_cast<std::uint8_t>(
                1u << static_cast<unsigned>(
                    requests[i].config.eu.mode));
            compare.checkOutput =
                compare.checkOutput || requests[i].checkOutput;
        }
        group->request = std::move(compare);
        for (const std::size_t i : group->members)
            group_of[i] = group;
        stats_.comparePoints += group->members.size();
    }

    std::atomic<std::uint64_t> executions{0};
    std::atomic<std::uint64_t> compare_executions{0};
    std::vector<RunResult> results(requests.size());
    forEach(requests.size(), [&](std::size_t i) {
        const RunRequest &request = requests[i];
        if (const auto &group = group_of[i]) {
            std::call_once(group->once, [&] {
                compare_executions.fetch_add(
                    1, std::memory_order_relaxed);
                group->result = executeRun(group->request);
            });
            const RunResult &shared = group->result;
            RunResult &out = results[i];
            out.kind = JobKind::Timing;
            out.label = shared.label;
            out.kernelDigest = shared.kernelDigest;
            for (const RunResult::ModeStats &entry : shared.compare) {
                if (entry.mode == request.config.eu.mode) {
                    out.stats = entry.stats;
                    break;
                }
            }
            if (request.checkOutput) {
                // The check ran once on the lead mode; its outcome is
                // mode-invariant (the replay-layer invariant).
                out.checked = true;
                out.checkOk = shared.checkOk;
            }
            return;
        }
        if (const auto &entry = entry_of[i]) {
            std::call_once(entry->once, [&] {
                executions.fetch_add(1, std::memory_order_relaxed);
                if (request.kind != JobKind::FunctionalTrace) {
                    entry->analysis =
                        analyzeSyntheticProfile(request.traceProfile);
                } else {
                    // Through executeRun (not analyzeWorkload) so the
                    // shared entry also carries the kernel digest and
                    // melding applies when requested — shared results
                    // stay bit-identical to unshared ones.
                    RunResult shared = executeRun(request);
                    entry->analysis = std::move(shared.analysis);
                    entry->kernelDigest = shared.kernelDigest;
                }
            });
            results[i].kind = request.kind;
            results[i].label = request.kind == JobKind::FunctionalTrace
                                   ? request.workload
                                   : request.traceProfile;
            results[i].kernelDigest = entry->kernelDigest;
            results[i].analysis = entry->analysis;
            return;
        }
        results[i] = executeRun(request);
    });
    stats_.traceExecutions = executions.load();
    stats_.compareExecutions = compare_executions.load();
    return results;
}

} // namespace iwc::run
