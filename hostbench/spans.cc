#include "spans.hh"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace hostbench
{

std::int64_t
nowNs()
{
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch)
        .count();
}

std::size_t
SpanRecorder::open(const char *name, std::uint64_t point)
{
    Span span;
    span.name = name;
    span.point = point;
    span.parent = open_.empty() ? -1
                                : static_cast<std::int64_t>(open_.back());
    span.startNs = nowNs();
    spans_.push_back(span);
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
SpanRecorder::close(std::size_t index)
{
    spans_[index].endNs = nowNs();
    if (!open_.empty() && open_.back() == index)
        open_.pop_back();
}

std::vector<std::int64_t>
SpanRecorder::selfTimes(std::size_t first) const
{
    const std::size_t n = spans_.size() - first;
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        children(n);
    for (std::size_t i = first; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.parent >= static_cast<std::int64_t>(first))
            children[s.parent - first].emplace_back(s.startNs, s.endNs);
    }
    std::vector<std::int64_t> self(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Span &s = spans_[first + i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        // Length of the union of the children's intervals, clipped to
        // the parent's own interval.
        std::int64_t covered = 0;
        std::int64_t reach = s.startNs;
        for (const auto &[b, e] : kids) {
            const std::int64_t lo = std::max(b, reach);
            const std::int64_t hi = std::min(e, s.endNs);
            if (hi > lo)
                covered += hi - lo;
            reach = std::max(reach, std::min(e, s.endNs));
        }
        self[i] = (s.endNs - s.startNs) - covered;
    }
    return self;
}

bool
SpanRecorder::writeJsonLines(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                     "\"end_ns\":%lld,\"parent\":%lld,\"point\":%llu,"
                     "\"wall_ns\":%lld}\n",
                     i, s.name, static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs),
                     static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(s.point),
                     static_cast<long long>(s.wallNs));
    }
    return std::fclose(f) == 0;
}

std::string
layerOf(const char *name)
{
    const std::string s(name);
    return s.substr(0, s.find('.'));
}

bool
layerSelfTimes(const SpanRecorder &recorder, std::size_t first,
               const std::string &root_name,
               std::map<std::string, std::int64_t> &by_layer)
{
    const std::vector<Span> &spans = recorder.spans();
    const std::vector<std::int64_t> self = recorder.selfTimes(first);

    // Fold each span's self time into its root, then compare the
    // per-root totals against the roots' own durations.
    std::vector<std::size_t> root_of(self.size());
    std::map<std::size_t, std::int64_t> subtree;
    for (std::size_t i = 0; i < self.size(); ++i) {
        const Span &s = spans[first + i];
        root_of[i] = s.parent < static_cast<std::int64_t>(first)
            ? i
            : root_of[s.parent - first];
        subtree[root_of[i]] += self[i];
        if (root_name == spans[first + root_of[i]].name)
            by_layer[layerOf(s.name)] += self[i];
    }
    // The subtree's self times add up to the root span's duration by
    // construction. What is checked is that this duration matches the
    // wall time read outside the recorder. The slack covers the clock
    // reads around the span and a preemption between them.
    constexpr std::int64_t kSlackNs = 2'000'000;
    bool ok = true;
    for (const auto &[root, total] : subtree) {
        const Span &s = spans[first + root];
        if (s.wallNs < 0 || total > s.wallNs ||
            s.wallNs - total > kSlackNs + s.wallNs / 50) {
            std::fprintf(stderr,
                         "span %s of point %llu: self times add up to "
                         "%lld ns, caller measured %lld ns\n",
                         s.name, static_cast<unsigned long long>(s.point),
                         static_cast<long long>(total),
                         static_cast<long long>(s.wallNs));
            ok = false;
        }
    }
    return ok;
}

} // namespace hostbench
