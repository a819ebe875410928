/**
 * @file
 * In-memory span recorder for the traced run. A span is one call from
 * the benchmark into a simulator layer: its name ("<layer>.<what>"),
 * start and end on the steady clock, the span that contains it, and
 * the point it belongs to. Spans stay in memory while the run
 * measures and are written out once at exit, so recording costs two
 * clock reads and a vector push per call.
 */

#ifndef IWC_HOSTBENCH_SPANS_HH
#define IWC_HOSTBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hostbench
{

using Clock = std::chrono::steady_clock;

/** One recorded call (see file comment). */
struct Span
{
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the enclosing span in the recorder, or -1 for a root. */
    std::int64_t parent = -1;
    std::uint64_t point = 0;
    /** For a root opened by RootScope: the wall time of its region, read
     *  by the caller outside the span; -1 for any other span. */
    std::int64_t wallNs = -1;
};

/** Nanoseconds since the recorder's epoch (process-wide). */
std::int64_t nowNs();

/** Records spans; null recorder pointers disable recording. */
class SpanRecorder
{
  public:
    /** Opens a span under the innermost open one; returns its index. */
    std::size_t open(const char *name, std::uint64_t point);
    void close(std::size_t index);
    /** Sets the caller-measured wall time of root span @p index. */
    void setWall(std::size_t index, std::int64_t ns)
    {
        spans_[index].wallNs = ns;
    }

    const std::vector<Span> &spans() const { return spans_; }
    std::size_t size() const { return spans_.size(); }

    /**
     * Self time of every span in [first, size()): its duration minus
     * the part of its interval that its direct children cover.
     */
    std::vector<std::int64_t> selfTimes(std::size_t first) const;

    /** Writes every span as one JSON object per line. */
    bool writeJsonLines(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
};

/** RAII span; a no-op when the recorder is null. */
class Scope
{
  public:
    Scope(SpanRecorder *recorder, const char *name, std::uint64_t point)
        : recorder_(recorder),
          index_(recorder ? recorder->open(name, point) : 0)
    {
    }
    ~Scope()
    {
        if (recorder_ != nullptr)
            recorder_->close(index_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::size_t index() const { return index_; }

  private:
    SpanRecorder *recorder_;
    std::size_t index_;
};

/**
 * A root span whose region the caller also times with its own clock
 * reads, taken before the span opens and after it closes. The
 * self-time check compares the spans against that time. A no-op when
 * the recorder is null.
 */
class RootScope
{
  public:
    RootScope(SpanRecorder *recorder, const char *name, std::uint64_t point)
        : recorder_(recorder), startNs_(nowNs()),
          index_(recorder ? recorder->open(name, point) : 0)
    {
    }
    ~RootScope()
    {
        if (recorder_ == nullptr)
            return;
        recorder_->close(index_);
        recorder_->setWall(index_, nowNs() - startNs_);
    }
    RootScope(const RootScope &) = delete;
    RootScope &operator=(const RootScope &) = delete;

  private:
    SpanRecorder *recorder_;
    std::int64_t startNs_;
    std::size_t index_;
};

/** The layer a span name belongs to: the text before its first '.'. */
std::string layerOf(const char *name);

/**
 * Adds to @p by_layer the self time (ns) per layer of the spans in
 * [first, size()) whose root span is named @p root_name, and checks
 * each root against the wall time its RootScope read outside the
 * recorder: the self times of the root and all its descendants must
 * add up to that wall time, within a few clock reads and scheduling
 * slack. A root without that wall time is a span opened outside every
 * RootScope and fails too. Returns false if any root fails.
 */
bool layerSelfTimes(const SpanRecorder &recorder, std::size_t first,
                    const std::string &root_name,
                    std::map<std::string, std::int64_t> &by_layer);

} // namespace hostbench

#endif // IWC_HOSTBENCH_SPANS_HH
