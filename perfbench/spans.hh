/**
 * @file
 * In-memory span recorder for the traced benchmark pass.
 *
 * A span is one timed call into a layer: its layer name, a label
 * (figure name, machine label, ...), start and end on one steady
 * clock, the thread it ran on, and the span that was open on that
 * thread when it began (its parent). Spans are appended to memory
 * under a mutex when they close and written out once, at the end of
 * the pass, so recording never does I/O inside the timed region.
 *
 * Parents are tracked per thread, so a job span on a pool thread is
 * a root there even though a batch span on the main thread is open
 * at the same time: self time (duration minus what same-thread
 * children cover) then means time the thread itself spent.
 *
 * This header knows nothing about the simulator; the adapter
 * (layerbench.cc) decides which calls get spans.
 */

#ifndef OOVA_PERFBENCH_SPANS_HH
#define OOVA_PERFBENCH_SPANS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

struct SpanRecord
{
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 = root on its thread
    uint32_t tid = 0;    ///< 0 = the thread that created the log
    std::string layer;
    std::string label;
    int64_t t0Ns = 0;
    int64_t t1Ns = 0;
    /** Work counts attached by the caller (e.g. a job's result). */
    uint64_t instr = 0;
    uint64_t cycles = 0;
};

class SpanLog
{
  public:
    SpanLog() : origin_(std::chrono::steady_clock::now())
    {
        threadId(); // the constructing thread becomes tid 0
    }

    SpanLog(const SpanLog &) = delete;
    SpanLog &operator=(const SpanLog &) = delete;

    int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - origin_)
            .count();
    }

    /** Small dense id of the calling thread, assigned on first use. */
    uint32_t
    threadId()
    {
        thread_local uint32_t tid = nextTid_.fetch_add(1);
        return tid;
    }

    /** Innermost open span on the calling thread (0 = none). */
    static uint64_t &
    openSpan()
    {
        thread_local uint64_t open = 0;
        return open;
    }

    uint64_t newId() { return nextId_.fetch_add(1); }

    void
    add(SpanRecord rec)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(std::move(rec));
    }

    /** One JSON object per line; false if the file cannot be written. */
    bool
    writeJsonLines(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::lock_guard<std::mutex> lock(mutex_);
        for (const SpanRecord &s : spans_)
            std::fprintf(
                f,
                "{\"id\":%llu,\"parent\":%llu,\"tid\":%u,"
                "\"layer\":\"%s\",\"label\":\"%s\",\"t0\":%lld,"
                "\"t1\":%lld,\"instr\":%llu,\"cycles\":%llu}\n",
                static_cast<unsigned long long>(s.id),
                static_cast<unsigned long long>(s.parent), s.tid,
                s.layer.c_str(), s.label.c_str(),
                static_cast<long long>(s.t0Ns),
                static_cast<long long>(s.t1Ns),
                static_cast<unsigned long long>(s.instr),
                static_cast<unsigned long long>(s.cycles));
        return std::fclose(f) == 0;
    }

  private:
    std::chrono::steady_clock::time_point origin_;
    std::atomic<uint32_t> nextTid_{0};
    std::atomic<uint64_t> nextId_{1};
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;
};

/**
 * RAII span: opens on construction, closes (and records) on
 * destruction. Must be destroyed on the thread that created it.
 * Labels are emitted into JSON unescaped, so they must not contain
 * quotes or backslashes (machine labels and figure names do not).
 */
class Span
{
  public:
    Span(SpanLog &log, const char *layer, std::string label = {})
        : log_(log)
    {
        rec_.id = log.newId();
        rec_.parent = SpanLog::openSpan();
        rec_.tid = log.threadId();
        rec_.layer = layer;
        rec_.label = std::move(label);
        SpanLog::openSpan() = rec_.id;
        rec_.t0Ns = log.nowNs();
    }

    ~Span()
    {
        rec_.t1Ns = log_.nowNs();
        SpanLog::openSpan() = rec_.parent;
        log_.add(std::move(rec_));
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    void setLabel(std::string label) { rec_.label = std::move(label); }
    void
    setWork(uint64_t instr, uint64_t cycles)
    {
        rec_.instr = instr;
        rec_.cycles = cycles;
    }

  private:
    SpanLog &log_;
    SpanRecord rec_;
};

} // namespace perfbench

#endif // OOVA_PERFBENCH_SPANS_HH
