#include "harness/backend.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

#include "common/logging.hh"
#include "harness/perfetto.hh"
#include "trace/trace_io.hh"

namespace oova
{

JobOutcome
runSweepJob(const TraceCache &traces, const SweepJob &job)
{
    JobOutcome o;
    auto t0 = std::chrono::steady_clock::now();
    const Trace &t =
        job.inlineTrace ? *job.inlineTrace : traces.get(job.trace);
    o.result = job.run(t);
    o.wallMs = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    o.result.program = job.trace;
    return o;
}

std::string
resultKey(const TraceCache &traces, const SweepJob &job,
          std::unordered_map<const Trace *, uint64_t> &inlineHashes)
{
    uint64_t hash;
    if (job.inlineTrace) {
        auto [it, fresh] = inlineHashes.try_emplace(job.inlineTrace.get());
        if (fresh)
            it->second = traceContentHash(*job.inlineTrace);
        hash = it->second;
    } else {
        hash = traces.contentHash(job.trace);
    }
    return ResultStore::makeKey(hash, job.configKey, traces.scale());
}

namespace
{

unsigned
defaultedWorkers(unsigned requested)
{
    if (requested != 0)
        return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

/**
 * Record one finished job on @p tid's track, anchored at its end
 * time @p endUs so the span covers [end - dur, end]: callers know
 * when a job finished and how long it took.
 */
void
recordJobSpan(SweepTraceLog *log, const JobOutcome &o, uint32_t tid,
              uint64_t endUs, uint64_t dur)
{
    TraceSpan s;
    s.name = o.result.machine.empty()
                 ? o.result.program + " (prefetch)"
                 : o.result.program + " " + o.result.machine;
    s.category = o.fromStore ? "store-hit" : "sim";
    s.durUs = dur;
    s.tsUs = endUs >= dur ? endUs - dur : 0;
    s.tid = tid;
    s.args = {{"program", o.result.program},
              {"machine", o.result.machine},
              {"cached", o.fromStore ? "true" : "false"}};
    log->addSpan(std::move(s));
}

} // namespace

// ------------------------------------------------------ in-process

InProcessBackend::InProcessBackend(const TraceCache &traces,
                                   unsigned threads)
    : traces_(traces), threads_(defaultedWorkers(threads))
{
}

std::string
InProcessBackend::describe() const
{
    return csprintf("in-process x%u", threads_);
}

std::vector<JobOutcome>
InProcessBackend::run(const std::vector<SweepJob> &jobs)
{
    std::vector<JobOutcome> out(jobs.size());

    auto runOne = [&](size_t i, uint32_t tid) {
        out[i] = runSweepJob(traces_, jobs[i]);
        if (traceLog_)
            recordJobSpan(
                traceLog_, out[i], tid, traceLog_->nowUs(),
                static_cast<uint64_t>(out[i].wallMs * 1000.0));
        if (progress_)
            progress_(1);
    };

    unsigned workers = threads_;
    if (jobs.size() < workers)
        workers = static_cast<unsigned>(jobs.size());

    if (traceLog_)
        for (unsigned k = 0; k < std::max(workers, 1u); ++k)
            traceLog_->setThreadName(k, csprintf("worker-%u", k));

    if (workers <= 1) {
        for (size_t i = 0; i < jobs.size(); ++i)
            runOne(i, 0);
        return out;
    }

    // Each worker claims the next unstarted index; results land in
    // their submission-order slot, so completion order is invisible.
    std::atomic<size_t> next{0};
    std::exception_ptr error;
    std::mutex error_mutex;
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
        pool.emplace_back([&, w] {
            for (;;) {
                size_t i = next.fetch_add(1);
                if (i >= jobs.size())
                    return;
                try {
                    runOne(i, w);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(error_mutex);
                    if (!error)
                        error = std::current_exception();
                }
            }
        });
    }
    for (auto &t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
    return out;
}

// ----------------------------------------------------------- store

StoreBackend::StoreBackend(ResultStore &store,
                           const TraceCache &traces,
                           std::unique_ptr<SweepBackend> inner)
    : store_(store), traces_(traces), inner_(std::move(inner))
{
}

std::string
StoreBackend::describe() const
{
    return "store+" + inner_->describe();
}

void
StoreBackend::setTraceLog(SweepTraceLog *log)
{
    traceLog_ = log;
    inner_->setTraceLog(log);
}

std::vector<JobOutcome>
StoreBackend::run(const std::vector<SweepJob> &jobs)
{
    std::vector<JobOutcome> out(jobs.size());
    std::unordered_map<const Trace *, uint64_t> inlineHashes;

    uint64_t lookupStartUs = traceLog_ ? traceLog_->nowUs() : 0;
    std::vector<size_t> missIdx;
    std::vector<SweepJob> missJobs;
    std::vector<std::string> missKeys;
    size_t hits = 0;
    for (size_t i = 0; i < jobs.size(); ++i) {
        const SweepJob &job = jobs[i];
        // Uncacheable jobs (empty configKey: prefetch dummies)
        // always go to the inner backend.
        std::string key;
        if (!job.configKey.empty()) {
            key = resultKey(traces_, job, inlineHashes);
            uint64_t loadStartUs =
                traceLog_ ? traceLog_->nowUs() : 0;
            if (store_.load(key, out[i].result)) {
                // The key covers the trace, not the job's label:
                // the label is this job's, not the storing job's.
                out[i].result.program = job.trace;
                out[i].fromStore = true;
                ++hits;
                // Hits get job spans too (category "store-hit",
                // cached=true), spanning the load itself — the
                // waterfall shows what a warm store saved.
                if (traceLog_) {
                    uint64_t end = traceLog_->nowUs();
                    recordJobSpan(traceLog_, out[i], 0, end,
                                  end - loadStartUs);
                }
                continue;
            }
        }
        missIdx.push_back(i);
        missJobs.push_back(job);
        missKeys.push_back(std::move(key));
    }
    if (traceLog_) {
        traceLog_->setThreadName(0, "sweep-main");
        TraceSpan lookup;
        lookup.name = "store-lookup";
        lookup.category = "store";
        lookup.tsUs = lookupStartUs;
        lookup.durUs = traceLog_->nowUs() - lookupStartUs;
        lookup.tid = 0;
        lookup.args = {{"hits", csprintf("%zu", hits)},
                       {"misses", csprintf("%zu", missIdx.size())}};
        traceLog_->addSpan(std::move(lookup));
    }

    if (progress_ && hits)
        progress_(hits);
    inner_->setProgress(progress_);

    if (missJobs.empty())
        return out;
    std::vector<JobOutcome> ran = inner_->run(missJobs);
    for (size_t m = 0; m < missIdx.size(); ++m) {
        if (!missKeys[m].empty())
            store_.store(missKeys[m], ran[m].result);
        out[missIdx[m]] = std::move(ran[m]);
    }
    return out;
}

} // namespace oova
