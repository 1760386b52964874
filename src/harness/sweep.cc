#include "harness/sweep.hh"

#include <atomic>
#include <type_traits>

#include "common/logging.hh"
#include "core/ideal.hh"
#include "core/ooosim.hh"
#include "harness/backend.hh"

namespace oova
{

namespace
{

/** Converts to any member type: an initializer for memberCount(). */
struct AnyField
{
    template <typename T>
    operator T() const;
};

/** Data members of aggregate @p T: the longest initializer it takes. */
template <typename T, typename... A>
constexpr size_t
memberCount()
{
    if constexpr (requires { T{A{}..., AnyField{}}; })
        return memberCount<T, A..., AnyField>();
    else
        return sizeof...(A);
}

/** Entries of @p Config's field table. */
template <typename Config>
constexpr size_t
tableSize()
{
    const Config cfg{};
    size_t n = 0;
    Config::visitFields(cfg, [&n](const char *, const auto &) {
        ++n;
    });
    return n;
}

/**
 * Append "value," for every field-table entry of @p cfg, in table
 * order; nested configs recurse as "{...}", enums and bools print as
 * integers. The key is positional (names would make it five times
 * longer, and every job's store key hashes it), so reordering a table
 * changes its meaning: bump the tag when doing so.
 */
template <typename Config>
void
appendFields(std::string &key, const Config &cfg)
{
    // A knob missing from the table would alias the store entries
    // of runs that differ only in it.
    static_assert(tableSize<Config>() == memberCount<Config>(),
                  "a config data member is missing from visitFields()");
    Config::visitFields(cfg, [&key](const char *, const auto &v) {
        if constexpr (std::is_class_v<std::decay_t<decltype(v)>>) {
            key += '{';
            appendFields(key, v);
            key += '}';
        } else {
            key += std::to_string(static_cast<long long>(v));
        }
        key += ',';
    });
}

template <typename Config>
std::string
fieldKey(std::string key, const Config &cfg)
{
    appendFields(key, cfg);
    return key;
}

} // namespace

std::string
sweepConfigKey(const RefConfig &cfg)
{
    return fieldKey("REF/v2|", cfg);
}

std::string
sweepConfigKey(const OooConfig &cfg)
{
    return fieldKey("OOO/v2|", cfg);
}

SweepJob
refJob(std::string trace, RefConfig cfg)
{
    return {std::move(trace),
            [cfg](const Trace &t) { return simulateRef(t, cfg); },
            nullptr, sweepConfigKey(cfg)};
}

SweepJob
oooJob(std::string trace, OooConfig cfg)
{
    return {std::move(trace),
            [cfg](const Trace &t) { return simulateOoo(t, cfg); },
            nullptr, sweepConfigKey(cfg)};
}

SweepJob
oooTraceJob(std::shared_ptr<const Trace> trace, OooConfig cfg)
{
    SweepJob job = oooJob(trace->name(), cfg);
    job.inlineTrace = std::move(trace);
    return job;
}

SweepJob
refTraceJob(std::shared_ptr<const Trace> trace, RefConfig cfg)
{
    SweepJob job = refJob(trace->name(), cfg);
    job.inlineTrace = std::move(trace);
    return job;
}

SweepJob
idealJob(std::string trace)
{
    return {std::move(trace),
            [](const Trace &t) {
                SimResult r;
                r.machine = "IDEAL";
                r.cycles = idealCycles(t);
                return r;
            },
            nullptr, "IDEAL/v1"};
}

SweepEngine::SweepEngine(const TraceCache &traces, unsigned threads)
    : SweepEngine(traces,
                  std::make_unique<InProcessBackend>(traces, threads))
{
}

SweepEngine::SweepEngine(const TraceCache &traces,
                         std::unique_ptr<SweepBackend> backend)
    : traces_(traces), backend_(std::move(backend))
{
    sim_assert(backend_ != nullptr, "null sweep backend");
}

SweepEngine::~SweepEngine() = default;
SweepEngine::SweepEngine(SweepEngine &&) noexcept = default;

unsigned
SweepEngine::threads() const
{
    return backend_->parallelism();
}

std::string
SweepEngine::backendName() const
{
    return backend_->describe();
}

void
SweepEngine::setTraceLog(SweepTraceLog *log)
{
    backend_->setTraceLog(log);
}

std::vector<JobOutcome>
SweepEngine::runBackend(const std::vector<SweepJob> &jobs,
                        size_t served, size_t total) const
{
    // The backend reports jobs as they finish; the engine alone
    // keeps the count. The callback refers to this call's count, so
    // it is replaced before every batch.
    std::atomic<size_t> done{served};
    std::function<void(size_t)> report;
    if (progress_) {
        if (served)
            progress_(served, total);
        report = [this, &done, total](size_t n) {
            progress_(done += n, total);
        };
    }
    backend_->setProgress(std::move(report));
    if (jobs.empty())
        return {};
    return backend_->run(jobs);
}

std::vector<JobOutcome>
SweepEngine::runMemoized(const std::vector<SweepJob> &jobs) const
{
    std::vector<JobOutcome> out(jobs.size());
    // Jobs sent to the backend: the first of each distinct key, and
    // every uncacheable job (prefetch dummies).
    std::vector<SweepJob> sent;
    std::vector<size_t> sentIdx;
    // Later duplicates within this batch: (index, position in sent).
    std::vector<std::pair<size_t, size_t>> dups;
    std::unordered_map<std::string, size_t> pending;
    std::unordered_map<const Trace *, uint64_t> inlineHashes;
    for (size_t i = 0; i < jobs.size(); ++i) {
        std::string key;
        if (!jobs[i].configKey.empty()) {
            key = resultKey(traces_, jobs[i], inlineHashes);
            if (auto hit = memo_.find(key); hit != memo_.end()) {
                out[i].result = hit->second;
                out[i].result.program = jobs[i].trace;
                out[i].fromStore = true;
                continue;
            }
            auto [it, first] = pending.try_emplace(key, sent.size());
            if (!first) {
                dups.emplace_back(i, it->second);
                continue;
            }
        }
        sent.push_back(jobs[i]);
        sent.back().storeKey = std::move(key);
        sentIdx.push_back(i);
    }

    std::vector<JobOutcome> ran =
        runBackend(sent, jobs.size() - sent.size(), jobs.size());
    for (auto [i, s] : dups) {
        out[i].result = ran[s].result;
        out[i].result.program = jobs[i].trace;
        out[i].fromStore = true;
    }
    for (size_t s = 0; s < sent.size(); ++s) {
        if (!sent[s].storeKey.empty())
            memo_.emplace(std::move(sent[s].storeKey), ran[s].result);
        out[sentIdx[s]] = std::move(ran[s]);
    }
    return out;
}

std::vector<SimResult>
SweepEngine::run(const std::vector<SweepJob> &jobs) const
{
    std::vector<JobOutcome> outcomes = runMemoized(jobs);

    // Prefetch dummies carry no machine label and are skipped, so
    // the manifest lists exactly the jobs figures asked for.
    if (manifestEnabled_)
        for (const JobOutcome &o : outcomes)
            if (!o.result.machine.empty())
                manifest_.push_back({o.result.program,
                                     o.result.machine, o.wallMs,
                                     o.fromStore});
    if (captureEnabled_)
        for (const JobOutcome &o : outcomes)
            if (!o.result.machine.empty())
                captured_.push_back(o.result);

    std::vector<SimResult> results;
    results.reserve(outcomes.size());
    for (JobOutcome &o : outcomes)
        results.push_back(std::move(o.result));
    return results;
}

void
SweepEngine::prefetch(const std::vector<std::string> &names) const
{
    std::vector<SweepJob> jobs;
    jobs.reserve(names.size());
    for (const auto &name : names)
        jobs.push_back({name,
                        [](const Trace &) { return SimResult{}; },
                        nullptr, std::string()});
    run(jobs);
}

size_t
JobSet::add(SweepJob job)
{
    if (!job.configKey.empty()) {
        auto [it, fresh] = index_.try_emplace(
            {job.trace, job.inlineTrace.get(), job.configKey},
            jobs_.size());
        if (!fresh)
            return it->second;
    }
    jobs_.push_back(std::move(job));
    return jobs_.size() - 1;
}

void
JobSet::run(const SweepEngine &engine)
{
    results_ = engine.run(jobs_);
}

const SimResult &
JobSet::operator[](size_t index) const
{
    sim_assert(index < results_.size(),
               "job %zu read before run() or out of range (%zu)",
               index, results_.size());
    return results_[index];
}

} // namespace oova
