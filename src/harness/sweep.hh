/**
 * @file
 * The parallel sweep engine. Every paper figure is a sweep — a batch
 * of (benchmark × machine configuration) simulation jobs — and this
 * engine executes such a batch through a SweepBackend (the
 * in-process thread pool, optionally wrapped by the
 * content-addressed result store), against the shared TraceCache,
 * returning results in submission order so table layout is
 * deterministic regardless of completion order. Above the backend,
 * the engine memoizes results: each distinct (trace content, config,
 * scale) is simulated once per engine, however many figures ask for
 * it.
 *
 * Jobs must be independent pure functions of (trace, config); both
 * simulators satisfy this, which is what makes the --threads 1,
 * --threads N and warm-store outputs bit-identical.
 */

#ifndef OOVA_HARNESS_SWEEP_HH
#define OOVA_HARNESS_SWEEP_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/config.hh"
#include "harness/tracecache.hh"
#include "mem/simresult.hh"
#include "ref/refsim.hh"

namespace oova
{

class SweepBackend;
class SweepTraceLog;

/** One unit of sweep work: a trace × a machine model. */
struct SweepJob
{
    /**
     * Benchmark name, resolved through the TraceCache; also the
     * program label of this job's result, however it is served.
     */
    std::string trace;
    /** The simulation to run on that trace. */
    std::function<SimResult(const Trace &)> run;
    /**
     * When set, this trace is simulated instead of resolving
     * @c trace by name — for synthetic sweeps (e.g. the memstride
     * figure) whose traces live outside the benchmark cache. Shared
     * so several jobs can sweep configurations over one trace.
     */
    std::shared_ptr<const Trace> inlineTrace;
    /**
     * Canonical serialization of the complete machine configuration,
     * produced by sweepConfigKey(); together with the trace content
     * hash and scale it addresses this job's result in the
     * ResultStore. Empty means uncacheable (prefetch dummies).
     */
    std::string configKey;
};

/**
 * Canonical config-key strings, derived from the configs' field
 * tables (visitFields()): every data member, nested configs
 * included. A member missing from its table fails the build.
 */
std::string sweepConfigKey(const RefConfig &cfg);
std::string sweepConfigKey(const OooConfig &cfg);

/** Job running the reference (in-order) simulator. */
SweepJob refJob(std::string trace, RefConfig cfg);

/** Job running the OOOVA simulator. */
SweepJob oooJob(std::string trace, OooConfig cfg);

/** Job running the OOOVA on a caller-supplied synthetic trace. */
SweepJob oooTraceJob(std::shared_ptr<const Trace> trace,
                     OooConfig cfg);

/** Job running the reference simulator on a synthetic trace. */
SweepJob refTraceJob(std::shared_ptr<const Trace> trace,
                     RefConfig cfg);

/**
 * Job computing the IDEAL bound; the result carries only .cycles
 * (and the machine label "IDEAL").
 */
SweepJob idealJob(std::string trace);

struct JobOutcome;

/**
 * One executed job's entry in the run manifest: what ran (program ×
 * machine label), how long the job took on its worker, and whether
 * the result was not simulated in this job — served from the result
 * store or from the engine's memo (wallMs 0).
 */
struct JobRecord
{
    std::string program;
    std::string machine;
    double wallMs = 0.0;
    bool cached = false;
};

/**
 * Executes batches of SweepJobs through a SweepBackend. The engine
 * owns the result memo, manifest recording and prefetching; all
 * execution policy (threads, store) lives in the backend.
 *
 * The memo keys every cacheable job (non-empty configKey) by its
 * trace's content hash, config key and scale — the ResultStore key,
 * resultKey(). Duplicates within a batch reach the backend once;
 * repeats of an earlier batch never reach it. Every result is
 * stamped with its own job's trace name as the program label, so
 * jobs over one trace that ask for different labels share one
 * simulation but keep their labels. The key is content-based, never
 * a trace's address: a synthetic trace freed after one batch may be
 * reallocated at the same address with different instructions.
 */
class SweepEngine
{
  public:
    /**
     * In-process convenience constructor, the default everywhere a
     * figure or test doesn't care about backends.
     *
     * @param traces  shared trace cache (must outlive the engine)
     * @param threads worker count; 0 means hardware concurrency
     */
    explicit SweepEngine(const TraceCache &traces,
                         unsigned threads = 0);

    /** Run batches through an explicit backend (takes ownership). */
    SweepEngine(const TraceCache &traces,
                std::unique_ptr<SweepBackend> backend);

    ~SweepEngine();
    SweepEngine(SweepEngine &&) noexcept;

    /**
     * Run all jobs and return their results, index-aligned with
     * @p jobs (submission order, not completion order).
     */
    std::vector<SimResult> run(const std::vector<SweepJob> &jobs) const;

    /**
     * Generate (and cache) the named traces using the worker pool,
     * for figures that read traces without simulating them.
     */
    void prefetch(const std::vector<std::string> &names) const;

    /** The backend's worker thread count. */
    unsigned threads() const;
    /** The backend's self-description, e.g. "store+in-process x4". */
    std::string backendName() const;
    const TraceCache &traces() const { return traces_; }

    /**
     * Install a per-job completion callback (jobs done, batch size),
     * invoked from workers after every finished job — the callback
     * must be thread-safe. Jobs served by the memo are reported
     * first, in one call. Used by --progress; never called when
     * unset, so the default costs nothing.
     */
    void setProgress(std::function<void(size_t, size_t)> cb)
    {
        progress_ = std::move(cb);
    }

    /**
     * Record a JobRecord for every job of subsequent run() calls
     * (prefetch dummies excluded). Drives the --json run manifest.
     */
    void enableManifest() { manifestEnabled_ = true; }

    /** The records accumulated since enableManifest(). */
    const std::vector<JobRecord> &manifest() const
    {
        return manifest_;
    }

    /**
     * Install a span sink on the backend chain for --perfetto; the
     * log must outlive the engine's last run(). nullptr detaches.
     */
    void setTraceLog(SweepTraceLog *log);

    /**
     * Keep a copy of every SimResult of subsequent run() calls
     * (prefetch dummies excluded). Drives the --stats dump, which
     * needs the raw telemetry after the figure has reduced its
     * results to table text.
     */
    void enableResultCapture() { captureEnabled_ = true; }

    /** The results accumulated since enableResultCapture(). */
    const std::vector<SimResult> &captured() const
    {
        return captured_;
    }

  private:
    /**
     * Run @p jobs on the backend, counting its progress on top of
     * @p served jobs of a @p total -job batch already answered.
     */
    std::vector<JobOutcome> runBackend(const std::vector<SweepJob> &jobs,
                                       size_t served,
                                       size_t total) const;
    std::vector<JobOutcome>
    runMemoized(const std::vector<SweepJob> &jobs) const;

    const TraceCache &traces_;
    std::unique_ptr<SweepBackend> backend_;
    std::function<void(size_t, size_t)> progress_;
    bool manifestEnabled_ = false;
    bool captureEnabled_ = false;
    /**
     * Updated between batches on the calling thread (figures run
     * batches serially from one thread), so no lock is needed —
     * same discipline for manifest_ and captured_.
     */
    mutable std::unordered_map<std::string, SimResult> memo_;
    /** Appended after each batch's workers have joined. */
    mutable std::vector<JobRecord> manifest_;
    mutable std::vector<SimResult> captured_;
};

/**
 * Convenience builder used by the figure implementations: collect
 * jobs while remembering their indices, run them all at once, then
 * read results back by index while assembling tables.
 */
class JobSet
{
  public:
    /**
     * Append a job; returns its index for later lookup. A repeat of
     * a cacheable job (same trace name, inline trace and configKey)
     * is not appended again: it gets the first one's index, so cells
     * that name one machine read one result.
     */
    size_t add(SweepJob job);

    /** Execute everything added so far. */
    void run(const SweepEngine &engine);

    /** Result of the job that add() numbered @p index. */
    const SimResult &operator[](size_t index) const;

  private:
    std::vector<SweepJob> jobs_;
    std::map<std::tuple<std::string, const Trace *, std::string>, size_t>
        index_;
    std::vector<SimResult> results_;
};

} // namespace oova

#endif // OOVA_HARNESS_SWEEP_HH
