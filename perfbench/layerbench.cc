/**
 * @file
 * Traced pass of the figure suite: every registered figure over one
 * shared TraceCache, as `oova_bench all` runs it, with a span around
 * each call into a layer. perfbench/run.py drives it and turns the
 * spans into per-layer metrics.
 *
 *   oova_layerbench --threads N --scale S [--store DIR]
 *                   --spans FILE --summary FILE
 *
 * stdout gets the figure text exactly as `oova_bench all` prints it,
 * so the traced pass is checked against the untraced one. --spans
 * gets one JSON object per span, --summary one JSON object of counts
 * and context.
 *
 * This is the benchmark's only file that uses the harness API. The
 * engine is assembled from public parts:
 *
 *   SweepEngine
 *     TimedStore    span "store" per batch; pre-hashes named traces
 *                   under "hash" spans  (only with --store)
 *     StoreBackend
 *       TimedExec   span "sweep" per batch that reaches execution;
 *                   wraps every job's simulation in a "job" span
 *         InProcessBackend
 *
 * and the TraceCache generator wraps makeBenchmarkTrace in a "tgen"
 * span. If the backend API changes shape, only this file follows.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "check/check.hh"
#include "harness/backend.hh"
#include "harness/figure.hh"
#include "harness/tracecache.hh"
#include "spans.hh"
#include "tgen/benchmarks.hh"

using namespace oova;
using perfbench::Span;
using perfbench::SpanLog;

namespace
{

/** Times every batch that reaches execution, and each job in it. */
class TimedExec : public SweepBackend
{
  public:
    TimedExec(SpanLog &log, std::unique_ptr<SweepBackend> inner)
        : log_(log), inner_(std::move(inner))
    {
    }

    std::vector<JobOutcome>
    run(const std::vector<SweepJob> &jobs) override
    {
        Span batch(log_, "sweep");
        std::vector<SweepJob> timed = jobs;
        for (SweepJob &job : timed) {
            SpanLog *log = &log_;
            job.run = [log, run = std::move(job.run)](const Trace &t) {
                Span span(*log, "job");
                SimResult r = run(t);
                span.setLabel(r.machine);
                span.setWork(r.instructions, r.cycles);
                return r;
            };
        }
        return inner_->run(timed);
    }

    unsigned parallelism() const override
    {
        return inner_->parallelism();
    }
    std::string describe() const override { return inner_->describe(); }

  private:
    SpanLog &log_;
    std::unique_ptr<SweepBackend> inner_;
};

/**
 * Times every batch through the result store. Named traces are
 * hashed here first, under their own span, so the store's own
 * contentHash() calls find the hash cached; inline (synthetic)
 * traces are hashed inside StoreBackend and stay in store time.
 */
class TimedStore : public SweepBackend
{
  public:
    TimedStore(SpanLog &log, const TraceCache &traces,
               std::unique_ptr<SweepBackend> inner)
        : log_(log), traces_(traces), inner_(std::move(inner))
    {
    }

    std::vector<JobOutcome>
    run(const std::vector<SweepJob> &jobs) override
    {
        Span batch(log_, "store");
        for (const SweepJob &job : jobs) {
            if (job.configKey.empty() || job.inlineTrace ||
                !hashed_.insert(job.trace).second)
                continue;
            Span hash(log_, "hash", job.trace);
            traces_.contentHash(job.trace);
        }
        return inner_->run(jobs);
    }

    unsigned parallelism() const override
    {
        return inner_->parallelism();
    }
    std::string describe() const override { return inner_->describe(); }

  private:
    SpanLog &log_;
    const TraceCache &traces_;
    std::unique_ptr<SweepBackend> inner_;
    std::set<std::string> hashed_;
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: oova_layerbench --threads N --scale S "
                 "[--store DIR] --spans FILE --summary FILE\n");
    return 2;
}

double
toSeconds(int64_t ns)
{
    return static_cast<double>(ns) / 1e9;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned threads = 0;
    double scale = 0.0;
    std::string storeDir, spansPath, summaryPath;
    for (int i = 1; i + 1 < argc; i += 2) {
        const char *flag = argv[i];
        const char *val = argv[i + 1];
        char *end = nullptr;
        if (std::strcmp(flag, "--threads") == 0) {
            unsigned long n = std::strtoul(val, &end, 10);
            if (*end != '\0' || n == 0 || n > kMaxSweepThreads)
                return usage();
            threads = static_cast<unsigned>(n);
        } else if (std::strcmp(flag, "--scale") == 0) {
            scale = std::strtod(val, &end);
            if (*end != '\0' || !(scale > 0.0))
                return usage();
        } else if (std::strcmp(flag, "--store") == 0) {
            storeDir = val;
        } else if (std::strcmp(flag, "--spans") == 0) {
            spansPath = val;
        } else if (std::strcmp(flag, "--summary") == 0) {
            summaryPath = val;
        } else {
            return usage();
        }
    }
    if (argc % 2 == 0 || threads == 0 || scale == 0.0 ||
        spansPath.empty() || summaryPath.empty())
        return usage();

    SpanLog log;
    TraceCache traces(scale, [&log](const std::string &name,
                                    const GenOptions &opts) {
        Span span(log, "tgen", name);
        Trace t = makeBenchmarkTrace(name, opts);
        span.setWork(t.size(), 0);
        return t;
    });
    std::unique_ptr<ResultStore> store;
    std::unique_ptr<SweepBackend> backend = std::make_unique<TimedExec>(
        log, std::make_unique<InProcessBackend>(traces, threads));
    if (!storeDir.empty()) {
        store = std::make_unique<ResultStore>(storeDir);
        backend = std::make_unique<TimedStore>(
            log, traces,
            std::make_unique<StoreBackend>(*store, traces,
                                           std::move(backend)));
    }
    SweepEngine engine(traces, std::move(backend));
    engine.enableResultCapture();

    int64_t passStart = log.nowNs();
    size_t figures = 0;
    for (const FigureDef &fig : figureRegistry()) {
        FigureResult result;
        {
            Span span(log, "figure", fig.name);
            result = fig.fn(engine);
        }
        std::string text;
        {
            Span span(log, "render", fig.name);
            text = renderFigureText(fig, result, traces.scale());
        }
        std::fputs(text.c_str(), stdout);
        std::fflush(stdout);
        ++figures;
    }
    int64_t passNs = log.nowNs() - passStart;

    // SimResult serialization, timed on the pass's own results: the
    // store's write and read formats, outside the traced pass.
    const std::vector<SimResult> &results = engine.captured();
    std::vector<std::string> json;
    json.reserve(results.size());
    int64_t t0 = log.nowNs();
    for (const SimResult &r : results)
        json.push_back(r.toJson());
    int64_t t1 = log.nowNs();
    std::vector<SimResult> parsed(json.size());
    size_t parseFailures = 0;
    for (size_t i = 0; i < json.size(); ++i)
        parseFailures += SimResult::fromJson(json[i], parsed[i]) ? 0 : 1;
    int64_t t2 = log.nowNs();
    for (size_t i = 0; i < json.size(); ++i)
        parseFailures += parsed[i].toJson() == json[i] ? 0 : 1;

    std::map<std::string, uint64_t> labels;
    for (const SimResult &r : results)
        ++labels[r.machine];

    StoreStats ss = store ? store->stats() : StoreStats{};
    std::FILE *f = std::fopen(summaryPath.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write '%s'\n",
                     summaryPath.c_str());
        return 1;
    }
    std::fprintf(f,
                 "{\"pass_s\":%.9f,\"threads\":%u,\"backend\":\"%s\","
                 "\"figures\":%zu,\"results\":%zu,"
                 "\"to_json_s\":%.9f,\"from_json_s\":%.9f,"
                 "\"roundtrip_failures\":%zu,\"compiler\":\"%s\","
                 "\"store\":{\"hits\":%llu,\"misses\":%llu,"
                 "\"stores\":%llu,\"bytes_read\":%llu,"
                 "\"bytes_written\":%llu,\"quarantined\":%llu},"
                 "\"labels\":{",
                 toSeconds(passNs), engine.threads(),
                 engine.backendName().c_str(), figures, results.size(),
                 toSeconds(t1 - t0), toSeconds(t2 - t1), parseFailures,
                 __VERSION__,
                 static_cast<unsigned long long>(ss.hits),
                 static_cast<unsigned long long>(ss.misses),
                 static_cast<unsigned long long>(ss.stores),
                 static_cast<unsigned long long>(ss.bytesRead),
                 static_cast<unsigned long long>(ss.bytesWritten),
                 static_cast<unsigned long long>(ss.quarantined));
    const char *sep = "";
    for (const auto &[label, n] : labels) {
        std::fprintf(f, "%s\"%s\":%llu", sep, label.c_str(),
                     static_cast<unsigned long long>(n));
        sep = ",";
    }
    std::fprintf(f, "}}\n");
    bool ok = std::fclose(f) == 0;
    ok = log.writeJsonLines(spansPath) && ok;
    if (!ok) {
        std::fprintf(stderr, "cannot write the span or summary file\n");
        return 1;
    }
    return check::processExitCode();
}
