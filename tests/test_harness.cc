/**
 * @file
 * Tests for the experiment harness: the parallel sweep engine
 * (determinism across thread counts, submission-order results, the
 * per-engine result memo), the shared trace cache (single
 * generation and stable references under concurrency), OOVA_SCALE
 * parsing, and the speedup() degenerate case.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <thread>
#include <vector>

#include "harness/backend.hh"
#include "harness/experiment.hh"
#include "harness/figure.hh"
#include "harness/resultstore.hh"
#include "harness/sweep.hh"
#include "harness/tracecache.hh"
#include "synthetic_trace.hh"
#include "tempdir.hh"

using namespace oova;

namespace
{

constexpr double kTestScale = 0.1;

/** A small but varied batch covering both simulators and IDEAL. */
std::vector<SweepJob>
testBatch(const TraceCache &traces)
{
    std::vector<SweepJob> jobs;
    for (const auto &name : traces.names()) {
        jobs.push_back(refJob(name, makeRefConfig(50)));
        jobs.push_back(oooJob(name, makeOooConfig(16, 16, 50)));
        jobs.push_back(oooJob(name, makeOooConfig(32, 16, 50,
                                                  CommitMode::Late,
                                                  LoadElimMode::SleVle)));
        jobs.push_back(idealJob(name));
    }
    return jobs;
}

} // namespace

TEST(SweepEngine, InlineTraceJobsBypassTheCache)
{
    // Synthetic traces (e.g. the memstride figure's strided kernels)
    // ride through the engine via SweepJob::inlineTrace instead of a
    // TraceCache name lookup.
    Trace t("inline-synthetic");
    for (int i = 0; i < 4; ++i)
        t.push(makeVLoad(vReg(static_cast<uint8_t>(i % 8)), aReg(0),
                         0x1000 + static_cast<Addr>(i) * 0x4000, 8,
                         64));
    auto shared = std::make_shared<const Trace>(std::move(t));

    TraceCache traces(kTestScale);
    SweepEngine engine(traces, 2);
    std::vector<SweepJob> jobs = {
        oooTraceJob(shared, makeOooConfig(16, 16, 50)),
        oooTraceJob(shared, makeBankedOooConfig(1, 50)),
    };
    std::vector<SimResult> res = engine.run(jobs);
    ASSERT_EQ(res.size(), 2u);
    EXPECT_EQ(res[0].program, "inline-synthetic");
    EXPECT_GT(res[0].cycles, 0u);
    // One bank at a 4-cycle busy time must be slower than the flat
    // bus on back-to-back unit-stride loads.
    EXPECT_GT(res[1].cycles, res[0].cycles);
}

TEST(SweepEngine, SameResultsAtOneAndEightThreads)
{
    TraceCache traces(kTestScale);
    std::vector<SweepJob> jobs = testBatch(traces);

    SweepEngine serial(traces, 1);
    SweepEngine parallel(traces, 8);
    std::vector<SimResult> a = serial.run(jobs);
    std::vector<SimResult> b = parallel.run(jobs);

    ASSERT_EQ(a.size(), jobs.size());
    ASSERT_EQ(b.size(), jobs.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].program, b[i].program) << "job " << i;
        EXPECT_EQ(a[i].machine, b[i].machine) << "job " << i;
        EXPECT_EQ(a[i].cycles, b[i].cycles) << "job " << i;
        EXPECT_EQ(a[i].instructions, b[i].instructions) << "job " << i;
        EXPECT_EQ(a[i].memRequests, b[i].memRequests) << "job " << i;
        EXPECT_EQ(a[i].stateCycles, b[i].stateCycles) << "job " << i;
    }
}

TEST(SweepEngine, ResultsAlignWithSubmissionOrder)
{
    TraceCache traces(kTestScale);
    std::vector<SweepJob> jobs = testBatch(traces);
    SweepEngine engine(traces, 4);
    std::vector<SimResult> res = engine.run(jobs);

    ASSERT_EQ(res.size(), jobs.size());
    for (size_t i = 0; i < res.size(); ++i) {
        // Every simulator stamps the trace name; slot i must hold
        // the result of job i's trace no matter which worker ran it.
        EXPECT_EQ(res[i].program, jobs[i].trace) << "job " << i;
        EXPECT_GT(res[i].cycles, 0u) << "job " << i;
    }
    // The batch interleaves machines in a fixed pattern.
    EXPECT_EQ(res[0].machine, "REF");
    EXPECT_EQ(res[3].machine, "IDEAL");
}

TEST(SweepEngine, ZeroThreadsMeansHardwareConcurrency)
{
    TraceCache traces(kTestScale);
    SweepEngine engine(traces, 0);
    EXPECT_GE(engine.threads(), 1u);
}

namespace
{

/**
 * Run testBatch() through @p engine with a progress callback and
 * check what --progress relies on: one callback per completed job,
 * every one reporting the batch size, with a done count that reaches
 * it.
 */
void
expectProgressPerJob(SweepEngine &engine, const TraceCache &traces)
{
    std::vector<SweepJob> jobs = testBatch(traces);
    std::atomic<size_t> calls{0};
    std::atomic<size_t> maxDone{0};
    std::atomic<size_t> badTotal{0};
    engine.setProgress([&](size_t done, size_t total) {
        ++calls;
        size_t prev = maxDone.load();
        while (prev < done && !maxDone.compare_exchange_weak(prev, done)) {
        }
        if (total != jobs.size())
            ++badTotal;
    });

    std::vector<SimResult> res = engine.run(jobs);
    ASSERT_EQ(res.size(), jobs.size());
    EXPECT_EQ(calls.load(), jobs.size());
    EXPECT_EQ(maxDone.load(), jobs.size());
    EXPECT_EQ(badTotal.load(), 0u);

    // A batch with duplicates: the memo reports the repeats in one
    // call up front, then one call per simulated job on top of it,
    // and the done count still reaches the batch size.
    const size_t distinct = traces.names().size();
    jobs.clear();
    for (int copy = 0; copy < 3; ++copy)
        for (const auto &name : traces.names())
            jobs.push_back(refJob(name, makeRefConfig(1)));
    calls = 0;
    maxDone = 0;
    res = engine.run(jobs);
    ASSERT_EQ(res.size(), jobs.size());
    EXPECT_EQ(calls.load(), distinct + 1);
    EXPECT_EQ(maxDone.load(), jobs.size());
    EXPECT_EQ(badTotal.load(), 0u);
}

} // namespace

TEST(SweepEngine, ProgressFiresPerJob)
{
    TraceCache traces(kTestScale);
    SweepEngine threads(
        traces, std::make_unique<InProcessBackend>(traces, 2));
    expectProgressPerJob(threads, traces);

    // Through the store decorator over a cold store every job is a
    // miss, so the inner pool's callbacks must reach the engine.
    TempDir dir("progress");
    ResultStore store(dir.path());
    SweepEngine stored(
        traces, std::make_unique<StoreBackend>(
                    store, traces,
                    std::make_unique<InProcessBackend>(traces, 2)));
    expectProgressPerJob(stored, traces);
}

namespace
{

/** @p job with its run wrapped to count invocations in @p calls. */
SweepJob
counted(SweepJob job, std::atomic<unsigned> &calls)
{
    job.run = [&calls, run = std::move(job.run)](const Trace &t) {
        ++calls;
        return run(t);
    };
    return job;
}

} // namespace

TEST(SweepMemo, SimulatesEachDistinctJobOnce)
{
    TraceCache traces(kTestScale);
    SweepEngine engine(traces, 4);
    engine.enableManifest();
    std::atomic<unsigned> calls{0};
    SweepJob a = counted(refJob("hydro2d", makeRefConfig(50)), calls);
    SweepJob b = counted(oooJob("hydro2d", makeOooConfig(16, 16, 50)),
                         calls);

    // Duplicates within one batch reach the simulator once each...
    std::vector<SimResult> first = engine.run({a, b, a, a, b});
    EXPECT_EQ(calls.load(), 2u);
    EXPECT_EQ(first[2].toJson(), first[0].toJson());
    EXPECT_EQ(first[3].toJson(), first[0].toJson());
    EXPECT_EQ(first[4].toJson(), first[1].toJson());
    EXPECT_NE(first[0].toJson(), first[1].toJson());

    // ...and repeats of an earlier batch never reach it.
    std::vector<SimResult> second = engine.run({b, a});
    EXPECT_EQ(calls.load(), 2u);
    EXPECT_EQ(second[0].toJson(), first[1].toJson());
    EXPECT_EQ(second[1].toJson(), first[0].toJson());

    // The manifest lists every job; only the simulated ones are not
    // cached, and memo-served ones took no time.
    const std::vector<JobRecord> &m = engine.manifest();
    ASSERT_EQ(m.size(), 7u);
    for (size_t i = 0; i < m.size(); ++i) {
        bool simulated = i < 2;
        EXPECT_EQ(m[i].cached, !simulated) << "record " << i;
        if (!simulated) {
            EXPECT_EQ(m[i].wallMs, 0.0) << "record " << i;
        }
    }
}

TEST(SweepMemo, KeysSyntheticTracesByContentNotAddress)
{
    // A trace freed after its batch is often reallocated at the same
    // address; a memo keyed by address would then serve the old
    // trace's result for different instructions.
    TraceCache traces(kTestScale);
    SweepEngine engine(traces, 1);
    for (unsigned n = 0; n < 8; ++n) {
        auto t = syntheticTrace("synthetic", n);
        OooConfig cfg = makeBankedOooConfig(8, 50);
        SimResult memo = engine.run({oooTraceJob(t, cfg)})[0];
        SweepEngine fresh(traces, 1);
        SimResult want = fresh.run({oooTraceJob(t, cfg)})[0];
        EXPECT_EQ(memo.toJson(), want.toJson()) << "trace " << n;
    }
}

TEST(SweepMemo, IdenticalTracesKeepTheirOwnProgramLabels)
{
    TraceCache traces(kTestScale);
    SweepEngine engine(traces, 2);
    OooConfig cfg = makeOooConfig(16, 16, 50);
    std::vector<SimResult> res =
        engine.run({oooTraceJob(syntheticTrace("left", 3), cfg),
                    oooTraceJob(syntheticTrace("right", 3), cfg)});
    EXPECT_EQ(res[0].program, "left");
    EXPECT_EQ(res[1].program, "right");
    EXPECT_EQ(res[0].cycles, res[1].cycles);
    res = engine.run({oooTraceJob(syntheticTrace("right", 3), cfg)});
    EXPECT_EQ(res[0].program, "right");
}

TEST(SweepMemo, UncacheableJobsAlwaysRun)
{
    TraceCache traces(kTestScale);
    SweepEngine engine(traces, 2);
    std::atomic<unsigned> calls{0};
    // A prefetch dummy: no config key.
    SweepJob dummy = counted(
        {"trfd", [](const Trace &) { return SimResult{}; }, nullptr,
         std::string()},
        calls);

    engine.run({dummy, dummy});
    engine.run({dummy, dummy});
    EXPECT_EQ(calls.load(), 4u);
}

TEST(SweepMemo, DuplicatesGiveSameResultsAtOneAndEightThreads)
{
    TraceCache traces(kTestScale);
    std::vector<SweepJob> jobs = testBatch(traces);
    std::vector<SweepJob> once = jobs;
    jobs.insert(jobs.end(), once.rbegin(), once.rend());

    SweepEngine serial(traces, 1);
    SweepEngine parallel(traces, 8);
    std::vector<SimResult> a = serial.run(jobs);
    std::vector<SimResult> b = parallel.run(jobs);
    ASSERT_EQ(a.size(), jobs.size());
    ASSERT_EQ(b.size(), jobs.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].toJson(), b[i].toJson()) << "job " << i;
        EXPECT_EQ(a[i].toJson(), a[jobs.size() - 1 - i].toJson())
            << "job " << i;
    }
}

TEST(JobSet, IndicesReadBackAfterRun)
{
    TraceCache traces(kTestScale);
    SweepEngine engine(traces, 2);
    JobSet js;
    size_t a = js.add(refJob("hydro2d", makeRefConfig(50)));
    size_t b = js.add(oooJob("trfd", makeOooConfig(16, 16, 50)));
    size_t c = js.add(idealJob("swm256"));
    js.run(engine);
    EXPECT_EQ(js[a].program, "hydro2d");
    EXPECT_EQ(js[a].machine, "REF");
    EXPECT_EQ(js[b].program, "trfd");
    EXPECT_EQ(js[c].program, "swm256");
    EXPECT_EQ(js[c].machine, "IDEAL");
}

TEST(TraceCache, GeneratesEachTraceOnceUnderConcurrency)
{
    std::atomic<unsigned> generations{0};
    TraceCache cache(kTestScale,
                     [&](const std::string &name,
                         const GenOptions &opts) {
                         generations.fetch_add(1);
                         return makeBenchmarkTrace(name, opts);
                     });

    const std::vector<std::string> wanted = {"hydro2d", "trfd"};
    constexpr unsigned kThreads = 8;
    std::vector<const Trace *> seen(kThreads * wanted.size());
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t)
        pool.emplace_back([&, t] {
            for (size_t n = 0; n < wanted.size(); ++n)
                seen[t * wanted.size() + n] = &cache.get(wanted[n]);
        });
    for (auto &t : pool)
        t.join();

    // One generation per distinct trace, not per caller...
    EXPECT_EQ(generations.load(), wanted.size());
    // ...and every caller got the same stable object.
    for (unsigned t = 0; t < kThreads; ++t)
        for (size_t n = 0; n < wanted.size(); ++n)
            EXPECT_EQ(seen[t * wanted.size() + n],
                      seen[n]);
}

TEST(TraceCache, ReferencesStableAcrossLookups)
{
    TraceCache cache(kTestScale);
    const Trace *first = &cache.get("hydro2d");
    // Filling the rest of the cache must not move earlier entries.
    for (const auto &name : cache.names())
        cache.get(name);
    EXPECT_EQ(&cache.get("hydro2d"), first);
    EXPECT_EQ(cache.get("hydro2d").name(), "hydro2d");
    EXPECT_EQ(cache.names().size(), 10u);
}

class EnvScaleTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        unsetenv("OOVA_SCALE");
    }

    double
    withEnv(const char *value)
    {
        setenv("OOVA_SCALE", value, 1);
        return envTraceScale();
    }
};

TEST_F(EnvScaleTest, UnsetDefaultsToOne)
{
    unsetenv("OOVA_SCALE");
    EXPECT_EQ(envTraceScale(), 1.0);
}

TEST_F(EnvScaleTest, AcceptsPositiveNumbers)
{
    EXPECT_EQ(withEnv("0.5"), 0.5);
    EXPECT_EQ(withEnv("2"), 2.0);
    EXPECT_EQ(withEnv("1e-1"), 0.1);
}

TEST_F(EnvScaleTest, RejectsTrailingGarbage)
{
    // atof would silently have parsed these as 0.5 / 1.0.
    EXPECT_EQ(withEnv("0.5x"), 1.0);
    EXPECT_EQ(withEnv("1.0 extra"), 1.0);
}

TEST_F(EnvScaleTest, RejectsNonNumbersAndNonPositive)
{
    EXPECT_EQ(withEnv(""), 1.0);
    EXPECT_EQ(withEnv("abc"), 1.0);
    EXPECT_EQ(withEnv("-1"), 1.0);
    EXPECT_EQ(withEnv("0"), 1.0);
    EXPECT_EQ(withEnv("nan"), 1.0);
    EXPECT_EQ(withEnv("inf"), 1.0);
}

TEST(Speedup, ZeroCyclesIsNaNNotZero)
{
    SimResult base, broken;
    base.cycles = 100;
    broken.cycles = 0;
    EXPECT_TRUE(std::isnan(speedup(base, broken)));
    broken.cycles = 50;
    EXPECT_EQ(speedup(base, broken), 2.0);
}

TEST(FigureRegistry, AllFiguresRegisteredAndFindable)
{
    const auto &registry = figureRegistry();
    EXPECT_EQ(registry.size(), 22u);
    for (const FigureDef &fig : registry)
        EXPECT_EQ(findFigure(fig.name), &fig) << fig.name;
    // Figures are found by their short id only; the names of the
    // retired per-figure binaries are not aliases.
    EXPECT_EQ(findFigure("fig5_speedup"), nullptr);
    EXPECT_EQ(findFigure("cpi_stack"), nullptr);
    // Every entry is a deterministic function of (trace, machine);
    // host timings belong to the simspeed microbenchmarks.
    EXPECT_EQ(findFigure("simspeed"), nullptr);
    EXPECT_EQ(findFigure("nope"), nullptr);
}

namespace
{

/** Drive parseCommonFlag over a whole argv the way the drivers do. */
int
parseAll(std::vector<const char *> args, FigureOptions &opts)
{
    args.insert(args.begin(), "prog");
    int argc = static_cast<int>(args.size());
    char **argv = const_cast<char **>(args.data());
    for (int i = 1; i < argc; ++i) {
        int r = parseCommonFlag(argc, argv, i, opts);
        if (r != 1)
            return r;
    }
    return 1;
}

} // namespace

TEST(FigureFlags, AcceptsWellFormedValues)
{
    FigureOptions opts;
    EXPECT_EQ(parseAll({"--threads", "8", "--json", "--scale", "0.5"},
                       opts),
              1);
    EXPECT_EQ(opts.threads, 8u);
    EXPECT_TRUE(opts.json);
    EXPECT_EQ(opts.scale, 0.5);
}

TEST(FigureFlags, RejectsMalformedThreads)
{
    // "-3" wraps to a huge unsigned through strtoul; "4x" has
    // trailing garbage; a missing value must not read past argv.
    FigureOptions opts;
    EXPECT_EQ(parseAll({"--threads", "-3"}, opts), -1);
    EXPECT_EQ(parseAll({"--threads", "4x"}, opts), -1);
    EXPECT_EQ(parseAll({"--threads", ""}, opts), -1);
    EXPECT_EQ(parseAll({"--threads", "999999999999"}, opts), -1);
    EXPECT_EQ(parseAll({"--threads"}, opts), -1);
    EXPECT_EQ(parseAll({"--threads", "0"}, opts), 1)
        << "0 legitimately means hardware concurrency";
}

TEST(FigureFlags, RejectsMalformedScale)
{
    // Mirrors the full-string envTraceScale() validation: the value
    // must parse in its entirety as a positive finite number, so a
    // typo can never silently run a sweep at the wrong scale.
    FigureOptions opts;
    EXPECT_EQ(parseAll({"--scale", "-2"}, opts), -1);
    EXPECT_EQ(parseAll({"--scale", "0"}, opts), -1);
    EXPECT_EQ(parseAll({"--scale", "abc"}, opts), -1);
    EXPECT_EQ(parseAll({"--scale", "nan"}, opts), -1);
    EXPECT_EQ(parseAll({"--scale", "inf"}, opts), -1);
    EXPECT_EQ(parseAll({"--scale", "1e999"}, opts), -1)
        << "overflow to infinity is rejected, not accepted";
    EXPECT_EQ(parseAll({"--scale", "0.5x"}, opts), -1)
        << "trailing garbage is rejected, not truncated";
    EXPECT_EQ(parseAll({"--scale", ""}, opts), -1);
    EXPECT_EQ(parseAll({"--scale"}, opts), -1);
    // And the smallest legal values still work.
    EXPECT_EQ(parseAll({"--scale", "1e-3"}, opts), 1);
    EXPECT_EQ(opts.scale, 1e-3);
}

TEST(FigureFlags, UnknownFlagIsNotConsumed)
{
    FigureOptions opts;
    EXPECT_EQ(parseAll({"--frobnicate"}, opts), 0);
}

TEST(FigureFlags, ParsesSweepFarmFlags)
{
    FigureOptions opts;
    EXPECT_EQ(parseAll({"--store", "/tmp/st", "--store-stats"}, opts),
              1);
    EXPECT_EQ(opts.storeDir, "/tmp/st");
    EXPECT_TRUE(opts.storeStats);

    EXPECT_EQ(parseAll({"--store"}, opts), -1);
    EXPECT_EQ(parseAll({"--store", ""}, opts), -1);
}

TEST(FigureFlags, ParsesTelemetryFlags)
{
    FigureOptions opts;
    EXPECT_EQ(parseAll({"--store", "/tmp/st", "--store-max-mb", "64",
                        "--stats", "out.txt",
                        "--perfetto=trace.json"},
                       opts),
              1);
    EXPECT_EQ(opts.storeMaxMb, 64u);
    EXPECT_EQ(opts.statsPath, "out.txt");
    EXPECT_EQ(opts.perfettoPath, "trace.json");
    EXPECT_TRUE(validateFigureOptions(opts));

    // A cap of zero MiB would mean "evict everything": rejected, as
    // are the usual malformed spellings.
    EXPECT_EQ(parseAll({"--store-max-mb", "0"}, opts), -1);
    EXPECT_EQ(parseAll({"--store-max-mb", "4x"}, opts), -1);
    EXPECT_EQ(parseAll({"--store-max-mb"}, opts), -1);
    EXPECT_EQ(parseAll({"--stats", ""}, opts), -1);
    EXPECT_EQ(parseAll({"--stats"}, opts), -1);
    EXPECT_EQ(parseAll({"--perfetto="}, opts), -1);

    // Capping a store that was never configured is a cross-flag
    // error, like --store-stats without --store.
    FigureOptions capOnly;
    ASSERT_EQ(parseAll({"--store-max-mb", "8"}, capOnly), 1);
    EXPECT_FALSE(validateFigureOptions(capOnly));
}

TEST(FigureFlags, AcceptsEqualsSpellings)
{
    FigureOptions opts;
    EXPECT_EQ(parseAll({"--threads=8", "--scale=0.5",
                        "--store=/tmp/st2"},
                       opts),
              1);
    EXPECT_EQ(opts.threads, 8u);
    EXPECT_EQ(opts.scale, 0.5);
    EXPECT_EQ(opts.storeDir, "/tmp/st2");
    EXPECT_EQ(parseAll({"--threads="}, opts), -1);
    EXPECT_EQ(parseAll({"--store="}, opts), -1);
}

TEST(FigureFlags, ValidateRejectsAmbiguousCombinations)
{
    FigureOptions threadsOnly;
    ASSERT_EQ(parseAll({"--threads", "2"}, threadsOnly), 1);
    EXPECT_TRUE(validateFigureOptions(threadsOnly));

    // --store-stats without a store has nothing to report on.
    FigureOptions statsOnly;
    ASSERT_EQ(parseAll({"--store-stats"}, statsOnly), 1);
    EXPECT_FALSE(validateFigureOptions(statsOnly));

    FigureOptions storeAndStats;
    ASSERT_EQ(parseAll({"--store", "/tmp/st", "--store-stats"},
                       storeAndStats),
              1);
    EXPECT_TRUE(validateFigureOptions(storeAndStats));
}

TEST(FigureFlags, SupervisionAndFsyncNeedTheirSubsystem)
{
    // --store-fsync without --store has nothing to sync.
    FigureOptions fsyncOnly;
    ASSERT_EQ(parseAll({"--store-fsync"}, fsyncOnly), 1);
    EXPECT_FALSE(validateFigureOptions(fsyncOnly));

    FigureOptions fsyncStore;
    ASSERT_EQ(parseAll({"--store", "/tmp/st", "--store-fsync"},
                       fsyncStore),
              1);
    EXPECT_TRUE(fsyncStore.storeFsync);
    EXPECT_TRUE(validateFigureOptions(fsyncStore));
}

TEST(FigureRegistry, FigureOutputIdenticalAcrossThreadCounts)
{
    const FigureDef *fig = findFigure("fig6");
    ASSERT_NE(fig, nullptr);
    TraceCache traces(kTestScale);
    SweepEngine serial(traces, 1);
    SweepEngine parallel(traces, 8);
    std::string a =
        renderFigureText(*fig, fig->fn(serial), traces.scale());
    std::string b =
        renderFigureText(*fig, fig->fn(parallel), traces.scale());
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("== Figure 6"), std::string::npos);
}

TEST(FigureRegistry, NoFigureSubmitsAJobTwice)
{
    // Cells that name one machine share one job, so on a fresh
    // engine every job a figure lists is simulated, none served from
    // the memo.
    TraceCache traces(kTestScale);
    for (const FigureDef &fig : figureRegistry()) {
        SweepEngine engine(traces, 2);
        engine.enableManifest();
        fig.fn(engine);
        for (const JobRecord &job : engine.manifest())
            EXPECT_FALSE(job.cached) << fig.name << ": " << job.program
                                     << " on " << job.machine;
    }
}

TEST(FigureRegistry, AllFiguresOnOneEngineShareTheirJobs)
{
    // Every figure on one engine, as `oova_bench all` runs them. A
    // config key that split one machine in two, or merged two into
    // one, would move these counts.
    TraceCache traces(0.25);
    SweepEngine engine(traces, 4);
    engine.enableManifest();
    for (const FigureDef &fig : figureRegistry())
        fig.fn(engine);
    size_t simulated = 0;
    for (const JobRecord &job : engine.manifest())
        simulated += !job.cached;
    EXPECT_EQ(engine.manifest().size(), 918u);
    EXPECT_EQ(simulated, 558u);
}

TEST(FigureJson, ManifestEnvelopeIsSchemaV5)
{
    const FigureDef *fig = findFigure("tab1");
    ASSERT_NE(fig, nullptr);
    TraceCache traces(kTestScale);
    SweepEngine engine(traces, 1);
    FigureResult result = fig->fn(engine);
    auto render = [&](const RunManifest *manifest) {
        return renderFigureJson(*fig, result, traces.scale(),
                                engine.threads(), manifest);
    };
    constexpr size_t npos = std::string::npos;

    RunManifest manifest;
    manifest.scale = traces.scale();
    manifest.threads = engine.threads();
    manifest.backend = engine.backendName();
    manifest.jobs = {{"hydro2d", "REF", 1.5, false}};
    std::string plain = render(&manifest);
    EXPECT_NE(plain.find("\"schemaVersion\": 5,"), npos);
    EXPECT_NE(plain.find("\"backend\": \"in-process x1\""), npos);
    EXPECT_NE(plain.find("{\"program\": \"hydro2d\", \"machine\": "
                         "\"REF\", \"wallMs\": 1.500, "
                         "\"cached\": false}"),
              npos);
    EXPECT_EQ(plain.find("\"faults\""), npos);
    EXPECT_EQ(plain.find("\"store\""), npos)
        << "no store block without a store";

    manifest.hasStore = true;
    manifest.store.hits = 7;
    manifest.store.quarantined = 1;
    std::string stored = render(&manifest);
    EXPECT_NE(stored.find("\"store\": {\"hits\": 7,"), npos);
    EXPECT_NE(stored.find("\"quarantined\": 1}"), npos);
    EXPECT_EQ(stored.find("\"faults\""), npos);

    EXPECT_EQ(render(nullptr).find("\"manifest\""), npos);
}

TEST(SimResultJsonTest, SurfacesEveryCounter)
{
    SimResult res;
    res.program = "swm\"256";
    res.machine = "OOOVA-16";
    res.cycles = 1234;
    res.instructions = 617;
    res.memBusyCycles = 600;
    res.memRequests = 17;
    res.tlbMisses = 4;
    res.tlbIndexedMisses = 3;
    res.vectorLoadsEliminated = 5;
    res.stallCycles[static_cast<unsigned>(StallCause::Ports)] = 9;
    res.stateCycles[0] = 11;

    std::string js = res.toJson();
    // Structure: one object, quoted string values escaped.
    EXPECT_EQ(js.front(), '{');
    EXPECT_EQ(js.substr(js.size() - 2), "}\n");
    EXPECT_NE(js.find("\"program\": \"swm\\\"256\""),
              std::string::npos);
    EXPECT_NE(js.find("\"machine\": \"OOOVA-16\""),
              std::string::npos);
    // Plain counters, including ones left at zero.
    EXPECT_NE(js.find("\"cycles\": 1234"), std::string::npos);
    EXPECT_NE(js.find("\"instructions\": 617"), std::string::npos);
    EXPECT_NE(js.find("\"memRequests\": 17"), std::string::npos);
    EXPECT_NE(js.find("\"tlbIndexedMisses\": 3"), std::string::npos);
    EXPECT_NE(js.find("\"vectorLoadsEliminated\": 5"),
              std::string::npos);
    EXPECT_NE(js.find("\"traps\": 0"), std::string::npos);
    // Keyed breakdowns use their human-readable names.
    EXPECT_NE(js.find("\"stallCycles\""), std::string::npos);
    EXPECT_NE(js.find("\"ports\": 9"), std::string::npos);
    EXPECT_NE(js.find("\"stateCycles\""), std::string::npos);
    // Derived accessors are precomputed for consumers.
    EXPECT_NE(js.find("\"ipc\": 0.5"), std::string::npos);
    EXPECT_NE(js.find("\"portIdleFraction\""), std::string::npos);
    EXPECT_NE(js.find("\"memStridedConflicts\": 0"),
              std::string::npos);
    EXPECT_NE(js.find("\"stridedTlbMisses\": 1"), std::string::npos);
}
