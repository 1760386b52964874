/**
 * @file
 * Simulator-throughput microbenchmarks (google-benchmark): how many
 * simulated instructions per second each model sustains, plus the
 * cost of trace generation, of hashing a trace for its result-store
 * key, of a whole sweep batch through the parallel sweep engine, and
 * of the SimResult JSON round trip every result-store hit pays. These
 * guard against performance regressions in the simulators and in the
 * sweep path every figure runs on.
 * scripts/bench_speed.sh records them in BENCH_simspeed.json.
 */

#include <benchmark/benchmark.h>

#include "core/ooosim.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "ref/refsim.hh"
#include "tgen/benchmarks.hh"
#include "trace/trace_io.hh"

using namespace oova;

namespace
{

const TraceCache &
sharedTraces()
{
    static TraceCache cache(0.5);
    return cache;
}

const Trace &
cachedTrace()
{
    return sharedTraces().get("hydro2d");
}

/** A real OOOVA result with every telemetry block populated. */
const SimResult &
telemetryResult()
{
    static const SimResult r = [] {
        OooConfig cfg;
        cfg.cpiStack = true;
        cfg.telemetry = true;
        return simulateOoo(cachedTrace(), cfg);
    }();
    return r;
}

} // namespace

static void
BM_TraceGeneration(benchmark::State &state)
{
    GenOptions o;
    o.scale = 0.25;
    size_t n = 0;
    for (auto _ : state) {
        Trace t = makeBenchmarkTrace("swm256", o);
        n = t.size();
        benchmark::DoNotOptimize(t);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_TraceGeneration);

static void
BM_RefSim(benchmark::State &state)
{
    const Trace &t = cachedTrace();
    for (auto _ : state) {
        SimResult r = simulateRef(t, RefConfig{});
        benchmark::DoNotOptimize(r.cycles);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * t.size()));
}
BENCHMARK(BM_RefSim);

static void
BM_OooSim(benchmark::State &state)
{
    const Trace &t = cachedTrace();
    OooConfig cfg;
    cfg.numPhysVRegs = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        SimResult r = simulateOoo(t, cfg);
        benchmark::DoNotOptimize(r.cycles);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * t.size()));
}
BENCHMARK(BM_OooSim)->Arg(16)->Arg(64);

static void
BM_OooSimLoadElim(benchmark::State &state)
{
    const Trace &t = cachedTrace();
    OooConfig cfg;
    cfg.numPhysVRegs = 32;
    cfg.commit = CommitMode::Late;
    cfg.loadElim = LoadElimMode::SleVle;
    for (auto _ : state) {
        SimResult r = simulateOoo(t, cfg);
        benchmark::DoNotOptimize(r.cycles);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * t.size()));
}
BENCHMARK(BM_OooSimLoadElim);

/**
 * A whole figure-sized batch through the sweep engine: all ten
 * benchmarks on the default OOOVA, with the thread count as the
 * benchmark argument.
 */
static void
BM_SweepEngine(benchmark::State &state)
{
    const TraceCache &traces = sharedTraces();
    std::vector<SweepJob> jobs;
    uint64_t elems = 0;
    for (const auto &name : traces.names()) {
        jobs.push_back(oooJob(name, makeOooConfig(16, 16, 50)));
        elems += traces.get(name).size();
    }
    for (auto _ : state) {
        // A fresh engine per batch: an engine's memo would answer
        // every job past the first iteration.
        SweepEngine engine(traces,
                           static_cast<unsigned>(state.range(0)));
        std::vector<SimResult> res = engine.run(jobs);
        benchmark::DoNotOptimize(res);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * elems));
}
// Real time, not CPU time: the engine's worker threads do the work,
// so the main thread's CPU time would overstate throughput wildly.
BENCHMARK(BM_SweepEngine)->Arg(1)->Arg(4)->UseRealTime();

/**
 * Hashing a whole trace (instructions hashed per second): the trace
 * half of every result-store key, paid once per trace per process.
 */
static void
BM_TraceContentHash(benchmark::State &state)
{
    const Trace &t = cachedTrace();
    for (auto _ : state) {
        uint64_t h = traceContentHash(t);
        benchmark::DoNotOptimize(h);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * t.size()));
}
BENCHMARK(BM_TraceContentHash);

/** Writing one result record: the cost of every store write. */
static void
BM_SimResultToJson(benchmark::State &state)
{
    const SimResult &r = telemetryResult();
    for (auto _ : state) {
        std::string json = r.toJson();
        benchmark::DoNotOptimize(json);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SimResultToJson);

/** Parsing one result record: the cost of every result-store hit. */
static void
BM_SimResultFromJson(benchmark::State &state)
{
    const std::string json = telemetryResult().toJson();
    SimResult out;
    if (!SimResult::fromJson(json, out))
        state.SkipWithError("toJson() output does not parse back");
    for (auto _ : state) {
        bool ok = SimResult::fromJson(json, out);
        benchmark::DoNotOptimize(ok);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SimResultFromJson);

BENCHMARK_MAIN();
