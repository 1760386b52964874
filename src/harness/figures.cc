/**
 * @file
 * Implementations of every paper table/figure as sweep declarations.
 * Most figures are data: a list of Columns over the ten programs,
 * where each Column names the two machines its cells compare (base
 * and test; one machine twice for a plain count) and the metric a
 * cell reads from that pair. columnFigure() submits each distinct
 * (program, machine) of a figure once, runs the batch through the
 * SweepEngine and formats the rows; breakdownFigure() does the same
 * for the percent-of-cycles breakdowns. The tables, the synthetic-
 * trace memory studies and occupancy keep their own code. Results
 * come back index-aligned, so the output is identical no matter how
 * many worker threads execute the batch. Each figure's comment says
 * what the paper reports and what to compare against.
 */

#include <array>
#include <numeric>
#include <string>
#include <variant>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "harness/experiment.hh"
#include "harness/figure.hh"
#include "isa/latency.hh"
#include "trace/trace_stats.hh"

namespace oova
{

namespace
{

// ------------------------------------------- column figures, as data

/** The IDEAL bound of figure 5: the trace's resource limit. */
struct Ideal
{
};

/**
 * A machine a figure runs (REF, the OOOVA or the IDEAL bound), held
 * as its job with the program left open, so its configKey is built
 * once however many cells name it.
 */
struct Machine
{
    Machine(const RefConfig &cfg) : job(refJob("", cfg)) {}
    Machine(const OooConfig &cfg) : job(oooJob("", cfg)) {}
    Machine(Ideal) : job(idealJob("")) {}

    /** This machine's job on @p program. */
    SweepJob
    on(const std::string &program) const
    {
        SweepJob j = job;
        j.trace = program;
        return j;
    }

    SweepJob job;
};

/** A cell's number, from its column's base and test results. */
using Ratio = double (*)(const SimResult &base, const SimResult &test);

/**
 * One column: each cell reads the base and test machines' results on
 * its row's program, either as a Ratio printed at @c precision or as
 * a counter of the test machine.
 */
struct Column
{
    std::string label;
    Machine base;
    Machine test;
    std::variant<Ratio, uint64_t SimResult::*> metric = speedup;
    int precision = 2;
};

/** A single-machine column printing @p field (default: cycles). */
Column
count(std::string label, const Machine &m,
      uint64_t SimResult::*field = &SimResult::cycles)
{
    return {std::move(label), m, m, field};
}

/** test.cycles / base.cycles: how much slower the test machine is. */
double
slowdown(const SimResult &base, const SimResult &test)
{
    return speedup(test, base);
}

/** Percentage of the test machine's cycles its memory port idles. */
double
portIdlePct(const SimResult &, const SimResult &test)
{
    return 100.0 * test.portIdleFraction();
}

/** One table: columns over programs (all ten when empty). */
struct Section
{
    std::string heading;
    std::vector<Column> columns;
    std::vector<std::string> programs = {};
};

/** A figure of program rows by columns, one table per section. */
FigureResult
columnFigure(const SweepEngine &engine,
             const std::vector<Section> &sections, std::string footnote)
{
    auto programs = [&](const Section &s) -> const auto & {
        return s.programs.empty() ? engine.traces().names()
                                  : s.programs;
    };
    JobSet js;
    // (base, test) job of every cell, in printing order.
    std::vector<std::pair<size_t, size_t>> cells;
    for (const Section &s : sections)
        for (const std::string &p : programs(s))
            for (const Column &c : s.columns) {
                size_t base = js.add(c.base.on(p));
                cells.emplace_back(base, js.add(c.test.on(p)));
            }
    js.run(engine);

    FigureResult out;
    auto cell = cells.begin();
    for (const Section &s : sections) {
        std::vector<std::string> header{"Program"};
        for (const Column &c : s.columns)
            header.push_back(c.label);
        TextTable table(header);
        for (const std::string &p : programs(s)) {
            std::vector<std::string> row{p};
            for (const Column &c : s.columns) {
                const SimResult &base = js[cell->first];
                const SimResult &test = js[cell->second];
                ++cell;
                if (const auto *field =
                        std::get_if<uint64_t SimResult::*>(&c.metric))
                    row.push_back(TextTable::fmt(test.*(*field)));
                else
                    row.push_back(TextTable::fmt(
                        std::get<Ratio>(c.metric)(base, test),
                        c.precision));
            }
            table.addRow(row);
        }
        out.sections.push_back({s.heading, std::move(table)});
    }
    out.footnote = std::move(footnote);
    return out;
}

/**
 * One section per program: a row per bucket giving each machine's
 * @p counter as a percentage of its cycles, then a total-cycles row.
 */
using Machines = std::vector<std::pair<std::string, Machine>>;

FigureResult
breakdownFigure(const SweepEngine &engine, const char *rowHeader,
                const Machines &machines,
                const std::vector<std::string> &buckets,
                uint64_t (*counter)(const SimResult &, size_t bucket),
                std::string footnote)
{
    const auto &names = engine.traces().names();
    JobSet js;
    std::vector<size_t> idx; // program-major, machine-minor
    std::vector<std::string> header{rowHeader};
    for (const auto &[label, m] : machines)
        header.push_back(label);
    for (const std::string &p : names)
        for (const auto &[label, m] : machines)
            idx.push_back(js.add(m.on(p)));
    js.run(engine);

    FigureResult out;
    for (size_t p = 0; p < names.size(); ++p) {
        auto result = [&](size_t m) -> const SimResult & {
            return js[idx[p * machines.size() + m]];
        };
        TextTable table(header);
        for (size_t b = 0; b < buckets.size(); ++b) {
            std::vector<std::string> row{buckets[b]};
            for (size_t m = 0; m < machines.size(); ++m)
                row.push_back(TextTable::fmt(
                    100.0 * static_cast<double>(counter(result(m), b)) /
                        static_cast<double>(result(m).cycles),
                    1));
            table.addRow(row);
        }
        std::vector<std::string> total{"total cycles"};
        for (size_t m = 0; m < machines.size(); ++m)
            total.push_back(TextTable::fmt(result(m).cycles));
        table.addRow(total);
        out.sections.push_back(
            {"--- " + names[p] + " ---", std::move(table)});
    }
    out.footnote = std::move(footnote);
    return out;
}

// ------------------------------------------------------------ fig3/7
// The 8-state execution breakdown tables list states from fully-busy
// down to all-idle, then a total-cycles row.

std::vector<std::string>
unitStates()
{
    std::vector<std::string> rows;
    for (int st = UnitStateBreakdown::kNumStates - 1; st >= 0; --st)
        rows.push_back(UnitStateBreakdown::stateName(st));
    return rows;
}

uint64_t
unitStateCycles(const SimResult &r, size_t row)
{
    return r.stateCycles[UnitStateBreakdown::kNumStates - 1 - row];
}

// Figure 3 classifies each cycle of the reference architecture by
// the 3-tuple (FU2, FU1, MEM) of busy units, for memory latencies 1,
// 20, 70 and 100 (the paper shows hydro2d and dyfesm; all ten
// programs are printed here). The paper: few cycles at the peak
// state <FU2,FU1,MEM>; the all-idle state < , , > grows with memory
// latency.

FigureResult
fig3RefStates(const SweepEngine &engine)
{
    Machines machines;
    for (unsigned lat : {1u, 20u, 70u, 100u})
        machines.emplace_back(csprintf("lat%u (%%)", lat),
                              makeRefConfig(lat));
    return breakdownFigure(
        engine, "State", machines, unitStates(), unitStateCycles,
        "(paper: few cycles at peak state <FU2,FU1,MEM>; "
        "idle state < , , > grows with latency)");
}

// ------------------------------------------------------------- fig4
// Percentage of cycles the memory port is idle on the reference
// architecture, for memory latencies of 1, 20, 70 and 100 cycles.
// The paper reports 30-65% idle at latency 70 across the ten
// programs: the in-order machine cannot keep its single memory port
// busy.

FigureResult
fig4PortIdle(const SweepEngine &engine)
{
    std::vector<Column> cols;
    for (unsigned lat : {1u, 20u, 70u, 100u}) {
        Machine ref = makeRefConfig(lat);
        cols.push_back(
            {csprintf("lat%u", lat), ref, ref, portIdlePct, 1});
    }
    return columnFigure(engine, {{"", cols}},
                        "(paper: 30-65% idle at latency 70; all ten "
                        "programs are memory bound)");
}

// ------------------------------------------------------------- fig5
// Speedup of the OOOVA over the reference architecture as the number
// of physical vector registers varies (9, 12, 16, 32, 64), for
// 16-deep and 128-deep instruction queues, against the IDEAL bound.
// Memory latency 50 cycles, early commit. The paper: speedups of
// 1.24-1.72 at 16 registers (lowest tomcatv, highest trfd/dyfesm);
// 12 registers already close; little further gain past 16 except
// bdna; deeper queues add little.

FigureResult
fig5Speedup(const SweepEngine &engine)
{
    const Machine ref = makeRefConfig(50);
    std::vector<Column> cols;
    for (unsigned regs : {9u, 12u, 16u, 32u, 64u})
        cols.push_back({csprintf("q16/%ur", regs), ref,
                        makeOooConfig(regs, 16, 50)});
    for (unsigned regs : {16u, 64u})
        cols.push_back({csprintf("q128/%ur", regs), ref,
                        makeOooConfig(regs, 128, 50)});
    cols.push_back({"IDEAL", ref, Ideal{}});
    return columnFigure(engine, {{"", cols}},
                        "(paper: 1.24-1.72 at 16 regs; 12 regs nearly "
                        "as good; queues 128 ~ queues 16)");
}

// ------------------------------------------------------------- fig6
// Percentage of idle memory-port cycles, REF vs OOOVA (16 physical
// vector registers, memory latency 50). The paper: "the fraction of
// idle memory cycles is more than cut in half in most cases; for all
// but two benchmarks the port is idle less than 20% of the time."

FigureResult
fig6PortIdleOoo(const SweepEngine &engine)
{
    const Machine ref = makeRefConfig(50);
    const Machine ooo = makeOooConfig(16, 16, 50);
    return columnFigure(engine,
                        {{"",
                          {{"REF idle%", ref, ref, portIdlePct, 1},
                           {"OOOVA idle%", ooo, ooo, portIdlePct, 1}}}},
                        "(paper: OOOVA cuts idle cycles by more than "
                        "half in most cases)");
}

// ------------------------------------------------------------- fig7
// Execution cycles broken down into the 8 (FU2, FU1, MEM) states for
// REF vs OOOVA (16 physical vector registers, latency 50). The
// paper: the all-idle state ( , , ) almost disappears under the
// OOOVA and the fully-utilized state becomes relatively more
// frequent.

FigureResult
fig7StatesOoo(const SweepEngine &engine)
{
    return breakdownFigure(engine, "State",
                           {{"REF %", makeRefConfig(50)},
                            {"OOOVA %", makeOooConfig(16, 16, 50)}},
                           unitStates(), unitStateCycles,
                           "(paper: the all-idle state < , , > almost "
                           "disappears on the OOOVA)");
}

// ------------------------------------------------------------- fig8
// Total execution time as main-memory latency varies over {1, 50,
// 100} cycles, for REF, OOOVA-16 and IDEAL. The paper: REF is very
// sensitive to latency; OOOVA performance is nearly flat from 1 to
// 100 cycles (less than 6% degradation at 100), and OOOVA beats REF
// by 1.15-1.25 even at latency 1.

FigureResult
fig8Latency(const SweepEngine &engine)
{
    const unsigned lats[] = {1, 50, 100};
    std::vector<Column> cols;
    for (unsigned lat : lats)
        cols.push_back(
            count(csprintf("REF@%u", lat), makeRefConfig(lat)));
    for (unsigned lat : lats)
        cols.push_back(count(csprintf("OOO@%u", lat),
                             makeOooConfig(16, 16, lat)));
    cols.push_back(count("IDEAL", Ideal{}));
    cols.push_back({"OOO 100/1", makeOooConfig(16, 16, 1),
                    makeOooConfig(16, 16, 100), slowdown});
    cols.push_back(
        {"spdup@1", makeRefConfig(1), makeOooConfig(16, 16, 1)});
    return columnFigure(engine, {{"", cols}},
                        "(paper: OOOVA flat across 1..100 cycles; "
                        "speedup 1.15-1.25 even at latency 1)");
}

// ------------------------------------------------------------- fig9
// Early vs late commit (precise traps, paper section 5): speedups
// over REF for 9..64 physical vector registers at memory latency 50.
// The paper: late commit costs <5% for five programs, 7%/10.3% for
// flo52/nasa7, but 41%/47% for trfd/dyfesm, whose cross-iteration
// store->load dependences serialize on stores executing only at the
// ROB head; and 12 registers are no longer enough under late commit.

FigureResult
fig9Commit(const SweepEngine &engine)
{
    const Machine ref = makeRefConfig(50);
    std::vector<Column> cols;
    for (unsigned regs : {9u, 16u, 64u})
        cols.push_back({csprintf("e/%ur", regs), ref,
                        makeOooConfig(regs, 16, 50, CommitMode::Early)});
    for (unsigned regs : {9u, 12u, 16u, 32u, 64u})
        cols.push_back({csprintf("l/%ur", regs), ref,
                        makeOooConfig(regs, 16, 50, CommitMode::Late)});
    cols.push_back({"late/early@16",
                    makeOooConfig(16, 16, 50, CommitMode::Early),
                    makeOooConfig(16, 16, 50, CommitMode::Late)});
    return columnFigure(engine, {{"", cols}},
                        "(paper: late commit costs <10% for eight "
                        "programs but 41%/47% for trfd/dyfesm)");
}

// ------------------------------------------------------- fig11-13
// The load-elimination figures compare against the late-commit OOOVA
// at queue depth 16 and memory latency 50.

Machine
lateOoo(unsigned regs, LoadElimMode elim = LoadElimMode::None)
{
    return makeOooConfig(regs, 16, 50, CommitMode::Late, elim);
}

// Figure 11: speedup of scalar load elimination (SLE) over the
// late-commit OOOVA, for 16/32/64 physical vector registers. The
// paper: most programs gain under 5%, but trfd and dyfesm reach
// 1.30/1.36 because bypassing scalar loop-carried data lets the
// machine overlap ("dynamically unroll") more iterations.

FigureResult
fig11Sle(const SweepEngine &engine)
{
    std::vector<Column> cols;
    for (unsigned regs : {16u, 32u, 64u})
        cols.push_back({csprintf("%ur", regs), lateOoo(regs),
                        lateOoo(regs, LoadElimMode::Sle)});
    cols.push_back(count("sElims@32", lateOoo(32, LoadElimMode::Sle),
                         &SimResult::scalarLoadsEliminated));
    return columnFigure(engine, {{"", cols}},
                        "(paper: <1.05 for most programs; 1.30/1.36 "
                        "for trfd/dyfesm at 32 regs)");
}

// Figure 12: speedup of SLE+VLE (scalar + vector dynamic load
// elimination) over the late-commit OOOVA, for 16/32/64 physical
// vector registers. The paper: 1.04-1.16 for most programs at 16
// registers (1.78 and 2.13 for dyfesm/trfd); at 32 registers
// typically 1.10-1.20; 64 registers add little except tomcatv
// (1.19 -> 1.40).

FigureResult
fig12SleVle(const SweepEngine &engine)
{
    const Machine vle32 = lateOoo(32, LoadElimMode::SleVle);
    std::vector<Column> cols;
    for (unsigned regs : {16u, 32u, 64u})
        cols.push_back({csprintf("%ur", regs), lateOoo(regs),
                        lateOoo(regs, LoadElimMode::SleVle)});
    cols.push_back(
        count("vElims@32", vle32, &SimResult::vectorLoadsEliminated));
    cols.push_back(
        count("sElims@32", vle32, &SimResult::scalarLoadsEliminated));
    return columnFigure(engine, {{"", cols}},
                        "(paper: 1.04-1.16 typical at 16 regs, up to "
                        "2.13 trfd; 1.10-1.20 at 32 regs)");
}

// Figure 13: memory-traffic reduction under dynamic load elimination
// with 32 physical vector registers: the ratio of address-bus
// requests issued by the baseline late-commit OOOVA to those issued
// by the SLE and SLE+VLE configurations. The paper: SLE+VLE removes
// 15-20% of all memory requests for most programs and up to 40% for
// trfd/dyfesm.

double
trafficReduction(const SimResult &base, const SimResult &test)
{
    return 100.0 * (1.0 - static_cast<double>(test.memRequests) /
                              static_cast<double>(base.memRequests));
}

FigureResult
fig13Traffic(const SweepEngine &engine)
{
    const Machine base = lateOoo(32);
    const Machine sle = lateOoo(32, LoadElimMode::Sle);
    const Machine vle = lateOoo(32, LoadElimMode::SleVle);
    const auto reqs = &SimResult::memRequests;
    return columnFigure(engine,
                        {{"",
                          {count("base reqs", base, reqs),
                           count("SLE reqs", sle, reqs),
                           count("SLE+VLE reqs", vle, reqs),
                           {"SLE red%", base, sle, trafficReduction, 1},
                           {"SLE+VLE red%", base, vle, trafficReduction,
                            1}}}},
                        "(paper: 15-20% typical reduction, up to 40% "
                        "for trfd/dyfesm)");
}

// ------------------------------------------------------------- tab1
// Functional-unit latencies of the two architectures. The scanned
// paper's table is partially illegible; these are the reconstructed
// values used throughout this reproduction, printed so every
// experiment's parameters are on record.

FigureResult
tab1Machine(const SweepEngine &)
{
    LatencyTable ref = LatencyTable::refDefaults();
    LatencyTable ooo = LatencyTable::oooDefaults();

    TextTable table({"Parameter", "REF", "OOOVA"});
    auto row = [&](const char *name, unsigned a, unsigned b) {
        table.addRow({name, TextTable::fmt(uint64_t(a)),
                      TextTable::fmt(uint64_t(b))});
    };
    row("read x-bar", ref.readXbar, ooo.readXbar);
    row("write x-bar (vector)", ref.writeXbarVector,
        ooo.writeXbarVector);
    row("write x-bar (scalar)", ref.writeXbarScalar,
        ooo.writeXbarScalar);
    row("vector startup (*)", ref.vectorStartup, ooo.vectorStartup);
    row("move", ref.moveLat, ooo.moveLat);
    row("add/logic/shift", ref.addLogic, ooo.addLogic);
    row("mul", ref.mul, ooo.mul);
    row("div/sqrt", ref.divSqrt, ooo.divSqrt);
    row("memory (default, swept)", ref.memLatency, ooo.memLatency);
    row("branch mispredict", ref.branchMispredict,
        ooo.branchMispredict);

    FigureResult out;
    out.sections.push_back({"", std::move(table)});
    out.footnote = "(*) as in the paper's footnote: 0 in OOOVA, 1 in "
                   "REF.";
    out.showScale = false;
    return out;
}

// ------------------------------------------------------------- tab2
// Basic operation counts for the ten benchmark programs —
// scalar/vector instruction counts, vector operations, percentage of
// vectorization and average vector length — regenerated from the
// synthetic traces (the paper's come from Convex C3480 runs).

FigureResult
tab2Programs(const SweepEngine &engine)
{
    const auto &names = engine.traces().names();
    engine.prefetch(names);

    TextTable table({"Program", "#Scalar", "#Vector", "#VecOps",
                     "%Vect", "AvgVL"});
    for (const auto &name : names) {
        TraceStats s = TraceStats::compute(engine.traces().get(name));
        table.addRow({name, TextTable::fmt(s.scalarInsts),
                      TextTable::fmt(s.vectorInsts),
                      TextTable::fmt(s.vectorOps),
                      TextTable::fmt(s.vectorization(), 1),
                      TextTable::fmt(s.avgVectorLength(), 1)});
    }

    FigureResult out;
    out.sections.push_back({"", std::move(table)});
    out.footnote = "(paper, for reference: >=70% vectorization for "
                   "all ten; swm256 99.9% / VL 127; tomcatv most "
                   "scalar instructions)";
    return out;
}

// ------------------------------------------------------------- tab3
// Vector memory spill operations (words moved) per program, split
// into real and spill traffic, plus the scalar spill census. The
// paper highlights bdna, where over 69% of all memory traffic is
// spill traffic.

FigureResult
tab3Spills(const SweepEngine &engine)
{
    const auto &names = engine.traces().names();
    engine.prefetch(names);

    TextTable table({"Program", "VLoad", "VLoadSpill", "VStore",
                     "VStoreSpill", "Spill%", "SLoadSpill",
                     "SStoreSpill"});
    for (const auto &name : names) {
        TraceStats s = TraceStats::compute(engine.traces().get(name));
        table.addRow(
            {name, TextTable::fmt(s.vecLoadOps),
             TextTable::fmt(s.vecSpillLoadOps),
             TextTable::fmt(s.vecStoreOps),
             TextTable::fmt(s.vecSpillStoreOps),
             TextTable::fmt(100.0 * s.spillTrafficFraction(), 1),
             TextTable::fmt(s.scalarSpillLoads),
             TextTable::fmt(s.scalarSpillStores)});
    }

    FigureResult out;
    out.sections.push_back({"", std::move(table)});
    out.footnote = "(paper: several programs have large spill "
                   "traffic; bdna over 69% of total)";
    return out;
}

// -------------------------------------------------------- ablations
// Ablation studies beyond the paper:
//   1. load->FU chaining in the OOOVA (the paper's machine inherits
//      the C3400's no-load-chaining datapath; what would adding the
//      chaining path buy?)
//   2. instruction-queue depth sweep (extends figure 5's two points)
//   3. REF with dynamic port-conflict modeling (what careless,
//      port-oblivious register allocation would cost the in-order
//      machine)
//   4. commit width sweep

FigureResult
ablAblations(const SweepEngine &engine)
{
    const Machine ref = makeRefConfig(50);
    const OooConfig base = makeOooConfig(16, 16, 50);
    OooConfig chain = base;
    chain.chainLoadsToFus = true;
    RefConfig ports = makeRefConfig(50);
    ports.modelPortConflicts = true;

    std::vector<Column> queue, width;
    for (unsigned q : {4u, 8u, 16u, 32u, 64u, 128u})
        queue.push_back(
            {csprintf("q%u", q), ref, makeOooConfig(16, q, 50)});
    for (unsigned w : {1u, 2u, 4u, 8u}) {
        OooConfig c = base;
        c.commitWidth = w;
        width.push_back(count(csprintf("w%u", w), c));
    }
    return columnFigure(
        engine,
        {{"-- load->FU chaining --",
          {count("no-chain cyc", base), count("chain cyc", chain),
           {"chain gain", base, chain}}},
         {"-- queue depth (speedup over REF) --",
          queue,
          {"swm256", "trfd", "dyfesm", "bdna"}},
         {"-- REF register-file port conflicts --",
          {count("compiler-sched cyc", ref),
           count("port-oblivious cyc", ports),
           {"slowdown", ref, ports, slowdown}},
          {"swm256", "arc2d", "su2cor"}},
         {"-- commit width (cycles) --", width, {"tomcatv", "dyfesm"}}},
        "");
}

// ---------------------------------------------------------- membank
// Memory-hierarchy study: speedup over REF as the banked model's
// bank count grows. With one address port and a 4-cycle bank busy
// time, unit-stride programs need 4+ banks to sustain one element
// per cycle; programs with power-of-two strides (su2cor, nasa7,
// arc2d) keep colliding on a subset of the banks.

FigureResult
figMemBanks(const SweepEngine &engine)
{
    const Machine ref = makeRefConfig(50);
    const Machine b8 = makeBankedOooConfig(8, 50);
    std::vector<Column> cols{{"flat", ref, makeOooConfig(16, 16, 50)}};
    for (unsigned banks : {1u, 2u, 4u, 8u, 16u})
        cols.push_back({csprintf("b%u", banks), ref,
                        makeBankedOooConfig(banks, 50)});
    // Both machines on the same 8-bank memory: does the OOOVA's
    // advantage survive when REF also pays bank conflicts?
    cols.push_back({"vsREFb8", makeBankedRefConfig(8, 50), b8});
    cols.push_back(count("confl@b8", b8, &SimResult::memBankConflicts));
    cols.push_back(
        count("confCyc@b8", b8, &SimResult::memConflictCycles));
    return columnFigure(engine, {{"", cols}},
                        "(speedup over REF/flat at latency 50, except "
                        "vsREFb8 = OOOVA/b8 over REF/b8; unit-stride "
                        "programs climb monotonically with banks and "
                        "approach the flat bus, strided programs keep "
                        "residual bank conflicts)");
}

// -------------------------------------------------------- memstride
// Stride-conflict study on the banked model: a synthetic streaming
// kernel (two strided loads, two arithmetic ops, one strided store)
// swept over element strides against an 8-bank memory. Strides
// sharing a factor with the bank count hit fewer distinct banks and
// dilate the address phase; co-prime strides behave like stride 1.

FigureResult
figMemStride(const SweepEngine &engine)
{
    const unsigned strides[] = {1, 2, 3, 4, 7, 8, 16};
    const double scale = engine.traces().scale();

    auto makeStrideTrace = [&](unsigned stride_elems) {
        Program p("stride" + std::to_string(stride_elems));
        // Big enough for the scaled trip count: scale multiplies
        // trips inside generate(), so the arrays must cover
        // trips*scale * vl * stride elements of 8 bytes per outer
        // rep or the streams would run past their arrays.
        uint64_t trips = std::max<uint64_t>(
            1, static_cast<uint64_t>(48.0 * scale + 1.0));
        uint64_t bytes = trips * 2 * 64 * stride_elems * 8 + 4096;
        int a = p.array(bytes), b = p.array(bytes), c = p.array(bytes);
        Kernel *k = p.newKernel("stream");
        VVid x = k->vload(a, stride_elems);
        VVid y = k->vload(b, stride_elems);
        VVid t1 = k->vadd(x, y);
        VVid t2 = k->vmul(t1, x);
        k->vstore(c, t2, stride_elems);
        p.addLoop(k, 48, vlConstant(64));
        p.setOuterReps(2);
        GenOptions opts;
        opts.scale = scale;
        return std::make_shared<const Trace>(p.generate(opts));
    };

    JobSet js;
    // The flat bus ignores addresses entirely, so its cycle count is
    // stride-invariant: simulate it once on the stride-1 trace.
    auto t1trace = makeStrideTrace(1);
    size_t flatIdx =
        js.add(oooTraceJob(t1trace, makeOooConfig(16, 16, 50)));
    std::array<size_t, 7> bankedIdx;
    std::array<size_t, 7> dualIdx;
    for (size_t i = 0; i < 7; ++i) {
        auto t = strides[i] == 1 ? t1trace : makeStrideTrace(strides[i]);
        bankedIdx[i] = js.add(oooTraceJob(t, makeBankedOooConfig(8, 50)));
        // The same 8-bank memory behind two load/store units: the
        // kernel's two load streams overlap their address phases.
        dualIdx[i] = js.add(oooTraceJob(t, makeMultiUnitOooConfig(8, 2)));
    }
    js.run(engine);

    const SimResult &flat = js[flatIdx];
    TextTable table({"Stride", "flat cyc", "b8 cyc", "slowdown",
                     "conflicts", "confCycles", "distinct banks",
                     "b8x2 cyc", "x2 gain"});
    for (size_t i = 0; i < 7; ++i) {
        unsigned s = strides[i];
        const SimResult &banked = js[bankedIdx[i]];
        const SimResult &dual = js[dualIdx[i]];
        unsigned distinct = 8 / std::gcd(8u, s);
        table.addRow(
            {std::to_string(s), TextTable::fmt(flat.cycles),
             TextTable::fmt(banked.cycles),
             TextTable::fmt(speedup(banked, flat), 2),
             TextTable::fmt(banked.memBankConflicts),
             TextTable::fmt(banked.memConflictCycles),
             TextTable::fmt(uint64_t(distinct)),
             TextTable::fmt(dual.cycles),
             TextTable::fmt(speedup(banked, dual), 2)});
    }

    FigureResult out;
    out.sections.push_back({"", std::move(table)});
    out.footnote = "(8 banks, 1 port, 4-cycle bank busy; stride 8 "
                   "hits one bank and serializes at the bank busy "
                   "time, co-prime strides 3/7 match stride 1; the "
                   "x2 columns re-run the sweep with two shared "
                   "memory units)";
    return out;
}

// --------------------------------------------------------- memunits
// Multi-unit scaling study: hand-built dual-stream microprograms
// (the DSL's streaming loads cannot pin two streams to disjoint
// bank sets, so these traces control base alignment exactly) run
// against 1/2/4 memory units over 8 and 16 banks. "dual-load" is
// two independent strided loads on disjoint bank sets; "ld+st" is a
// load stream plus a store of the loaded value, the case a Split
// policy is built for.

FigureResult
figMemUnits(const SweepEngine &engine)
{
    const double scale = engine.traces().scale();
    const uint64_t iters = std::max<uint64_t>(
        1, static_cast<uint64_t>(96.0 * scale + 1.0));

    // Two loads per iteration, stride 16 bytes: stream A covers the
    // even banks of an 8-bank memory, stream B (base offset by one
    // word) the odd banks, so only unit count limits their overlap.
    auto makeDualLoad = [&] {
        Trace t("dual-load");
        Addr a = 0x100000, b = 0x200008;
        for (uint64_t k = 0; k < iters; ++k) {
            t.push(makeVLoad(vReg(0), aReg(0), a, 16, 64));
            t.push(makeVLoad(vReg(1), aReg(1), b, 16, 64));
            t.push(makeVArith(Opcode::VAdd, vReg(2), vReg(0),
                              vReg(1), 64));
            a += 64 * 16;
            b += 64 * 16;
        }
        return std::make_shared<const Trace>(std::move(t));
    };

    // A load stream feeding a store stream: with a Split policy the
    // two directions run on dedicated units.
    auto makeLoadStore = [&] {
        Trace t("ld+st");
        Addr a = 0x100000, c = 0x400000;
        for (uint64_t k = 0; k < iters; ++k) {
            t.push(makeVLoad(vReg(0), aReg(0), a, 8, 64));
            t.push(makeVStore(vReg(0), aReg(1), c, 8, 64));
            a += 64 * 8;
            c += 64 * 8;
        }
        return std::make_shared<const Trace>(std::move(t));
    };

    const unsigned bankCounts[] = {8, 16};
    struct Row
    {
        const char *program;
        unsigned banks;
        size_t x1, x2, x2s, x4;
    };
    JobSet js;
    std::vector<Row> rows;
    auto addProgram = [&](const char *name, auto make) {
        auto trace = make();
        for (unsigned banks : bankCounts) {
            Row r;
            r.program = name;
            r.banks = banks;
            auto add = [&](unsigned units, LsPolicy policy) {
                return js.add(oooTraceJob(
                    trace, makeMultiUnitOooConfig(banks, units, policy)));
            };
            r.x1 = add(1, LsPolicy::Shared);
            r.x2 = add(2, LsPolicy::Shared);
            r.x2s = add(2, LsPolicy::Split);
            r.x4 = add(4, LsPolicy::Shared);
            rows.push_back(r);
        }
    };
    addProgram("dual-load", makeDualLoad);
    addProgram("ld+st", makeLoadStore);
    js.run(engine);

    TextTable table({"Program", "banks", "x1 cyc", "x2", "x2 split",
                     "x4", "confl@x2"});
    for (const Row &r : rows) {
        const SimResult &base = js[r.x1];
        table.addRow({r.program, std::to_string(r.banks),
                      TextTable::fmt(base.cycles),
                      TextTable::fmt(speedup(base, js[r.x2]), 2),
                      TextTable::fmt(speedup(base, js[r.x2s]), 2),
                      TextTable::fmt(speedup(base, js[r.x4]), 2),
                      TextTable::fmt(js[r.x2].memBankConflicts)});
    }

    FigureResult out;
    out.sections.push_back({"", std::move(table)});
    out.footnote = "(speedup over the same memory with one unit; "
                   "dual-load's disjoint-bank streams overlap fully "
                   "at two shared units but not under a split "
                   "policy, which pays off only for ld+st)";
    return out;
}

// -------------------------------------------------------- memgather
// Gather index-pattern study: the same gather loop with its index
// vector declared as a bank-friendly permutation, as congruent
// mod 8 (every element on one of 8 banks), and as uniform random,
// against an 8-bank memory. The REF machine isolates the pattern:
// in-order issue leaves the banks idle while the index vector
// loads, so gather conflicts come from the index pattern alone.

FigureResult
figMemGather(const SweepEngine &engine)
{
    const double scale = engine.traces().scale();

    struct Pattern
    {
        const char *name;
        IndexPattern pat;
        uint32_t param;
    };
    const std::vector<Pattern> patterns = {
        {"permutation", IndexPattern::Permutation, 0},
        {"congruent-mod-8", IndexPattern::CongruentMod, 8},
        {"random", IndexPattern::Random, 0},
    };

    auto makeGatherTrace = [&](const Pattern &p) {
        Program prog(std::string("gather-") + p.name);
        int idx = prog.array(64 * 8);
        int tbl = prog.array(512 * 1024);
        Kernel *k = prog.newKernel("gather");
        // A short fixed index load: long enough to model fetching
        // the indices, short enough that its banks are long free
        // when the gather (which must wait for the full index
        // vector) issues.
        VVid iv = k->vloadFixed(idx, 0, 8);
        (void)k->vgather(tbl, iv, p.pat, p.param);
        prog.addLoop(k, 48, vlConstant(64));
        GenOptions opts;
        opts.scale = scale;
        return std::make_shared<const Trace>(prog.generate(opts));
    };

    struct Row
    {
        size_t refFlat, refB8, oooB8, refTlb;
    };
    JobSet js;
    std::vector<Row> idx(patterns.size());
    for (size_t i = 0; i < patterns.size(); ++i) {
        auto t = makeGatherTrace(patterns[i]);
        idx[i].refFlat = js.add(refTraceJob(t, makeRefConfig(50)));
        idx[i].refB8 = js.add(refTraceJob(t, makeBankedRefConfig(8, 50)));
        idx[i].oooB8 = js.add(oooTraceJob(t, makeBankedOooConfig(8, 50)));
        idx[i].refTlb = js.add(
            refTraceJob(t, makeTlbBankedRefConfig(8, 16, 4096, 50)));
    }
    js.run(engine);

    TextTable table({"Pattern", "REF flat", "REF b8", "dilation",
                     "idxConfl", "idxConfCyc", "OOO b8"});
    for (size_t i = 0; i < patterns.size(); ++i) {
        const SimResult &flat = js[idx[i].refFlat];
        const SimResult &b8 = js[idx[i].refB8];
        table.addRow(
            {patterns[i].name, TextTable::fmt(flat.cycles),
             TextTable::fmt(b8.cycles),
             TextTable::fmt(speedup(b8, flat), 2),
             TextTable::fmt(b8.memIndexedConflicts),
             TextTable::fmt(b8.memIndexedConflictCycles),
             TextTable::fmt(js[idx[i].oooB8].cycles)});
    }

    FigureResult out;
    out.sections.push_back({"", std::move(table)});

    // TLB interaction: the same three patterns against the same
    // 8-bank REF machine with a small TLB in front. Per-element
    // translation makes the index pattern decide the miss rate: the
    // permutation stays inside one page window, congruent-mod-8
    // spans a few pages, uniform-random indices thrash 16 entries.
    TextTable tlbTable({"Pattern", "REF b8 cyc", "+t16e4k cyc",
                        "dilation", "tlbMiss", "idxMiss",
                        "missCyc"});
    for (size_t i = 0; i < patterns.size(); ++i) {
        const SimResult &b8 = js[idx[i].refB8];
        const SimResult &tlb = js[idx[i].refTlb];
        tlbTable.addRow(
            {patterns[i].name, TextTable::fmt(b8.cycles),
             TextTable::fmt(tlb.cycles),
             TextTable::fmt(speedup(tlb, b8), 2),
             TextTable::fmt(tlb.tlbMisses),
             TextTable::fmt(tlb.tlbIndexedMisses),
             TextTable::fmt(tlb.tlbMissCycles)});
    }
    out.sections.push_back({"-- TLB interaction (16 entries, 4K "
                            "pages, hardware walk) --",
                            std::move(tlbTable)});

    out.footnote = "(8 banks, 4-cycle busy; a bank-friendly "
                   "permutation gathers conflict-free like stride 1, "
                   "congruent-mod-8 indices serialize on one bank "
                   "and dilate ~4x, random indices sit in between; "
                   "with a small TLB the random pattern's "
                   "per-element translation misses dominate while "
                   "the single-window permutation stays warm)";
    return out;
}

// ----------------------------------------------------------- memtlb
// Virtual-memory study: the OOOVA on the flat bus with a TLB in
// front, swept over TLB reach (entries x page size) across the ten
// benchmarks. Strided streams translate once per page crossed, so
// most programs barely feel an 8-entry TLB; nasa7's gather
// translates per element and thrashes it, and larger pages buy back
// reach without more entries. A second section compares the refill
// policies under late commit: hardware walks charged in the memory
// model vs software refills through the precise-trap path.

FigureResult
figMemTlb(const SweepEngine &engine)
{
    const Machine base = makeOooConfig(16, 16, 50);
    const Machine t8 = makeTlbOooConfig(8, 4096);
    const Machine hw = makeTlbOooConfig(8, 4096, 50, CommitMode::Late);
    const Machine sw = makeTlbOooConfig(8, 4096, 50, CommitMode::Late,
                                        TlbRefill::SoftwareTrap);
    return columnFigure(
        engine,
        {{"-- TLB reach (slowdown over no TLB, latency 50) --",
          {count("no-TLB cyc", base),
           {"t8e4k", base, t8, slowdown},
           {"t32e4k", base, makeTlbOooConfig(32, 4096), slowdown},
           {"t256e4k", base, makeTlbOooConfig(256, 4096), slowdown},
           {"t32e64k", base, makeTlbOooConfig(32, 64 * 1024), slowdown},
           count("miss@t8", t8, &SimResult::tlbMisses),
           count("idxMiss@t8", t8, &SimResult::tlbIndexedMisses),
           count("missCyc@t8", t8, &SimResult::tlbMissCycles)}},
         {"-- refill policy at t8e4k (late commit) --",
          {count("hw cyc", hw), count("sw cyc", sw),
           {"sw/hw", hw, sw, slowdown},
           count("traps@sw", sw, &SimResult::traps),
           count("miss@hw", hw, &SimResult::tlbMisses)}}},
        "(strided streams translate once per page "
        "crossed, so unit-stride programs stay warm even "
        "at 8 entries; nasa7's random gather translates "
        "per element and thrashes small TLBs; software "
        "refill pays a full squash-and-replay trap per "
        "missing stream)");
}

// ----------------------------------------------------------- memlat
// Latency x banks: figure 8's latency-tolerance experiment extended
// with the memory hierarchy as a second axis. OOOVA cycles for the
// flat bus and for 4/16-bank memories at latencies 1/50/100.

FigureResult
figMemLatBanks(const SweepEngine &engine)
{
    const unsigned lats[] = {1, 50, 100};
    std::vector<Column> cols;
    for (unsigned lat : lats)
        cols.push_back(count(csprintf("flat@%u", lat),
                             makeOooConfig(16, 16, lat)));
    for (unsigned banks : {4u, 16u})
        for (unsigned lat : lats)
            cols.push_back(count(csprintf("b%u@%u", banks, lat),
                                 makeBankedOooConfig(banks, lat)));
    cols.push_back({"b16 100/1", makeBankedOooConfig(16, 1),
                    makeBankedOooConfig(16, 100), slowdown});
    return columnFigure(engine, {{"", cols}},
                        "(the OOOVA's latency tolerance survives a "
                        "banked hierarchy: the 100/1 ratio stays near "
                        "the flat bus's figure-8 value even with 16 "
                        "banks)");
}

// --------------------------------------------------------- cpistack
// Top-down cycle accounting: every cycle of a run charged to exactly
// one bucket (the cpi-conservation checker enforces the sum). REF
// shows where the in-order machine stalls; the two OOOVA columns
// show how out-of-order issue converts those stalls into commit
// cycles, and how a tight rename pool (9 physical vector registers)
// brings rename/queue stalls back.

FigureResult
figCpiStack(const SweepEngine &engine)
{
    RefConfig ref = makeRefConfig(50);
    ref.cpiStack = true;
    OooConfig ooo16 = makeOooConfig(16, 16, 50);
    ooo16.cpiStack = true;
    OooConfig ooo9 = makeOooConfig(9, 16, 50);
    ooo9.cpiStack = true;
    std::vector<std::string> buckets;
    buckets.reserve(kNumCpiBuckets);
    for (unsigned b = 0; b < kNumCpiBuckets; ++b)
        buckets.push_back(cpiBucketName(static_cast<CpiBucket>(b)));
    return breakdownFigure(
        engine, "Bucket",
        {{"REF %", ref}, {"OOOVA-16r %", ooo16}, {"OOOVA-9r %", ooo9}},
        buckets,
        [](const SimResult &r, size_t b) { return r.cpiCycles[b]; },
        "(columns sum to 100% of each machine's cycles; "
        "the cpi-conservation checker enforces the sum "
        "exactly)");
}

// -------------------------------------------------------- occupancy
// Structure-occupancy telemetry: mean and p95 occupancy of every
// sampled machine structure, REF vs two OOOVA register pools, over
// a cached + TLB memory hierarchy so the mshrs and tlb-pages rows
// are non-trivial. Sampling is observe-only — the
// occupancy-conservation checker pins every non-empty
// distribution's weight to the run's cycle count — so this figure
// is the telemetry layer's golden gate. REF models no ROB, issue
// queues or renaming, so those rows render "-" in its columns.

FigureResult
figOccupancy(const SweepEngine &engine)
{
    const auto &names = engine.traces().names();

    auto cachedTlbMem = [](MemConfig &m) {
        m.model = MemModel::Cached;
        m.tlb = makeTlb(64);
    };
    RefConfig refCfg = makeRefConfig(50);
    refCfg.telemetry = true;
    cachedTlbMem(refCfg.mem);
    OooConfig ooo16 = makeOooConfig(16, 16, 50);
    ooo16.telemetry = true;
    cachedTlbMem(ooo16.mem);
    OooConfig ooo64 = makeOooConfig(64, 16, 50);
    ooo64.telemetry = true;
    cachedTlbMem(ooo64.mem);

    const Machine machines[] = {refCfg, ooo16, ooo64};
    JobSet js;
    std::vector<std::array<size_t, 3>> idx(names.size());
    for (size_t p = 0; p < names.size(); ++p)
        for (size_t m = 0; m < 3; ++m)
            idx[p][m] = js.add(machines[m].on(names[p]));
    js.run(engine);

    FigureResult out;
    for (size_t p = 0; p < names.size(); ++p) {
        TextTable table({"Structure", "REF mean", "REF p95",
                         "O-16r mean", "O-16r p95", "O-64r mean",
                         "O-64r p95"});
        for (size_t s = 0; s < kNumOccStructs; ++s) {
            std::vector<std::string> row = {
                occStructName(static_cast<OccStruct>(s))};
            for (size_t m = 0; m < 3; ++m) {
                const StatDistribution &d =
                    js[idx[p][m]].occupancy[s];
                if (d.samples == 0) {
                    row.push_back("-");
                    row.push_back("-");
                } else {
                    row.push_back(TextTable::fmt(d.mean(), 2));
                    row.push_back(TextTable::fmt(d.p95()));
                }
            }
            table.addRow(row);
        }
        out.sections.push_back(
            {"--- " + names[p] + " ---", std::move(table)});
    }
    out.footnote =
        "(per-cycle occupancy over the whole run; \"-\" marks "
        "structures a machine does not model. The "
        "occupancy-conservation checker pins every distribution's "
        "sample weight to the cycle count.)";
    return out;
}

} // namespace

const std::vector<FigureDef> &
figureRegistry()
{
    static const std::vector<FigureDef> registry = {
        {"tab1", "Table 1: functional unit latencies (cycles)",
         tab1Machine},
        {"tab2", "Table 2: basic operation counts", tab2Programs},
        {"tab3", "Table 3: vector memory spill operations",
         tab3Spills},
        {"fig3", "Figure 3: REF execution-state breakdown",
         fig3RefStates},
        {"fig4", "Figure 4: REF memory-port idle cycles",
         fig4PortIdle},
        {"fig5", "Figure 5: OOOVA speedup vs physical vector registers",
         fig5Speedup},
        {"fig6", "Figure 6: memory-port idle, REF vs OOOVA",
         fig6PortIdleOoo},
        {"fig7", "Figure 7: execution-state breakdown, REF vs OOOVA",
         fig7StatesOoo},
        {"fig8", "Figure 8: tolerance of main-memory latency",
         fig8Latency},
        {"fig9", "Figure 9: early vs late commit (precise traps)",
         fig9Commit},
        {"fig11", "Figure 11: SLE speedup over late-commit OOOVA",
         fig11Sle},
        {"fig12", "Figure 12: SLE+VLE speedup over late-commit OOOVA",
         fig12SleVle},
        {"fig13", "Figure 13: traffic reduction at 32 registers",
         fig13Traffic},
        {"abl", "Ablations: chaining, queue depth, ports, commit width",
         ablAblations},
        {"membank", "Memory: OOOVA speedup vs bank count", figMemBanks},
        {"memstride", "Memory: stride vs bank conflicts (8 banks)",
         figMemStride},
        {"memunits", "Memory: load/store unit scaling (units x banks)",
         figMemUnits},
        {"memgather", "Memory: gather/scatter index patterns (8 banks)",
         figMemGather},
        {"memtlb",
         "Memory: TLB reach and refill policy (entries x page size)",
         figMemTlb},
        {"memlat", "Memory: latency tolerance x bank count",
         figMemLatBanks},
        {"cpistack", "CPI stack: top-down cycle accounting, REF vs OOOVA",
         figCpiStack},
        {"occupancy",
         "Occupancy: structure-occupancy telemetry, REF vs OOOVA",
         figOccupancy},
    };
    return registry;
}

} // namespace oova
