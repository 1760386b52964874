/**
 * @file
 * Regression coverage for the SLE+VLE Dep-stage re-rename: the Dep
 * stage renames a vector destination before the V-queue-full check,
 * so a stalled entry retries the rename on a later cycle. The retry
 * must drop the previous attempt's robDstRefs subscription (the
 * wakeup-dst-refs checker guards this), and it permanently orphans
 * the claim the first rename parked in the entry's oldPhys — an
 * accepted leak the audit tracks in a dedicated ledger so refCount
 * conservation stays checkable.
 *
 * These tests pin the path down: a config that forces rename retries
 * runs under the full invariant audit and must stay violation-free,
 * with results byte-equal to an unaudited run (checkers are
 * observe-only).
 */

#include <gtest/gtest.h>

#include "check/check.hh"
#include "core/ooosim.hh"
#include "tgen/benchmarks.hh"

using namespace oova;

namespace
{

/**
 * SLE+VLE with a tiny V queue and slow memory: the dependent vadds
 * pile up behind the load, fill the 2-entry V queue, and the next
 * vadd stalls in the Dep stage *after* renaming its destination —
 * retrying (and re-renaming) every cycle until a slot frees.
 */
OooConfig
rerenameCfg()
{
    OooConfig c;
    c.loadElim = LoadElimMode::SleVle;
    c.commit = CommitMode::Late;
    c.queueSize = 2;
    c.numPhysVRegs = 32;
    c.lat.memLatency = 200;
    return c;
}

Trace
rerenameTrace()
{
    Trace t("rerename");
    for (int rep = 0; rep < 4; ++rep) {
        Addr base = 0x10000 + static_cast<Addr>(rep) * 0x10000;
        t.push(makeVLoad(vReg(0), aReg(0), base, 8, 64));
        // Six dependent ops on distinct destinations: more in-flight
        // V writers than V-queue slots, so the tail of each burst
        // stalls in Dep after renaming.
        for (uint8_t i = 1; i <= 6; ++i) {
            t.push(makeVArith(Opcode::VAdd, vReg(i), vReg(0),
                              vReg(0), 64));
        }
    }
    return t;
}

} // namespace

TEST(ReRename, StallPathIsExercised)
{
    // The scenario only regression-tests the re-rename if the Dep
    // stage actually stalls on a full V queue.
    SimResult r = simulateOoo(rerenameTrace(), rerenameCfg(), {}, 0);
    EXPECT_GT(r.queueStallCycles, 0u);
}

TEST(ReRename, FullAuditIsViolationFree)
{
    check::resetProcessViolations();
    SimResult r = simulateOoo(rerenameTrace(), rerenameCfg(), {}, 2);
    EXPECT_GT(r.queueStallCycles, 0u);
    // Every checker family runs (wakeup-dst-refs, the conservation
    // checker with the orphaned-claims ledger, the calendar bound,
    // ...) and none may fire: the subscription drop on retry and the
    // ledger entry for the orphaned claim must exactly cancel out.
    EXPECT_EQ(check::processViolationCount(), 0u);
    check::resetProcessViolations();
}

TEST(ReRename, AuditIsObserveOnly)
{
    check::resetProcessViolations();
    SimResult off = simulateOoo(rerenameTrace(), rerenameCfg(), {}, 0);
    SimResult on = simulateOoo(rerenameTrace(), rerenameCfg(), {}, 2);
    EXPECT_EQ(check::processViolationCount(), 0u);
    EXPECT_EQ(off.cycles, on.cycles);
    EXPECT_EQ(off.instructions, on.instructions);
    EXPECT_EQ(off.machine, on.machine);
    EXPECT_EQ(off.memBusyCycles, on.memBusyCycles);
    EXPECT_EQ(off.memRequests, on.memRequests);
    EXPECT_EQ(off.vectorLoadsEliminated, on.vectorLoadsEliminated);
    EXPECT_EQ(off.scalarLoadsEliminated, on.scalarLoadsEliminated);
    EXPECT_EQ(off.renameStallCycles, on.renameStallCycles);
    EXPECT_EQ(off.robStallCycles, on.robStallCycles);
    EXPECT_EQ(off.queueStallCycles, on.queueStallCycles);
    EXPECT_EQ(off.stateCycles, on.stateCycles);
    check::resetProcessViolations();
}

TEST(ReRename, AuditStaysCleanAcrossBenchmarks)
{
    // The full audit over real benchmark traces in the exact
    // configuration family (SLE+VLE, late commit) where the
    // re-rename occurs.
    check::resetProcessViolations();
    GenOptions small;
    small.scale = 0.05;
    for (const char *name : {"swm256", "tomcatv"}) {
        Trace t = makeBenchmarkTrace(name, small);
        OooConfig c = rerenameCfg();
        c.queueSize = 4;
        SimResult r = simulateOoo(t, c, {}, 2);
        EXPECT_GT(r.cycles, 0u) << name;
    }
    EXPECT_EQ(check::processViolationCount(), 0u);
    check::resetProcessViolations();
}
