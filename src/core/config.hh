/**
 * @file
 * OOOVA machine configuration (paper section 2.2, Machine
 * Parameters), with the knobs the evaluation sweeps: physical vector
 * register count (figure 5), queue depth (OOOVA-16 vs OOOVA-128),
 * memory latency (figure 8), commit model (figure 9) and dynamic
 * load elimination mode (figures 11-13).
 */

#ifndef OOVA_CORE_CONFIG_HH
#define OOVA_CORE_CONFIG_HH

#include <string>

#include "isa/latency.hh"
#include "mem/memsystem.hh"

namespace oova
{

/** When may an instruction's ROB entry commit? */
enum class CommitMode
{
    /**
     * Paper's aggressive scheme: committable once the instruction
     * begins execution. Not precise.
     */
    Early,
    /**
     * Precise-trap scheme of section 5: committable only when fully
     * complete, and stores execute only at the head of the ROB.
     */
    Late,
};

/** Dynamic load elimination mode (section 6). */
enum class LoadElimMode
{
    None,
    Sle,    ///< scalar load elimination only
    SleVle, ///< scalar + vector load elimination
};

/** Full OOOVA configuration. */
struct OooConfig
{
    LatencyTable lat = LatencyTable::oooDefaults();

    unsigned numPhysVRegs = 16; ///< swept 9..64 in figure 5
    unsigned numPhysARegs = 64;
    unsigned numPhysSRegs = 64;
    unsigned numPhysMRegs = 8;

    unsigned queueSize = 16; ///< all four instruction queues
    unsigned robSize = 64;
    unsigned commitWidth = 4;
    unsigned fetchBufferSize = 8;
    unsigned btbEntries = 64;
    unsigned rasDepth = 8;

    CommitMode commit = CommitMode::Early;
    LoadElimMode loadElim = LoadElimMode::None;

    /**
     * Chain memory loads into functional units. The OOOVA inherits
     * the C3400 datapath, which does not support load chaining
     * (section 2.1); out-of-order issue is what hides the latency
     * instead. On for the ablation study `oova_bench abl`.
     */
    bool chainLoadsToFus = false;

    /** Cycles charged for trap entry on a faulting instruction. */
    unsigned trapPenalty = 50;

    /**
     * Cycle accounting (CPI stack): charge every cycle of the run to
     * one CpiBucket, surfaced as SimResult::cpiCycles. Observe-only:
     * it never changes simulated timing, figure output, or the
     * machine name. Off by default so the hot path pays nothing.
     */
    bool cpiStack = false;

    /**
     * Occupancy telemetry: sample ROB / queue / free-register /
     * MSHR / TLB occupancy at every event-calendar advance into
     * SimResult::occupancy (+Ts), charged in bulk across idle jumps
     * like the CPI stack. Observe-only like cpiStack — never changes
     * simulated timing, figure output, or the machine name — and off
     * by default so the hot path pays nothing. OOVA_TELEMETRY=1 in
     * the environment forces it on (the goldens-byte-identical CI
     * proof), exactly as OOVA_CHECK overrides the audit level.
     */
    bool telemetry = false;

    /**
     * The memory hierarchy behind the address path. The default
     * FlatBus reproduces the paper's single-bus fixed-latency model
     * exactly; see mem/memsystem.hh for the banked and cached
     * models. lat.memLatency feeds whichever model is selected.
     */
    MemConfig mem;

    /** The field table, as LatencyTable::visitFields(). */
    template <typename Self, typename F>
    static constexpr void
    visitFields(Self &c, F &&f)
    {
        f("lat", c.lat);
        f("numPhysVRegs", c.numPhysVRegs);
        f("numPhysARegs", c.numPhysARegs);
        f("numPhysSRegs", c.numPhysSRegs);
        f("numPhysMRegs", c.numPhysMRegs);
        f("queueSize", c.queueSize);
        f("robSize", c.robSize);
        f("commitWidth", c.commitWidth);
        f("fetchBufferSize", c.fetchBufferSize);
        f("btbEntries", c.btbEntries);
        f("rasDepth", c.rasDepth);
        f("commit", c.commit);
        f("loadElim", c.loadElim);
        f("chainLoadsToFus", c.chainLoadsToFus);
        f("trapPenalty", c.trapPenalty);
        f("cpiStack", c.cpiStack);
        f("telemetry", c.telemetry);
        f("mem", c.mem);
    }

    /** Short label, e.g. "OOOVA-16/16r/early" or ".../mb8p1". */
    std::string name() const;
};

} // namespace oova

#endif // OOVA_CORE_CONFIG_HH
