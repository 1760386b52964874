/**
 * @file
 * Test helpers that read busy intervals the one way the simulators
 * do: by folding them into a UnitStateBreakdown. Folding drains the
 * recorders, so each helper reads a recorder once.
 */

#ifndef OOVA_TESTS_BUSY_FOLD_HH
#define OOVA_TESTS_BUSY_FOLD_HH

#include "common/stats.hh"

namespace oova
{

/** The 8-state breakdown of [0, @p total), in one fold. */
inline UnitStateBreakdown::States
foldedStates(IntervalRecorder &fu2, IntervalRecorder &fu1,
             IntervalRecorder &mem, Cycle total)
{
    UnitStateBreakdown b;
    b.fold(fu2, fu1, mem, total);
    return b.states();
}

/** Busy cycles of @p rec with overlaps merged, over its whole span. */
inline uint64_t
foldedBusyCycles(IntervalRecorder &rec)
{
    IntervalRecorder idle;
    UnitStateBreakdown b;
    b.fold(idle, idle, rec, rec.lastEnd());
    return b.busyCycles(UnitStateBreakdown::Mem);
}

} // namespace oova

#endif // OOVA_TESTS_BUSY_FOLD_HH
