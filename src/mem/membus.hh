/**
 * @file
 * The memory-system model of the paper (section 2.2): one address
 * bus shared by all memory transactions (scalar and vector, load and
 * store), physically separate data busses, a fixed main-memory
 * latency, and one element transferred per cycle once a stream
 * starts. The single address bus is the contended resource; its
 * occupancy is the "memory port" of figures 4 and 6.
 */

#ifndef OOVA_MEM_MEMBUS_HH
#define OOVA_MEM_MEMBUS_HH

#include "common/stats.hh"
#include "common/types.hh"

namespace oova
{

/**
 * Exclusive, serializing address bus. A memory operation reserves
 * the bus for one cycle per element; the reservation begins no
 * earlier than requested and no earlier than the previous
 * reservation ends.
 */
class AddressBus
{
  public:
    /**
     * Reserve @p elems consecutive address slots.
     * @param earliest do not start before this cycle
     * @return the cycle the first address is driven
     *
     * A zero-element reservation is a no-op returning @p earliest:
     * nothing is driven, so no stats advance and the bus stays free.
     */
    Cycle
    reserve(Cycle earliest, unsigned elems)
    {
        if (elems == 0)
            return earliest;
        Cycle start = earliest > freeAt_ ? earliest : freeAt_;
        freeAt_ = start + elems;
        requests_ += elems;
        busy_.add(start, freeAt_);
        return start;
    }

    /** First cycle the bus is free again. */
    Cycle freeAt() const { return freeAt_; }

    /** Total element requests driven so far. */
    uint64_t requests() const { return requests_; }

    /** Busy intervals (the MEM component of the state breakdown). */
    IntervalRecorder &busy() { return busy_; }

  private:
    Cycle freeAt_ = 0;
    uint64_t requests_ = 0;
    IntervalRecorder busy_;
};

} // namespace oova

#endif // OOVA_MEM_MEMBUS_HH
