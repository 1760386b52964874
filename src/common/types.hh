/**
 * @file
 * Fundamental scalar types shared by every module of the simulator.
 */

#ifndef OOVA_COMMON_TYPES_HH
#define OOVA_COMMON_TYPES_HH

#include <cstdint>
#include <limits>

/**
 * Label lists. An enum whose values carry stable text labels is
 * declared by one X-macro list of X(Enumerator, "label") entries;
 * these two expanders turn that list into the enumerators and into
 * the label array, so the two can never drift apart.
 */
#define OOVA_ENUMERATOR(name, label) name,
#define OOVA_LABEL(name, label) label,

namespace oova
{

/** Simulated clock cycle. Cycle 0 is the first cycle of execution. */
using Cycle = uint64_t;

/** Byte address in the simulated (flat, 64-bit) address space. */
using Addr = uint64_t;

/** Dynamic instruction sequence number (position in the trace). */
using SeqNum = uint64_t;

/** Sentinel for "no cycle": later than any real cycle. */
constexpr Cycle kNoCycle = std::numeric_limits<Cycle>::max();

/** Sentinel for an invalid sequence number. */
constexpr SeqNum kNoSeq = std::numeric_limits<SeqNum>::max();

/**
 * Shape of a gather/scatter index vector. The trace generator knows
 * how it built each index vector; recording the shape (instead of
 * vl full index values) lets the simulators reconstruct the exact
 * per-element addresses deterministically and hand them to the
 * memory system, so bank conflicts follow the real access pattern.
 * See indexedElemAddrs() in isa/instruction.hh.
 */
enum class IndexPattern : uint8_t
{
    /** Unknown: fall back to a contiguous word walk of the region. */
    None,
    /**
     * A permutation of a contiguous element window — every word of
     * the window touched exactly once, in a shuffled but
     * bank-friendly order (e.g. a shuffled table sweep).
     */
    Permutation,
    /**
     * All indices congruent modulo the pattern parameter m; with m
     * equal to the bank count every element lands on one bank.
     */
    CongruentMod,
    /** Uniform pseudo-random indices over the whole region. */
    Random,
};

} // namespace oova

#endif // OOVA_COMMON_TYPES_HH
