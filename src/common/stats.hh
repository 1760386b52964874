/**
 * @file
 * Statistics primitives used by the simulators and the experiment
 * harness: busy-interval recording, the 8-way functional-unit state
 * breakdown of the paper's figures 3 and 7 folded from it as time
 * passes, a small histogram and the occupancy-telemetry sinks.
 */

#ifndef OOVA_COMMON_STATS_HH
#define OOVA_COMMON_STATS_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace oova
{

/**
 * Records half-open busy intervals [start, end) for one hardware
 * unit until a UnitStateBreakdown folds them into its running
 * totals. Intervals may be added out of order and may overlap, but
 * none may start before the fold frontier: the time behind it has
 * already been counted.
 */
class IntervalRecorder
{
  public:
    /**
     * Record that the unit was busy during [start, end). Inline:
     * every simulated issue records an interval, so this must be a
     * bounds check and a push_back.
     */
    void
    add(Cycle start, Cycle end)
    {
        sim_assert(end >= start, "interval end before start");
        if (end == start)
            return; // zero-length: nothing was occupied
#ifndef NDEBUG
        sim_assert(start >= frontier_,
                   "interval [%llu, %llu) starts before the fold "
                   "frontier %llu",
                   (unsigned long long)start, (unsigned long long)end,
                   (unsigned long long)frontier_);
#endif
        if (start < lastEnd_)
            sortedDisjoint_ = false;
        intervals_.emplace_back(start, end);
        lastEnd_ = std::max(lastEnd_, end);
    }

    /** Latest end cycle over all intervals (0 if none). */
    Cycle lastEnd() const { return lastEnd_; }

    /**
     * Intervals not yet folded, in insertion order (a straddler of
     * the last fold starts at the frontier).
     */
    const std::vector<std::pair<Cycle, Cycle>> &
    intervals() const
    {
        return intervals_;
    }

    /** Number of intervals not yet folded. */
    size_t count() const { return intervals_.size(); }

    /**
     * True while the held intervals are non-overlapping and in
     * nondecreasing order — the natural product of a serially-reused
     * unit — so a fold merges them with a cursor instead of sorting.
     */
    bool sortedDisjoint() const { return sortedDisjoint_; }

    void clear();

  private:
    friend class UnitStateBreakdown;

    /**
     * Forget the busy time before @p t, which a fold has counted:
     * intervals ending at or before @p t go, a straddler is clipped
     * to start at @p t, and @p t becomes the frontier.
     */
    void retireBefore(Cycle t);

    std::vector<std::pair<Cycle, Cycle>> intervals_;
    Cycle lastEnd_ = 0;
    Cycle frontier_ = 0;
    bool sortedDisjoint_ = true;
};

/** Linear-bucket histogram with running sum/min/max. */
class Histogram
{
  public:
    /**
     * @param bucket_width width of each bucket (>= 1)
     * @param num_buckets bucket count; values past the last bucket
     *        land in the overflow bucket
     */
    Histogram(uint64_t bucket_width, size_t num_buckets);

    void sample(uint64_t value);

    uint64_t count() const { return count_; }
    uint64_t sum() const { return sum_; }
    uint64_t min() const { return count_ ? min_ : 0; }
    uint64_t max() const { return max_; }
    double mean() const;

    /** Bucket counts; the final entry is the overflow bucket. */
    const std::vector<uint64_t> &buckets() const { return buckets_; }
    uint64_t bucketWidth() const { return bucketWidth_; }

  private:
    uint64_t bucketWidth_;
    std::vector<uint64_t> buckets_;
    uint64_t count_ = 0;
    uint64_t sum_ = 0;
    uint64_t min_ = UINT64_MAX;
    uint64_t max_ = 0;
};

// ------------------------------------------------ occupancy telemetry

/**
 * Machine structures sampled by the occupancy telemetry layer
 * (cfg.telemetry / OOVA_TELEMETRY=1). One StatDistribution and one
 * StatTimeSeries per entry ride in SimResult. One X(Enumerator,
 * "label") list generates OccStruct and occStructName(), the stable
 * label used by SimResult::toJson(), the --stats dump, and the
 * README table (lint-enforced both directions).
 */
#define OOVA_OCC_STRUCTS(X)                                                   \
    X(Rob, "rob")              /* reorder-buffer entries in flight */         \
    X(AQueue, "aqueue")        /* address-unit instruction queue depth */     \
    X(SQueue, "squeue")        /* scalar-unit instruction queue depth */      \
    X(VQueue, "vqueue")        /* vector-unit instruction queue depth */      \
    X(FreeVRegs, "free-vregs") /* free physical vector registers */           \
    X(Mshrs, "mshrs")          /* in-flight cache miss-status registers */    \
    X(MemUnits, "mem-units")   /* concurrently busy memory units */           \
    X(TlbPages, "tlb-pages")   /* valid (resident) TLB entries, both levels */

enum class OccStruct : uint8_t
{
    OOVA_OCC_STRUCTS(OOVA_ENUMERATOR) NumStructs,
};

constexpr size_t kNumOccStructs =
    static_cast<size_t>(OccStruct::NumStructs);

/** Stable lowercase label for @p s, e.g. "rob", "free-vregs". */
const char *occStructName(OccStruct s);

/**
 * Running distribution over exact integers: count/sum/sum-of-squares
 * plus min/max and a fixed 16-bucket linear histogram (last bucket
 * catches overflow). Plain aggregate so SimResult::toJson() can
 * round-trip it bit-exactly; sample() is inline and allocation-free
 * because the simulators call it on every event-calendar advance.
 * @p n is a bulk weight: an idle jump of k cycles charges its
 * structure occupancies once with n = k, exactly like the CPI stack.
 */
struct StatDistribution
{
    static constexpr size_t kNumBuckets = 16;

    uint64_t width = 1; ///< histogram bucket width (>= 1)
    uint64_t samples = 0;
    uint64_t sum = 0;
    uint64_t sumSquares = 0;
    uint64_t minValue = 0;
    uint64_t maxValue = 0;
    std::array<uint64_t, kNumBuckets> buckets{};

    /**
     * Size the histogram so [0, capacity] spans the 16 buckets: a
     * full structure lands in the last bucket, not in overflow.
     */
    void
    setCapacity(uint64_t capacity)
    {
        width = std::max<uint64_t>((capacity + kNumBuckets) /
                                       kNumBuckets,
                                   1);
    }

    void
    sample(uint64_t value, uint64_t n = 1)
    {
        if (n == 0)
            return; // zero-length calendar jump: no cycles to charge
        minValue = samples ? std::min(minValue, value) : value;
        maxValue = std::max(maxValue, value);
        samples += n;
        sum += value * n;
        sumSquares += value * value * n;
        buckets[std::min<uint64_t>(value / width,
                                   kNumBuckets - 1)] += n;
    }

    double mean() const;
    /** Population standard deviation. */
    double stddev() const;
    /**
     * 95th-percentile upper bound read off the histogram: the
     * inclusive upper edge of the bucket holding the 95th-percentile
     * sample, clamped to the observed max.
     */
    uint64_t p95() const;

    bool operator==(const StatDistribution &) const = default;
};

/**
 * Bounded-memory time series: the sample stream is folded into at
 * most 32 fixed-length epochs of value-sums. When the run outgrows
 * the window, adjacent epochs pairwise-merge and the epoch length
 * doubles — O(1) amortized, exact sums, and the final shape is
 * independent of how the samples were batched. Epoch means
 * reconstruct as sums[e] / epochLen (the last epoch may be partial;
 * epochCycles() gives its true denominator).
 */
struct StatTimeSeries
{
    static constexpr size_t kMaxEpochs = 32;

    uint64_t epochLen = 1; ///< cycles per epoch (power of two)
    uint64_t total = 0;    ///< total weight sampled (== cycles)
    std::array<uint64_t, kMaxEpochs> sums{};

    void sample(uint64_t value, uint64_t n = 1);

    /** Number of epochs holding data. */
    size_t
    epochsUsed() const
    {
        return static_cast<size_t>((total + epochLen - 1) / epochLen);
    }

    /** Weight actually accumulated into epoch @p e. */
    uint64_t epochCycles(size_t e) const;
    /** Mean sampled value over epoch @p e. */
    double epochMean(size_t e) const;

    bool operator==(const StatTimeSeries &) const = default;
};

/**
 * Per-cycle machine-state breakdown over the three vector units,
 * reproducing the 3-tuple states (FU2, FU1, MEM) of the paper's
 * figures 3 and 7. State index bit assignment: bit 2 = FU2 busy,
 * bit 1 = FU1 busy, bit 0 = MEM busy; e.g. state 0 is
 * ( , , ) -- all idle -- and state 7 is (FU2, FU1, MEM).
 *
 * The totals grow as simulated time passes: fold(..., t) sweeps the
 * three busy recorders from the frontier (the previous fold's t,
 * initially 0) up to t into the state counts, each unit's busy
 * cycles (overlaps merged) and, when enabled, the memory unit's
 * concurrency depth. It then drops what it has counted from the
 * recorders, so they keep only the intervals that can still change a
 * result. A simulator folds whenever its
 * recorders hold more than kFoldBacklog intervals, and once more to
 * its end cycle. Cycles no interval covers count as all-idle; busy
 * time at or after the last fold's cycle is never counted.
 */
class UnitStateBreakdown
{
  public:
    static constexpr int kNumStates = 8;
    using States = std::array<uint64_t, kNumStates>;

    /** Unit index == its state bit. */
    enum Unit : uint8_t
    {
        Mem = 0,
        Fu1 = 1,
        Fu2 = 2,
    };

    /**
     * Intervals the three recorders may hold between folds: the
     * bound on a simulator's busy-interval memory.
     */
    static constexpr size_t kFoldBacklog = 4096;

    /**
     * Also sample the memory recorder's concurrency depth (how many
     * of its intervals cover each cycle: the MemUnits occupancy
     * structure), histogram sized for @p mem_units. Call before the
     * first fold.
     */
    void sampleMemDepth(unsigned mem_units);

    /**
     * Account every cycle from the frontier up to @p to, then drop
     * those cycles from the recorders and make @p to the frontier. Every later add() to them must start at or
     * after @p to.
     */
    void fold(IntervalRecorder &fu2, IntervalRecorder &fu1,
              IntervalRecorder &mem, Cycle to);

    /** fold() when the recorders hold more than kFoldBacklog. */
    void
    foldIfBacklogged(IntervalRecorder &fu2, IntervalRecorder &fu1,
                     IntervalRecorder &mem, Cycle to)
    {
        if (fu2.count() + fu1.count() + mem.count() > kFoldBacklog)
            fold(fu2, fu1, mem, to);
    }

    /** Cycles spent in each of the 8 states before the frontier. */
    const States &states() const { return states_; }

    /** Busy cycles of @p u before the frontier, overlaps merged. */
    uint64_t busyCycles(Unit u) const { return busy_[u]; }

    /** The sampled memory depth (empty unless sampleMemDepth()). */
    const StatDistribution &memDepth() const { return depth_; }
    const StatTimeSeries &memDepthSeries() const { return depthTs_; }

    /** Human-readable state label, e.g. "<FU2,FU1,MEM>". */
    static std::string stateName(int state);

  private:
    /** [start, end) covered by @c depth >= 1 intervals. */
    struct Segment
    {
        Cycle start;
        Cycle end;
        uint64_t depth;
    };

    void windowSegments(const IntervalRecorder &rec, Cycle to,
                        std::vector<Segment> &out);

    Cycle frontier_ = 0;
    States states_{};
    std::array<uint64_t, 3> busy_{};
    bool sampleDepth_ = false;
    StatDistribution depth_;
    StatTimeSeries depthTs_;
    /** Per-unit fold scratch, kept to reuse its storage. */
    std::array<std::vector<Segment>, 3> segments_;
    std::vector<std::pair<Cycle, int>> events_;
};

/**
 * True when OOVA_TELEMETRY=1 (or any nonzero value) is in the
 * environment: forces occupancy sampling on regardless of
 * cfg.telemetry, exactly like OOVA_CHECK sets the audit level. Used
 * by CI to prove every golden byte-identical with sampling enabled.
 */
bool telemetryForced();

} // namespace oova

#endif // OOVA_COMMON_STATS_HH
