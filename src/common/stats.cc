#include "common/stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"

namespace oova
{

void
IntervalRecorder::clear()
{
    intervals_.clear();
    lastEnd_ = 0;
    frontier_ = 0;
    sortedDisjoint_ = true;
}

void
IntervalRecorder::retireBefore(Cycle t)
{
    size_t kept = 0;
    Cycle maxEnd = 0;
    sortedDisjoint_ = true;
    for (auto [s, e] : intervals_) {
        if (e <= t)
            continue;
        s = std::max(s, t);
        if (s < maxEnd)
            sortedDisjoint_ = false;
        maxEnd = std::max(maxEnd, e);
        intervals_[kept++] = {s, e};
    }
    intervals_.resize(kept);
    frontier_ = t;
}

void
UnitStateBreakdown::sampleMemDepth(unsigned mem_units)
{
    sim_assert(frontier_ == 0, "depth sampling enabled mid-run");
    sampleDepth_ = true;
    depth_.setCapacity(std::max(mem_units, 1u));
}

/**
 * The busy segments of @p rec inside [frontier_, to), in order. A
 * sorted-disjoint recorder's intervals are its segments (depth 1);
 * overlapping ones (several memory units) sort the window's begin/end
 * events and sweep their depth.
 */
void
UnitStateBreakdown::windowSegments(const IntervalRecorder &rec,
                                   Cycle to, std::vector<Segment> &out)
{
    out.clear();
    if (rec.sortedDisjoint()) {
        for (const auto &[s, e] : rec.intervals()) {
            if (s >= to)
                break;
            out.push_back({s, std::min(e, to), 1});
        }
        return;
    }
    events_.clear();
    for (const auto &[s, e] : rec.intervals()) {
        if (s >= to)
            continue;
        events_.emplace_back(s, +1);
        events_.emplace_back(std::min(e, to), -1);
    }
    std::sort(events_.begin(), events_.end());
    int64_t depth = 0;
    for (size_t i = 0; i < events_.size();) {
        Cycle now = events_[i].first;
        for (; i < events_.size() && events_[i].first == now; ++i)
            depth += events_[i].second;
        // An open segment always has its end event still ahead.
        if (depth > 0) {
            out.push_back({now, events_[i].first,
                           static_cast<uint64_t>(depth)});
        }
    }
}

void
UnitStateBreakdown::fold(IntervalRecorder &fu2, IntervalRecorder &fu1,
                         IntervalRecorder &mem, Cycle to)
{
    sim_assert(to >= frontier_, "fold to %llu behind frontier %llu",
               (unsigned long long)to, (unsigned long long)frontier_);
    // Indexed by state bit.
    IntervalRecorder *recs[3] = {&mem, &fu1, &fu2};
    for (int u = 0; u < 3; ++u)
        windowSegments(*recs[u], to, segments_[u]);

    // Merge the three segment lists with cursors: between two
    // consecutive boundaries every unit's busy bit is constant.
    size_t idx[3] = {0, 0, 0};
    for (Cycle t = frontier_; t < to;) {
        unsigned state = 0;
        uint64_t depth = 0;
        Cycle next = to;
        for (int u = 0; u < 3; ++u) {
            if (idx[u] == segments_[u].size())
                continue;
            const Segment &seg = segments_[u][idx[u]];
            if (seg.start <= t) {
                state |= 1u << u;
                next = std::min(next, seg.end);
                if (u == Mem)
                    depth = seg.depth;
            } else {
                next = std::min(next, seg.start);
            }
        }
        uint64_t len = next - t;
        states_[state] += len;
        for (int u = 0; u < 3; ++u) {
            if (state & (1u << u))
                busy_[static_cast<size_t>(u)] += len;
            if (idx[u] < segments_[u].size() &&
                segments_[u][idx[u]].end == next) {
                ++idx[u];
            }
        }
        if (sampleDepth_) {
            depth_.sample(depth, len);
            depthTs_.sample(depth, len);
        }
        t = next;
    }

    for (IntervalRecorder *rec : recs)
        rec->retireBefore(to);
    frontier_ = to;
}

std::string
UnitStateBreakdown::stateName(int state)
{
    sim_assert(state >= 0 && state < kNumStates, "state %d", state);
    std::string s = "<";
    s += (state & 4) ? "FU2," : "   ,";
    s += (state & 2) ? "FU1," : "   ,";
    s += (state & 1) ? "MEM" : "   ";
    s += ">";
    return s;
}

Histogram::Histogram(uint64_t bucket_width, size_t num_buckets)
    : bucketWidth_(bucket_width), buckets_(num_buckets + 1, 0)
{
    sim_assert(bucket_width >= 1, "bucket width must be >= 1");
    sim_assert(num_buckets >= 1, "need at least one bucket");
}

void
Histogram::sample(uint64_t value)
{
    size_t idx = static_cast<size_t>(value / bucketWidth_);
    if (idx >= buckets_.size() - 1)
        idx = buckets_.size() - 1; // overflow bucket
    ++buckets_[idx];
    ++count_;
    sum_ += value;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
}

double
Histogram::mean() const
{
    return count_ ? static_cast<double>(sum_) / count_ : 0.0;
}

// ------------------------------------------------ occupancy telemetry

const char *
occStructName(OccStruct s)
{
    static constexpr const char *kNames[] = {
        OOVA_OCC_STRUCTS(OOVA_LABEL)};
    auto i = static_cast<size_t>(s);
    if (i >= kNumOccStructs)
        panic("occStructName on %zu", i);
    return kNames[i];
}

double
StatDistribution::mean() const
{
    return samples ? static_cast<double>(sum) / samples : 0.0;
}

double
StatDistribution::stddev() const
{
    if (samples == 0)
        return 0.0;
    double n = static_cast<double>(samples);
    double m = static_cast<double>(sum) / n;
    double var = static_cast<double>(sumSquares) / n - m * m;
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

uint64_t
StatDistribution::p95() const
{
    if (samples == 0)
        return 0;
    // Smallest rank covering 95% of the weight, in exact integers.
    uint64_t rank = (samples * 95 + 99) / 100;
    uint64_t cum = 0;
    for (size_t b = 0; b < kNumBuckets; ++b) {
        cum += buckets[b];
        if (cum >= rank) {
            uint64_t edge = (b + 1) * width - 1;
            return std::min(edge, maxValue);
        }
    }
    return maxValue; // unreachable: buckets sum to samples
}

void
StatTimeSeries::sample(uint64_t value, uint64_t n)
{
    while (n > 0) {
        size_t cur = static_cast<size_t>(total / epochLen);
        if (cur >= kMaxEpochs) {
            // Window full: halve the resolution, keep exact sums.
            for (size_t i = 0; i < kMaxEpochs / 2; ++i)
                sums[i] = sums[2 * i] + sums[2 * i + 1];
            std::fill(sums.begin() + kMaxEpochs / 2, sums.end(),
                      uint64_t{0});
            epochLen *= 2;
            continue;
        }
        uint64_t room = epochLen - total % epochLen;
        uint64_t take = std::min(room, n);
        sums[cur] += value * take;
        total += take;
        n -= take;
    }
}

uint64_t
StatTimeSeries::epochCycles(size_t e) const
{
    uint64_t start = e * epochLen;
    if (start >= total)
        return 0;
    return std::min(epochLen, total - start);
}

double
StatTimeSeries::epochMean(size_t e) const
{
    uint64_t cycles = epochCycles(e);
    return cycles ? static_cast<double>(sums[e]) / cycles : 0.0;
}

bool
telemetryForced()
{
    static const bool forced = [] {
        const char *env = std::getenv("OOVA_TELEMETRY");
        return env && *env && std::strcmp(env, "0") != 0;
    }();
    return forced;
}

} // namespace oova
