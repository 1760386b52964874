#include "mem/simresult.hh"

#include <algorithm>
#include <bitset>
#include <charconv>
#include <type_traits>
#include <vector>

#include "common/logging.hh"
#include "mem/memsystem.hh"

namespace oova
{

const char *
stallCauseName(StallCause cause)
{
    static constexpr const char *kNames[] = {
        OOVA_STALL_CAUSES(OOVA_LABEL)};
    auto i = static_cast<unsigned>(cause);
    return i < kNumStallCauses ? kNames[i] : "?";
}

const char *
cpiBucketName(CpiBucket bucket)
{
    static constexpr const char *kNames[] = {
        OOVA_CPI_BUCKETS(OOVA_LABEL)};
    auto i = static_cast<unsigned>(bucket);
    return i < kNumCpiBuckets ? kNames[i] : "?";
}

namespace
{

/** Slot labels of one JSON object, built once per process. */
using LabelTable = std::vector<std::string>;

/** Widest object the parser's seen-bitset covers. */
constexpr size_t kMaxSlots = 64;

template <typename NameFn>
LabelTable
makeLabels(size_t n, NameFn name)
{
    sim_assert(n <= kMaxSlots, "%zu slots in one JSON object", n);
    LabelTable t;
    t.reserve(n);
    for (size_t i = 0; i < n; ++i)
        t.emplace_back(name(i));
    return t;
}

/** Top-level keys, in SimResult::visitFields() order. */
const LabelTable &
fieldNames()
{
    static const LabelTable t = [] {
        std::vector<const char *> names;
        SimResult().visitFields(
            [&](const char *name, auto &&) { names.push_back(name); });
        return makeLabels(names.size(),
                          [&](size_t i) { return names[i]; });
    }();
    return t;
}

const LabelTable &
keyedLabels(fieldtab::Labels which)
{
    static const LabelTable states =
        makeLabels(UnitStateBreakdown::kNumStates, [](size_t i) {
            return UnitStateBreakdown::stateName(static_cast<int>(i));
        });
    static const LabelTable causes =
        makeLabels(kNumStallCauses, [](size_t i) {
            return stallCauseName(static_cast<StallCause>(i));
        });
    static const LabelTable buckets =
        makeLabels(kNumCpiBuckets, [](size_t i) {
            return cpiBucketName(static_cast<CpiBucket>(i));
        });
    switch (which) {
    case fieldtab::Labels::UnitStates:
        return states;
    case fieldtab::Labels::StallCauses:
        return causes;
    case fieldtab::Labels::CpiBuckets:
        break;
    }
    return buckets;
}

const LabelTable &
occLabels()
{
    static const LabelTable t = makeLabels(kNumOccStructs, [](size_t i) {
        return occStructName(static_cast<OccStruct>(i));
    });
    return t;
}

/*
 * Flat slot surface of one StatDistribution / StatTimeSeries in the
 * keyed-object encoding: exact integers only, one stable label per
 * slot, slot(rec, i) being the member behind label i.
 */
const LabelTable &
slotLabels(const StatDistribution &)
{
    static const LabelTable t =
        makeLabels(6 + StatDistribution::kNumBuckets,
                   [](size_t i) -> std::string {
                       static const char *kScalars[6] = {
                           "width", "samples", "sum",
                           "sumsq", "min",     "max"};
                       return i < 6 ? kScalars[i]
                                    : csprintf("b%zu", i - 6);
                   });
    return t;
}

const LabelTable &
slotLabels(const StatTimeSeries &)
{
    static const LabelTable t =
        makeLabels(2 + StatTimeSeries::kMaxEpochs,
                   [](size_t i) -> std::string {
                       if (i < 2)
                           return i == 0 ? "epoch" : "total";
                       return csprintf("e%zu", i - 2);
                   });
    return t;
}

template <typename Rec>
auto &
slot(Rec &r, size_t i)
{
    if constexpr (std::is_same_v<std::remove_const_t<Rec>,
                                 StatDistribution>) {
        decltype(&r.width) const scalars[] = {
            &r.width, &r.samples, &r.sum,
            &r.sumSquares, &r.minValue, &r.maxValue};
        return i < 6 ? *scalars[i] : r.buckets[i - 6];
    } else {
        return i == 0 ? r.epochLen : i == 1 ? r.total : r.sums[i - 2];
    }
}

/** toJson()'s output: one reserved buffer, numbers via to_chars. */
struct JsonWriter
{
    std::string out;

    /** Quoted string, escaping quotes, backslashes and controls. */
    void
    str(std::string_view s)
    {
        static const char kHex[] = "0123456789abcdef";
        out += '"';
        for (char c : s) {
            auto u = static_cast<unsigned char>(c);
            if (c == '"' || c == '\\')
                out += '\\';
            if (u < 0x20) {
                out += "\\u00";
                out += kHex[u >> 4];
                out += kHex[u & 0xf];
            } else {
                out += c;
            }
        }
        out += '"';
    }

    void
    num(uint64_t v)
    {
        char buf[24];
        out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
    }

    /** printf("%.6f") of @p v, which to_chars reproduces exactly. */
    void
    fixed6(double v)
    {
        char buf[400]; // DBL_MAX in fixed notation needs 317
        out.append(buf, std::to_chars(buf, buf + sizeof(buf), v,
                                      std::chars_format::fixed, 6)
                            .ptr);
    }

    /** "{label: count(0), label: count(1), ...}" on one line. */
    template <typename CountFn>
    void
    keyed(const LabelTable &labels, CountFn count)
    {
        out += '{';
        for (size_t i = 0; i < labels.size(); ++i) {
            if (i)
                out += ", ";
            str(labels[i]);
            out += ": ";
            num(count(i));
        }
        out += '}';
    }

    void
    value(fieldtab::SchemaVersion)
    {
        num(SimResult::kResultSchemaVersion);
    }

    void
    value(uint64_t v)
    {
        num(v);
    }

    void
    value(const std::string &s)
    {
        str(s);
    }

    void
    value(fieldtab::Derived<uint64_t> d)
    {
        num(d.value);
    }

    void
    value(fieldtab::Derived<double> d)
    {
        fixed6(d.value);
    }

    template <typename Array>
    void
    value(fieldtab::Keyed<Array> k)
    {
        keyed(keyedLabels(k.labels),
              [&](size_t i) { return k.counts[i]; });
    }

    /** One keyed record per OccStruct, each on its own line. */
    template <typename Rec>
    void
    value(const std::array<Rec, kNumOccStructs> &occ)
    {
        out += '{';
        for (size_t s = 0; s < kNumOccStructs; ++s) {
            if (s)
                out += ',';
            out += "\n    ";
            str(occLabels()[s]);
            out += ": ";
            keyed(slotLabels(occ[s]),
                  [&](size_t i) { return slot(occ[s], i); });
        }
        out += '}';
    }
};

} // namespace

std::string
SimResult::toJson() const
{
    JsonWriter w;
    w.out.reserve(8192); // a fully populated telemetry record: ~7 KiB
    w.out += "{\n";
    bool first = true;
    visitFields([&](const char *name, const auto &field) {
        if (!first)
            w.out += ",\n";
        first = false;
        w.out += "  \"";
        w.out += name;
        w.out += "\": ";
        w.value(field);
    });
    w.out += "\n}\n";
    return std::move(w.out);
}

namespace
{

/**
 * Minimal strict cursor over the JSON subset toJson() emits:
 * objects, strings, and numbers. Anything else is a parse failure —
 * the caller treats that as a corrupt or stale record.
 */
class JsonCursor
{
  public:
    explicit JsonCursor(std::string_view s)
        : p_(s.data()), end_(s.data() + s.size())
    {
    }

    /** Consume @p c (after whitespace); false if absent. */
    bool
    lit(char c)
    {
        ws();
        if (p_ < end_ && *p_ == c) {
            ++p_;
            return true;
        }
        return false;
    }

    /** Whether @p c is next (after whitespace), without consuming. */
    bool
    peek(char c)
    {
        ws();
        return p_ < end_ && *p_ == c;
    }

    /** Parse a quoted string, undoing JsonWriter::str()'s escapes. */
    bool
    str(std::string &out)
    {
        if (!lit('"'))
            return false;
        out.clear();
        for (;;) {
            const char *run = p_;
            while (p_ < end_ && *p_ != '"' && *p_ != '\\')
                ++p_;
            out.append(run, p_);
            if (p_ == end_)
                return false;
            if (*p_++ == '"')
                return true;
            if (!escape(out))
                return false;
        }
    }

    /**
     * Parse a quoted object key. Without escapes (every key toJson()
     * writes) @p out views the input and nothing is allocated.
     */
    bool
    key(std::string_view &out)
    {
        ws();
        const char *open = p_;
        if (!lit('"'))
            return false;
        const char *run = p_;
        while (p_ < end_ && *p_ != '"' && *p_ != '\\')
            ++p_;
        if (p_ < end_ && *p_ == '"') {
            out = std::string_view(run, static_cast<size_t>(p_ - run));
            ++p_;
            return true;
        }
        p_ = open;
        if (!str(escaped_))
            return false;
        out = escaped_;
        return true;
    }

    /** Parse an unsigned decimal integer. */
    bool
    u64(uint64_t &v)
    {
        ws();
        auto [end, ec] = std::from_chars(p_, end_, v);
        if (ec != std::errc())
            return false;
        p_ = end;
        return true;
    }

    /** Validate-and-skip a number (derived keys). */
    bool
    skipNumber()
    {
        ws();
        double v;
        const char *end = std::from_chars(p_, end_, v).ptr;
        if (end == p_)
            return false;
        p_ = end;
        return true;
    }

    /** True once only trailing whitespace remains. */
    bool
    atEnd()
    {
        ws();
        return p_ == end_;
    }

  private:
    void
    ws()
    {
        while (p_ < end_ && (*p_ == ' ' || *p_ == '\n' ||
                             *p_ == '\t' || *p_ == '\r'))
            ++p_;
    }

    /** Decode one escape (the backslash already consumed). */
    bool
    escape(std::string &out)
    {
        if (p_ == end_)
            return false;
        char e = *p_++;
        switch (e) {
        case '"':
        case '\\':
        case '/':
            out += e;
            return true;
        case 'n':
            out += '\n';
            return true;
        case 't':
            out += '\t';
            return true;
        case 'u':
            break;
        default:
            return false;
        }
        if (end_ - p_ < 4)
            return false;
        unsigned v = 0;
        for (int i = 0; i < 4; ++i) {
            char h = *p_++;
            v <<= 4;
            if (h >= '0' && h <= '9')
                v |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
                v |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
                v |= static_cast<unsigned>(h - 'A' + 10);
            else
                return false;
        }
        // The writer only escapes bytes below 0x20.
        if (v > 0xff)
            return false;
        out += static_cast<char>(v);
        return true;
    }

    const char *p_;
    const char *end_;
    std::string escaped_; ///< key() storage, used only for escapes
};

/**
 * Parse one JSON object whose keys are exactly @p names — each once,
 * in any order — with @p value(i) parsing the value of slot i. The
 * key after slot i is tried against slot i + 1 first, so a record in
 * the writer's order costs one compare per key.
 */
template <typename ValueFn>
bool
parseObject(JsonCursor &p, const LabelTable &names, ValueFn value)
{
    if (!p.lit('{'))
        return false;
    std::bitset<kMaxSlots> seen;
    size_t next = 0;
    while (!p.peek('}')) {
        if (seen.any() && !p.lit(','))
            return false;
        std::string_view key;
        if (!p.key(key) || !p.lit(':'))
            return false;
        size_t i = next;
        if (i >= names.size() || names[i] != key)
            i = static_cast<size_t>(
                std::find(names.begin(), names.end(), key) -
                names.begin());
        if (i == names.size() || seen[i])
            return false;
        seen[i] = true;
        if (!value(i))
            return false;
        next = i + 1;
    }
    return p.lit('}') && seen.count() == names.size();
}

bool
parseValue(JsonCursor &p, fieldtab::SchemaVersion)
{
    uint64_t v = 0;
    return p.u64(v) && v == SimResult::kResultSchemaVersion;
}

bool
parseValue(JsonCursor &p, uint64_t &v)
{
    return p.u64(v);
}

bool
parseValue(JsonCursor &p, std::string &s)
{
    return p.str(s);
}

template <typename T>
bool
parseValue(JsonCursor &p, fieldtab::Derived<T>)
{
    // Recomputed from the stored fields; only validated here.
    return p.skipNumber();
}

template <typename Array>
bool
parseValue(JsonCursor &p, fieldtab::Keyed<Array> k)
{
    return parseObject(p, keyedLabels(k.labels),
                       [&](size_t i) { return p.u64(k.counts[i]); });
}

template <typename Rec>
bool
parseValue(JsonCursor &p, std::array<Rec, kNumOccStructs> &occ)
{
    return parseObject(p, occLabels(), [&](size_t s) {
        return parseObject(p, slotLabels(occ[s]), [&](size_t i) {
            return p.u64(slot(occ[s], i));
        });
    });
}

} // namespace

bool
SimResult::fromJson(std::string_view json, SimResult &out)
{
    SimResult r;
    JsonCursor p(json);
    bool ok = parseObject(p, fieldNames(), [&](size_t want) {
        // The table is only reachable by visiting: parse slot want.
        size_t i = 0;
        bool parsed = false;
        r.visitFields([&](const char *, auto &&field) {
            if (i++ == want)
                parsed = parseValue(p, field);
        });
        return parsed;
    });
    if (!ok || !p.atEnd())
        return false;
    out = std::move(r);
    return true;
}

void
recordMemStats(const MemStats &stats, SimResult &res)
{
    res.memRequests = stats.requests;
    res.memBankConflicts = stats.bankConflicts;
    res.memConflictCycles = stats.conflictCycles;
    res.memIndexedConflicts = stats.indexedConflicts;
    res.memIndexedConflictCycles = stats.indexedConflictCycles;
    res.cacheHits = stats.cacheHits;
    res.cacheMisses = stats.cacheMisses;
    res.mshrStallCycles = stats.mshrStallCycles;
    res.tlbHits = stats.tlbHits;
    res.tlbMisses = stats.tlbMisses;
    res.tlbIndexedMisses = stats.tlbIndexedMisses;
    res.tlbMissCycles = stats.tlbMissCycles;
}

} // namespace oova
