/**
 * @file
 * Result store tests: the exact toJson()/fromJson() round trip the
 * store persists records through, key stability and sensitivity,
 * hit/miss/corruption behaviour of the on-disk store, concurrent
 * writers, and warm-vs-cold equality through the StoreBackend.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "harness/backend.hh"
#include "harness/experiment.hh"
#include "harness/figure.hh"
#include "harness/resultstore.hh"
#include "harness/sweep.hh"
#include "synthetic_trace.hh"
#include "tempdir.hh"
#include "trace/trace_io.hh"

using namespace oova;

namespace
{

constexpr double kScale = 0.25;

/** A result with every stored field set to a distinct value. */
SimResult
fullyPopulatedResult()
{
    SimResult r;
    r.program = "swm\"2\\56";   // exercises string escaping
    r.machine = "OOOVA-16\n/t"; // and control-character escaping
    r.cycles = 101;
    r.instructions = 103;
    for (size_t i = 0; i < r.stateCycles.size(); ++i)
        r.stateCycles[i] = 200 + i;
    r.fu1BusyCycles = 301;
    r.fu2BusyCycles = 302;
    r.memBusyCycles = 303;
    r.memRequests = 304;
    r.memBankConflicts = 305;
    r.memConflictCycles = 306;
    r.memIndexedConflicts = 105;
    r.memIndexedConflictCycles = 308;
    r.cacheHits = 309;
    r.cacheMisses = 310;
    r.mshrStallCycles = 311;
    r.tlbHits = 312;
    r.tlbMisses = 313;
    r.tlbIndexedMisses = 114;
    r.tlbMissCycles = 315;
    r.vectorLoadsEliminated = 316;
    r.scalarLoadsEliminated = 317;
    r.branchMispredicts = 318;
    r.renameStallCycles = 319;
    r.robStallCycles = 320;
    r.queueStallCycles = 321;
    r.traps = 322;
    for (size_t i = 0; i < r.stallCycles.size(); ++i)
        r.stallCycles[i] = 400 + i;
    for (size_t i = 0; i < r.cpiCycles.size(); ++i)
        r.cpiCycles[i] = 500 + i;
    for (size_t i = 0; i < r.occupancy.size(); ++i) {
        StatDistribution &d = r.occupancy[i];
        d.width = 2 + i;
        d.samples = 600 + i;
        d.sum = 700 + i;
        d.sumSquares = 800 + i;
        d.minValue = 1 + i;
        d.maxValue = 90 + i;
        for (size_t b = 0; b < d.buckets.size(); ++b)
            d.buckets[b] = 1000 + i * d.buckets.size() + b;
        StatTimeSeries &ts = r.occupancyTs[i];
        ts.epochLen = 1ull << i;
        ts.total = 900 + i;
        for (size_t e = 0; e < ts.sums.size(); ++e)
            ts.sums[e] = 2000 + i * ts.sums.size() + e;
    }
    return r;
}

/** Field-by-field equality of every stored SimResult field. */
void
expectSameResult(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.program, b.program);
    EXPECT_EQ(a.machine, b.machine);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.stateCycles, b.stateCycles);
    EXPECT_EQ(a.fu1BusyCycles, b.fu1BusyCycles);
    EXPECT_EQ(a.fu2BusyCycles, b.fu2BusyCycles);
    EXPECT_EQ(a.memBusyCycles, b.memBusyCycles);
    EXPECT_EQ(a.memRequests, b.memRequests);
    EXPECT_EQ(a.memBankConflicts, b.memBankConflicts);
    EXPECT_EQ(a.memConflictCycles, b.memConflictCycles);
    EXPECT_EQ(a.memIndexedConflicts, b.memIndexedConflicts);
    EXPECT_EQ(a.memIndexedConflictCycles, b.memIndexedConflictCycles);
    EXPECT_EQ(a.cacheHits, b.cacheHits);
    EXPECT_EQ(a.cacheMisses, b.cacheMisses);
    EXPECT_EQ(a.mshrStallCycles, b.mshrStallCycles);
    EXPECT_EQ(a.tlbHits, b.tlbHits);
    EXPECT_EQ(a.tlbMisses, b.tlbMisses);
    EXPECT_EQ(a.tlbIndexedMisses, b.tlbIndexedMisses);
    EXPECT_EQ(a.tlbMissCycles, b.tlbMissCycles);
    EXPECT_EQ(a.vectorLoadsEliminated, b.vectorLoadsEliminated);
    EXPECT_EQ(a.scalarLoadsEliminated, b.scalarLoadsEliminated);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
    EXPECT_EQ(a.renameStallCycles, b.renameStallCycles);
    EXPECT_EQ(a.robStallCycles, b.robStallCycles);
    EXPECT_EQ(a.queueStallCycles, b.queueStallCycles);
    EXPECT_EQ(a.traps, b.traps);
    EXPECT_EQ(a.stallCycles, b.stallCycles);
    EXPECT_EQ(a.cpiCycles, b.cpiCycles);
    EXPECT_EQ(a.occupancy, b.occupancy);
    EXPECT_EQ(a.occupancyTs, b.occupancyTs);
}

/**
 * A JSON value as toJson() writes it: a scalar token kept verbatim
 * (number or quoted string), or an object of (quoted key, value)
 * members in document order.
 */
struct JsonNode
{
    std::string scalar;
    std::vector<std::pair<std::string, JsonNode>> members;
    bool isObject = false;
};

void
skipWs(std::string_view &s)
{
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s[0])))
        s.remove_prefix(1);
}

/** A quoted string token, escapes included, verbatim. */
std::string
takeQuoted(std::string_view &s)
{
    size_t i = 1;
    while (i < s.size() && s[i] != '"')
        i += s[i] == '\\' ? 2 : 1;
    std::string tok(s.substr(0, i + 1));
    s.remove_prefix(std::min(i + 1, s.size()));
    return tok;
}

JsonNode
parseNode(std::string_view &s)
{
    JsonNode n;
    skipWs(s);
    if (!s.empty() && s[0] == '"') {
        n.scalar = takeQuoted(s);
        return n;
    }
    if (s.empty() || s[0] != '{') {
        size_t end = s.find_first_of(",} \n");
        n.scalar = std::string(s.substr(0, end));
        s.remove_prefix(std::min(end, s.size()));
        return n;
    }
    n.isObject = true;
    s.remove_prefix(1);
    for (skipWs(s); !s.empty() && s[0] != '}'; skipWs(s)) {
        if (s[0] == ',')
            s.remove_prefix(1);
        skipWs(s);
        std::string key = takeQuoted(s);
        skipWs(s);
        s.remove_prefix(1); // ':'
        n.members.emplace_back(std::move(key), parseNode(s));
    }
    s.remove_prefix(std::min<size_t>(1, s.size()));
    return n;
}

JsonNode
parseTree(const std::string &json)
{
    std::string_view s(json);
    return parseNode(s);
}

std::string
emit(const JsonNode &n)
{
    if (!n.isObject)
        return n.scalar;
    std::string out = "{";
    for (const auto &[key, value] : n.members) {
        if (out.size() > 1)
            out += ", ";
        out += key;
        out += ": ";
        out += emit(value);
    }
    return out + "}";
}

void
reverseKeys(JsonNode &n)
{
    std::reverse(n.members.begin(), n.members.end());
    for (auto &m : n.members)
        reverseKeys(m.second);
}

/** Every object member of @p n, as a path of member indices. */
void
memberPaths(const JsonNode &n, std::vector<size_t> &prefix,
            std::vector<std::vector<size_t>> &out)
{
    for (size_t i = 0; i < n.members.size(); ++i) {
        prefix.push_back(i);
        out.push_back(prefix);
        memberPaths(n.members[i].second, prefix, out);
        prefix.pop_back();
    }
}

/** Replace the first occurrence of @p from in @p s with @p to. */
std::string
replaceFirst(std::string s, const std::string &from,
             const std::string &to)
{
    size_t at = s.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos)
        s.replace(at, from.size(), to);
    return s;
}

} // namespace

// ------------------------------------------------- JSON round trip

TEST(SimResultRoundTrip, EveryFieldSurvivesExactly)
{
    SimResult in = fullyPopulatedResult();
    SimResult out;
    ASSERT_TRUE(SimResult::fromJson(in.toJson(), out));
    expectSameResult(in, out);
    // Integer-only storage means the reserialization is bit-exact,
    // which is what makes warm-store figure output byte-identical.
    EXPECT_EQ(in.toJson(), out.toJson());
}

TEST(SimResultRoundTrip, DefaultConstructedSurvives)
{
    SimResult in;
    SimResult out;
    ASSERT_TRUE(SimResult::fromJson(in.toJson(), out));
    expectSameResult(in, out);
}

TEST(SimResultRoundTrip, RejectsMalformedInput)
{
    SimResult out;
    std::string good = fullyPopulatedResult().toJson();

    EXPECT_FALSE(SimResult::fromJson("", out));
    EXPECT_FALSE(SimResult::fromJson("not json at all", out));
    // Truncation anywhere must fail, never yield a partial record.
    EXPECT_FALSE(
        SimResult::fromJson(good.substr(0, good.size() / 2), out));
    EXPECT_FALSE(
        SimResult::fromJson(good.substr(0, good.size() - 3), out));
    // Trailing garbage after the closing brace.
    EXPECT_FALSE(SimResult::fromJson(good + "x", out));
    // A missing required field (drop "cycles" wholesale).
    std::string dropped = good;
    size_t at = dropped.find("\"cycles\"");
    ASSERT_NE(at, std::string::npos);
    size_t end = dropped.find('\n', at);
    dropped.erase(at, end - at + 1);
    EXPECT_FALSE(SimResult::fromJson(dropped, out));
    // An unknown key: likely a newer schema that forgot to bump the
    // version; must be a clean parse failure, not silent tolerance.
    std::string extra = good;
    at = extra.find("\"cycles\"");
    extra.insert(at, "\"mysteryCounter\": 7,\n  ");
    EXPECT_FALSE(SimResult::fromJson(extra, out));
    // A repeated key standing in for a missing one, at the top level
    // and inside each kind of keyed block: the record is one field
    // short, so it must not parse as a (silently zeroed) hit.
    EXPECT_FALSE(SimResult::fromJson(
        replaceFirst(good, "\"instructions\"", "\"cycles\""), out));
    EXPECT_FALSE(SimResult::fromJson(
        replaceFirst(good,
                     "\"" + UnitStateBreakdown::stateName(1) + "\"",
                     "\"" + UnitStateBreakdown::stateName(0) + "\""),
        out));
    EXPECT_FALSE(SimResult::fromJson(
        replaceFirst(good, "\"b1\"", "\"b0\""), out));
    EXPECT_FALSE(SimResult::fromJson(
        replaceFirst(good, "\"e1\"", "\"e0\""), out));
}

TEST(SimResultRoundTrip, AnyKeyOrderParsesToTheSameRecord)
{
    SimResult in = fullyPopulatedResult();
    JsonNode tree = parseTree(in.toJson());
    // The re-emitted tree parses as is, so a failure below is the
    // key order's doing, not the re-emitter's.
    SimResult out;
    ASSERT_TRUE(SimResult::fromJson(emit(tree), out));
    expectSameResult(in, out);

    // Reversed at the top level and inside every keyed block: no
    // key sits where the writer put it.
    reverseKeys(tree);
    out = SimResult();
    ASSERT_TRUE(SimResult::fromJson(emit(tree), out));
    expectSameResult(in, out);
    EXPECT_EQ(in.toJson(), out.toJson());
}

TEST(SimResultRoundTrip, EveryKeyIsRequired)
{
    JsonNode tree = parseTree(fullyPopulatedResult().toJson());
    std::vector<size_t> prefix;
    std::vector<std::vector<size_t>> paths;
    memberPaths(tree, prefix, paths);
    // Top level plus every label and slot of every keyed block.
    ASSERT_GT(paths.size(), 500u);
    SimResult out;
    for (const auto &path : paths) {
        JsonNode cut = tree;
        JsonNode *parent = &cut;
        for (size_t d = 0; d + 1 < path.size(); ++d)
            parent = &parent->members[path[d]].second;
        std::string key = parent->members[path.back()].first;
        parent->members.erase(parent->members.begin() +
                              static_cast<std::ptrdiff_t>(path.back()));
        EXPECT_FALSE(SimResult::fromJson(emit(cut), out))
            << "parsed without " << key << " (depth " << path.size()
            << ")";
    }
}

TEST(SimResultRoundTrip, OnDiskFormatIsPinned)
{
    // Captured from toJson() of fullyPopulatedResult() at schema
    // version 3. Existing store entries stay valid only while the
    // writer reproduces it byte for byte.
    std::ifstream is(OOVA_TEST_DATA_DIR "/simresult_v3.json",
                     std::ios::binary);
    ASSERT_TRUE(is) << "missing tests/data/simresult_v3.json";
    std::stringstream buf;
    buf << is.rdbuf();
    std::string fixture = buf.str();

    SimResult parsed;
    ASSERT_TRUE(SimResult::fromJson(fixture, parsed));
    expectSameResult(fullyPopulatedResult(), parsed);
    EXPECT_EQ(parsed.toJson(), fixture);
    EXPECT_EQ(fullyPopulatedResult().toJson(), fixture);
}

TEST(SimResultRoundTrip, RejectsForeignSchemaVersion)
{
    SimResult in = fullyPopulatedResult();
    std::string js = in.toJson();
    std::string tag =
        csprintf("\"resultSchemaVersion\": %d",
                 SimResult::kResultSchemaVersion);
    size_t at = js.find(tag);
    ASSERT_NE(at, std::string::npos);
    std::string other =
        js.substr(0, at) +
        csprintf("\"resultSchemaVersion\": %d",
                 SimResult::kResultSchemaVersion + 1) +
        js.substr(at + tag.size());
    SimResult out;
    EXPECT_FALSE(SimResult::fromJson(other, out));
}

TEST(SimResultRoundTrip, FailedParseLeavesOutputUntouched)
{
    SimResult out = fullyPopulatedResult();
    SimResult reference = fullyPopulatedResult();
    std::string good = fullyPopulatedResult().toJson();
    ASSERT_FALSE(
        SimResult::fromJson(good.substr(0, good.size() - 3), out));
    expectSameResult(reference, out);
}

// ------------------------------------------------------------ keys

TEST(ResultStoreKey, StableAndSensitive)
{
    std::string base = ResultStore::makeKey(0x1234, "OOO/v1|x", 0.25);
    EXPECT_EQ(base.size(), 32u);
    // Deterministic: same inputs, same key, every time.
    EXPECT_EQ(base, ResultStore::makeKey(0x1234, "OOO/v1|x", 0.25));
    // Every key ingredient moves the key.
    EXPECT_NE(base, ResultStore::makeKey(0x1235, "OOO/v1|x", 0.25));
    EXPECT_NE(base, ResultStore::makeKey(0x1234, "OOO/v1|y", 0.25));
    EXPECT_NE(base, ResultStore::makeKey(0x1234, "OOO/v1|x", 0.5));
}

/**
 * Calls @p f(name, member) for every entry of @p cfg's field table,
 * nested configs flattened into their own entries.
 */
template <typename Config, typename F>
void
visitLeaves(Config &cfg, F &&f)
{
    Config::visitFields(cfg, [&f](const char *name, auto &v) {
        if constexpr (std::is_class_v<std::decay_t<decltype(v)>>)
            visitLeaves(v, f);
        else
            f(name, v);
    });
}

/**
 * Perturb each field-table entry of @p base in turn (nested configs
 * included) and expect every perturbation to move the key.
 */
template <typename Config>
void
expectEveryFieldKeyed(const Config &base)
{
    const std::string key = sweepConfigKey(base);
    Config probe = base;
    std::set<const void *> members;
    size_t entries = 0;
    visitLeaves(probe, [&](const char *, auto &v) {
        members.insert(&v);
        ++entries;
    });
    // Each entry names its own member: no copy-pasted entry leaves
    // another member out of the key.
    EXPECT_EQ(members.size(), entries);
    EXPECT_GT(entries, 30u);

    for (size_t i = 0; i < entries; ++i) {
        Config cfg = base;
        size_t n = 0;
        std::string field;
        visitLeaves(cfg, [&](const char *name, auto &v) {
            if (n++ != i)
                return;
            field = name;
            using T = std::decay_t<decltype(v)>;
            if constexpr (std::is_same_v<T, bool>)
                v = !v;
            else if constexpr (std::is_enum_v<T>)
                v = static_cast<T>(
                    static_cast<std::underlying_type_t<T>>(v) + 1);
            else
                ++v;
        });
        EXPECT_NE(sweepConfigKey(cfg), key) << field;
    }
}

TEST(ResultStoreKey, ConfigKeyCoversResultAffectingKnobs)
{
    EXPECT_EQ(sweepConfigKey(makeOooConfig()),
              sweepConfigKey(makeOooConfig()));
    expectEveryFieldKeyed(makeOooConfig());
    expectEveryFieldKeyed(makeRefConfig(50));

    // REF and OOOVA keys can never collide.
    EXPECT_NE(sweepConfigKey(RefConfig{}),
              sweepConfigKey(OooConfig{}));
}

TEST(ResultStoreKey, TraceContentHashTracksContent)
{
    TraceCache a(kScale);
    TraceCache b(kScale);
    // Same generator inputs, same bytes, same hash — across caches.
    EXPECT_EQ(a.contentHash("hydro2d"), b.contentHash("hydro2d"));
    EXPECT_EQ(a.contentHash("hydro2d"), a.contentHash("hydro2d"));
    EXPECT_NE(a.contentHash("hydro2d"), a.contentHash("nasa7"));
    // A different scale generates a different trace.
    TraceCache half(kScale * 0.5);
    EXPECT_NE(a.contentHash("hydro2d"), half.contentHash("hydro2d"));
}

// ----------------------------------------------------------- store

TEST(ResultStore, RoundTripHitMatchesStoredResult)
{
    TempDir dir("roundtrip");
    ResultStore store(dir.path());
    SimResult in = fullyPopulatedResult();
    std::string key = ResultStore::makeKey(0xabcd, "cfg", 0.25);

    SimResult out;
    EXPECT_FALSE(store.load(key, out)); // cold: miss
    store.store(key, in);
    ASSERT_TRUE(store.load(key, out)); // warm: hit
    expectSameResult(in, out);

    StoreStats s = store.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.stores, 1u);
    EXPECT_GT(s.bytesWritten, 0u);
    EXPECT_EQ(s.bytesRead, s.bytesWritten);
}

TEST(ResultStore, CorruptAndMismatchedEntriesAreQuarantined)
{
    TempDir dir("corrupt");
    ResultStore store(dir.path());
    SimResult in = fullyPopulatedResult();
    std::string key = ResultStore::makeKey(0xabcd, "cfg", 0.25);
    store.store(key, in);
    std::string path = dir.path() + "/" + key + ".json";
    std::string badPath = dir.path() + "/" + key + ".bad";

    // Truncated mid-record: a miss, and the evidence is preserved —
    // the entry moves to <key>.bad instead of staying behind as a
    // perpetual parse failure.
    {
        std::ifstream is(path, std::ios::binary);
        std::ostringstream buf;
        buf << is.rdbuf();
        std::string body = buf.str();
        std::ofstream os(path,
                         std::ios::binary | std::ios::trunc);
        os.write(body.data(),
                 static_cast<std::streamsize>(body.size() / 2));
    }
    SimResult out;
    EXPECT_FALSE(store.load(key, out));
    EXPECT_EQ(store.stats().quarantined, 1u);
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_TRUE(std::filesystem::exists(badPath));

    // Re-storing heals the key: the next load is a clean hit again.
    store.store(key, in);
    ASSERT_TRUE(store.load(key, out));
    expectSameResult(in, out);

    // A record stored under a different key (file renamed by hand,
    // or a header/key mismatch from a foreign store version): a
    // quarantined miss too.
    std::string otherKey = ResultStore::makeKey(0xabce, "cfg", 0.25);
    std::string otherPath = dir.path() + "/" + otherKey + ".json";
    ASSERT_EQ(std::rename(path.c_str(), otherPath.c_str()), 0);
    EXPECT_FALSE(store.load(otherKey, out));
    EXPECT_TRUE(
        std::filesystem::exists(dir.path() + "/" + otherKey + ".bad"));

    // Plain garbage: quarantined miss.
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << "OOVA-RESULT but not really\n{]";
    }
    EXPECT_FALSE(store.load(key, out));
    EXPECT_EQ(store.stats().quarantined, 3u);

    // A genuinely absent entry is a plain miss: nothing to preserve,
    // nothing counted.
    std::string coldKey = ResultStore::makeKey(0xabcf, "cfg", 0.25);
    EXPECT_FALSE(store.load(coldKey, out));
    EXPECT_EQ(store.stats().quarantined, 3u);
}

TEST(ResultStore, TornIndexTailIsRepairedAndTolerated)
{
    TempDir dir("tornindex");
    std::string k1, k2;
    {
        ResultStore store(dir.path());
        SimResult in = fullyPopulatedResult();
        k1 = ResultStore::makeKey(21, "cfg", 0.25);
        k2 = ResultStore::makeKey(22, "cfg", 0.25);
        store.store(k1, in);
        store.store(k2, in);
    }
    // Tear the tail the way a killed appender would: drop the last
    // line's second half, newline included.
    std::string idxPath = dir.path() + "/index.log";
    {
        std::ifstream is(idxPath, std::ios::binary);
        std::ostringstream buf;
        buf << is.rdbuf();
        std::string body = buf.str();
        size_t lastLine = body.rfind('\n', body.size() - 2) + 1;
        size_t keep = lastLine + (body.size() - lastLine) / 2;
        std::ofstream os(idxPath,
                         std::ios::binary | std::ios::trunc);
        os.write(body.data(), static_cast<std::streamsize>(keep));
    }

    // Reopening repairs the tail (terminates the partial line) and
    // everything still works: both entries load, and the cap's
    // index replay does not trip over the torn record.
    ResultStore store(dir.path());
    SimResult out;
    EXPECT_TRUE(store.load(k1, out));
    EXPECT_TRUE(store.load(k2, out));
    {
        std::ifstream is(idxPath, std::ios::binary | std::ios::ate);
        ASSERT_GT(is.tellg(), 0);
        is.seekg(-1, std::ios::end);
        char last = '\0';
        is.get(last);
        EXPECT_EQ(last, '\n');
    }
    store.setMaxBytes(1); // force a replay-driven eviction pass
    store.store(ResultStore::makeKey(23, "cfg", 0.25),
                fullyPopulatedResult());
    EXPECT_GT(store.stats().evictions, 0u);
}

TEST(ResultStore, FsyncRoundTripsUnchanged)
{
    TempDir dir("fsync");
    ResultStore store(dir.path());
    store.setFsync(true);
    SimResult in = fullyPopulatedResult();
    std::string key = ResultStore::makeKey(31, "cfg", 0.25);
    store.store(key, in);
    SimResult out;
    ASSERT_TRUE(store.load(key, out));
    expectSameResult(in, out);
}

TEST(ResultStore, ConcurrentWritersOfOneKeyAllWin)
{
    TempDir dir("concurrent");
    ResultStore store(dir.path());
    SimResult in = fullyPopulatedResult();
    std::string key = ResultStore::makeKey(0x7777, "cfg", 0.25);

    std::vector<std::thread> writers;
    for (int i = 0; i < 8; ++i)
        writers.emplace_back([&] { store.store(key, in); });
    for (auto &t : writers)
        t.join();

    SimResult out;
    ASSERT_TRUE(store.load(key, out));
    expectSameResult(in, out);
    EXPECT_EQ(store.stats().stores, 8u);
}

// ------------------------------------------------------- size cap

TEST(ResultStore, CapLeavesEntriesBelowItAlone)
{
    TempDir dir("capunder");
    ResultStore store(dir.path());
    // Far above what two entries occupy: nothing may be evicted,
    // and both stay warm hits.
    store.setMaxBytes(64 * 1024 * 1024);
    SimResult in = fullyPopulatedResult();
    std::string k1 = ResultStore::makeKey(1, "cfg", 0.25);
    std::string k2 = ResultStore::makeKey(2, "cfg", 0.25);
    store.store(k1, in);
    store.store(k2, in);

    SimResult out;
    EXPECT_TRUE(store.load(k1, out));
    EXPECT_TRUE(store.load(k2, out));
    expectSameResult(in, out);
    EXPECT_EQ(store.stats().evictions, 0u);
}

TEST(ResultStore, CapEvictsOldestFirstAsCleanMisses)
{
    TempDir dir("capover");
    ResultStore store(dir.path());
    SimResult in = fullyPopulatedResult();
    std::string k0 = ResultStore::makeKey(10, "cfg", 0.25);
    std::string k1 = ResultStore::makeKey(11, "cfg", 0.25);
    std::string k2 = ResultStore::makeKey(12, "cfg", 0.25);

    // Measure one entry's on-disk size, then cap at two and a half
    // entries: the third store must push the oldest out.
    store.store(k0, in);
    uint64_t entryBytes = store.stats().bytesWritten;
    ASSERT_GT(entryBytes, 0u);
    store.setMaxBytes(entryBytes * 5 / 2);

    store.store(k1, in); // 2 entries: still under the cap
    EXPECT_EQ(store.stats().evictions, 0u);
    store.store(k2, in); // 3 entries: k0 (oldest) must go

    SimResult out;
    EXPECT_FALSE(store.load(k0, out)); // evicted: a clean miss
    EXPECT_TRUE(store.load(k1, out));
    EXPECT_TRUE(store.load(k2, out));
    expectSameResult(in, out);
    EXPECT_EQ(store.stats().evictions, 1u);

    // Re-storing the evicted key appends a fresh index line, which
    // resets its age: the re-stored entry is now the newest, so the
    // next eviction takes k1 (the new oldest), not k0 again.
    store.store(k0, in);
    EXPECT_TRUE(store.load(k0, out));
    EXPECT_FALSE(store.load(k1, out));
    EXPECT_TRUE(store.load(k2, out));
    EXPECT_EQ(store.stats().evictions, 2u);
}

// --------------------------------------------------- StoreBackend

TEST(StoreBackend, WarmRunEqualsColdRunFieldForField)
{
    TempDir dir("backend");
    TraceCache traces(kScale);
    std::vector<SweepJob> jobs;
    for (const char *prog : {"hydro2d", "nasa7"}) {
        jobs.push_back(oooJob(prog, makeOooConfig(16)));
        jobs.push_back(refJob(prog, makeRefConfig(50)));
        jobs.push_back(idealJob(prog));
    }

    ResultStore store(dir.path());
    SweepEngine cold(
        traces, std::make_unique<StoreBackend>(
                    store, traces,
                    std::make_unique<InProcessBackend>(traces, 2)));
    std::vector<SimResult> first = cold.run(jobs);
    EXPECT_EQ(store.stats().hits, 0u);
    EXPECT_EQ(store.stats().misses, jobs.size());
    EXPECT_EQ(store.stats().stores, jobs.size());

    // A fresh store object over the same directory (a new process
    // in real sweeps) must serve every job without simulating.
    ResultStore warmStore(dir.path());
    SweepEngine warm(
        traces, std::make_unique<StoreBackend>(
                    warmStore, traces,
                    std::make_unique<InProcessBackend>(traces, 2)));
    warm.enableManifest();
    std::vector<SimResult> second = warm.run(jobs);
    EXPECT_EQ(warmStore.stats().hits, jobs.size());
    EXPECT_EQ(warmStore.stats().misses, 0u);

    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i)
        expectSameResult(first[i], second[i]);

    // The manifest records the hits as cached.
    ASSERT_EQ(warm.manifest().size(), jobs.size());
    for (const JobRecord &rec : warm.manifest())
        EXPECT_TRUE(rec.cached);
}

TEST(StoreBackend, InlineTraceJobsAreCacheable)
{
    TempDir dir("inline");
    TraceCache traces(kScale);
    auto trace = std::make_shared<Trace>(traces.get("hydro2d"));
    std::vector<SweepJob> jobs = {
        oooTraceJob(trace, makeOooConfig(16)),
        refTraceJob(trace, makeRefConfig(50)),
    };

    ResultStore store(dir.path());
    StoreBackend backend(
        store, traces, std::make_unique<InProcessBackend>(traces, 1));
    std::vector<JobOutcome> first = backend.run(jobs);
    std::vector<JobOutcome> second = backend.run(jobs);

    EXPECT_EQ(store.stats().hits, jobs.size());
    EXPECT_EQ(store.stats().misses, jobs.size());
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_FALSE(first[i].fromStore);
        EXPECT_TRUE(second[i].fromStore);
        expectSameResult(first[i].result, second[i].result);
    }
}

TEST(StoreBackend, HitCarriesItsOwnJobsProgramLabel)
{
    // A result's program label is its job's trace name on every
    // path. Two jobs over one trace that ask for different labels
    // share one store entry (the key covers the trace, not the
    // label), so a hit must carry the asking job's label, not that
    // of the job that stored the entry.
    TempDir dir("label");
    TraceCache traces(kScale);
    SweepJob left = oooTraceJob(syntheticTrace("left", 3),
                                makeOooConfig(16, 16, 50));
    SweepJob right = left;
    right.trace = "right";
    ResultStore store(dir.path());
    auto engine = [&] {
        return SweepEngine(
            traces, std::make_unique<StoreBackend>(
                        store, traces,
                        std::make_unique<InProcessBackend>(traces, 1)));
    };

    SimResult cold = engine().run({left})[0];
    SimResult warm = engine().run({right})[0];
    EXPECT_EQ(store.stats().hits, 1u);
    EXPECT_EQ(cold.program, "left");
    EXPECT_EQ(warm.program, "right");
    EXPECT_EQ(warm.cycles, cold.cycles);

    // The same holds when the job is simulated, and for an in-batch
    // duplicate the memo answers.
    SweepEngine plain(traces, 1);
    EXPECT_EQ(plain.run({right})[0].program, "right");
    std::vector<SimResult> both = SweepEngine(traces, 1).run({left, right});
    EXPECT_EQ(both[0].program, "left");
    EXPECT_EQ(both[1].program, "right");
}

TEST(StoreBackend, UncacheableJobsBypassTheStore)
{
    TempDir dir("bypass");
    TraceCache traces(kScale);
    SweepJob job{"hydro2d",
                 [](const Trace &t) {
                     SimResult r;
                     r.machine = "CUSTOM";
                     r.cycles = t.size();
                     return r;
                 },
                 nullptr, std::string()};

    ResultStore store(dir.path());
    StoreBackend backend(
        store, traces, std::make_unique<InProcessBackend>(traces, 1));
    backend.run({job});
    backend.run({job});
    // No configKey: never looked up, never persisted.
    StoreStats s = store.stats();
    EXPECT_EQ(s.hits + s.misses + s.stores, 0u);
}
