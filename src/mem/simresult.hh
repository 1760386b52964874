/**
 * @file
 * The result record shared by both simulators and consumed by the
 * experiment harness. Every figure of the paper is computed from
 * these fields.
 */

#ifndef OOVA_MEM_SIMRESULT_HH
#define OOVA_MEM_SIMRESULT_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/stats.hh"
#include "common/types.hh"

namespace oova
{

/**
 * Why an in-order issue slot was delayed (REF diagnostics): one
 * X(Enumerator, "label") list generates StallCause and
 * stallCauseName().
 */
#define OOVA_STALL_CAUSES(X)                                               \
    X(None, "none")            /* issued back to back */                   \
    X(ScalarDep, "scalar-dep") /* waiting on a scalar source */            \
    X(VectorDep, "vector-dep") /* waiting on a vector source (RAW) */      \
    X(WarWaw, "war/waw")       /* destination register still in use */     \
    X(FuBusy, "fu-busy")       /* functional unit occupied */              \
    X(MemUnit, "mem-unit")     /* memory unit still streaming addresses */ \
    X(Ports, "ports")          /* register-file port conflict */           \
    X(Branch, "branch")        /* post-branch redirect bubble */

enum class StallCause : uint8_t
{
    OOVA_STALL_CAUSES(OOVA_ENUMERATOR) NumCauses,
};

constexpr unsigned kNumStallCauses =
    static_cast<unsigned>(StallCause::NumCauses);

/** Human-readable stall-cause label. */
const char *stallCauseName(StallCause cause);

/**
 * CPI-stack bucket: where one machine cycle went, top-down. Both
 * simulators charge every cycle of a run to exactly one bucket when
 * cycle accounting is enabled (off by default); the conservation
 * invariant (buckets sum to `cycles`) is enforced by the
 * cpi-conservation checker in src/check/. One X(Enumerator,
 * "label") list generates CpiBucket and cpiBucketName(); the labels
 * are also the README's CPI-bucket table (lint-enforced).
 */
#define OOVA_CPI_BUCKETS(X)                                                      \
    X(Commit, "commit")            /* at least one instruction retired */        \
    X(Fetch, "fetch")              /* front end empty: fetch/BTB-limited */      \
    X(Rename, "rename")            /* free-list empty: rename-limited */         \
    X(QueueFull, "queue-full")     /* dispatch blocked on a full aQ/sQ/vQ */     \
    X(OperandWait, "operand-wait") /* head waiting on source operands */         \
    X(FuBusy, "fu-busy")           /* ready but lost the FU/issue-port race */   \
    X(Memory, "memory")            /* memory unit, bank, or MSHR limited */      \
    X(TlbTrap, "tlb-trap")         /* TLB miss handling / precise-trap squash */ \
    X(Drain, "drain")              /* end-of-trace pipeline drain */

enum class CpiBucket : uint8_t
{
    OOVA_CPI_BUCKETS(OOVA_ENUMERATOR) NumBuckets,
};

constexpr unsigned kNumCpiBuckets =
    static_cast<unsigned>(CpiBucket::NumBuckets);

/** Human-readable CPI-bucket label. */
const char *cpiBucketName(CpiBucket bucket);

/**
 * Entry types SimResult::visitFields() hands its visitor besides
 * plain members (u64 counters, strings, occupancy arrays).
 */
namespace fieldtab
{

/** The kResultSchemaVersion tag: written first, checked on parse. */
struct SchemaVersion
{
};

/** Label set of a keyed block ("{label: count, ...}"). */
enum class Labels : uint8_t
{
    UnitStates,  ///< UnitStateBreakdown::stateName()
    StallCauses, ///< stallCauseName()
    CpiBuckets,  ///< cpiBucketName()
};

/** A per-label count array, serialized as one keyed block. */
template <typename Array>
struct Keyed
{
    Array &counts;
    Labels labels;
};

/** A derived accessor: written for consumers, skipped on parse. */
template <typename T>
struct Derived
{
    T value;
};

} // namespace fieldtab

/** Aggregate outcome of simulating one trace on one machine. */
struct SimResult
{
    /**
     * Result-schema version, bumped whenever a field is added,
     * removed, or changes meaning. toJson() embeds it, fromJson()
     * rejects any other value, and the ResultStore folds
     * it into the content-addressed key — so a stored record from an
     * older schema is a clean miss, never a silent misparse.
     */
    static constexpr int kResultSchemaVersion = 3;

    std::string program;
    std::string machine;

    Cycle cycles = 0;
    uint64_t instructions = 0;

    /** Figures 3/7: cycles in each (FU2, FU1, MEM) state. */
    std::array<uint64_t, UnitStateBreakdown::kNumStates> stateCycles{};

    uint64_t fu1BusyCycles = 0;
    uint64_t fu2BusyCycles = 0;
    uint64_t memBusyCycles = 0;  ///< address-bus busy cycles
    uint64_t memRequests = 0;    ///< element requests on the bus

    // Memory-hierarchy detail; all zero under the default FlatBus.
    uint64_t memBankConflicts = 0;  ///< element issues that hit a busy bank
    uint64_t memConflictCycles = 0; ///< cycles lost waiting on banks
    /** Subset of the above charged to gather/scatter index streams. */
    uint64_t memIndexedConflicts = 0;
    uint64_t memIndexedConflictCycles = 0;
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    uint64_t mshrStallCycles = 0;   ///< cycles misses waited for an MSHR
    // Translation detail; all zero while the TLB is disabled.
    uint64_t tlbHits = 0;
    uint64_t tlbMisses = 0;         ///< lookups that required a refill
    /** Subset of tlbMisses from gather/scatter per-element lookups. */
    uint64_t tlbIndexedMisses = 0;
    uint64_t tlbMissCycles = 0;     ///< stall cycles from hardware walks

    // OOOVA-only detail.
    uint64_t vectorLoadsEliminated = 0;
    uint64_t scalarLoadsEliminated = 0;
    uint64_t branchMispredicts = 0;
    uint64_t renameStallCycles = 0;
    uint64_t robStallCycles = 0;
    uint64_t queueStallCycles = 0;
    uint64_t traps = 0;

    /** REF only: issue-stall cycles attributed to their cause. */
    std::array<uint64_t, kNumStallCauses> stallCycles{};

    /**
     * CPI stack: every cycle charged to one bucket. All zero unless
     * the config enables cycle accounting (cpiStack); when enabled,
     * the entries sum exactly to `cycles`.
     */
    std::array<uint64_t, kNumCpiBuckets> cpiCycles{};

    /**
     * Occupancy telemetry, one distribution and one bounded time
     * series per machine structure (see OccStruct). Empty (zero
     * samples) unless the config enables telemetry; when enabled,
     * every sampled structure's sample count equals `cycles` — the
     * occupancy-conservation checker's invariant. Exact integers,
     * so the JSON round trip through the ResultStore is bit-exact.
     */
    std::array<StatDistribution, kNumOccStructs> occupancy{};
    std::array<StatTimeSeries, kNumOccStructs> occupancyTs{};

    /** Fraction of cycles the memory port was idle (figures 4/6). */
    double
    portIdleFraction() const
    {
        if (cycles == 0)
            return 0.0;
        return 1.0 -
               static_cast<double>(memBusyCycles) /
                   static_cast<double>(cycles);
    }

    /** Bank conflicts charged to strided (non-indexed) streams. */
    uint64_t
    memStridedConflicts() const
    {
        return memBankConflicts - memIndexedConflicts;
    }

    /** TLB refills charged to strided (non-indexed) streams. */
    uint64_t
    stridedTlbMisses() const
    {
        return tlbMisses - tlbIndexedMisses;
    }

    /** Instructions per cycle over the whole run. */
    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) / cycles
                      : 0.0;
    }

    /**
     * The field table: calls @p f(name, field) once per JSON key, in
     * emission order. Both toJson() and fromJson() are derived from
     * it, so a field listed here is written and parsed back, and a
     * field missing here is neither. The scripts/lint_oova.py gate
     * parses the struct and fails if a data member or derived
     * accessor is missing from this table.
     */
    template <typename F>
    void
    visitFields(F &&f)
    {
        visitFieldsOf(*this, f);
    }

    template <typename F>
    void
    visitFields(F &&f) const
    {
        visitFieldsOf(*this, f);
    }

    /**
     * Render every field (including the derived accessors) as one
     * JSON object, tagged with kResultSchemaVersion.
     */
    std::string toJson() const;

    /**
     * Strict inverse of toJson(): parses one result object into
     * @p out, keys in any order. Returns false — leaving @p out
     * untouched — on malformed JSON, unknown, missing or repeated
     * keys, or a schema version other than kResultSchemaVersion;
     * the ResultStore treats every false as a cache miss. All stored
     * fields are integers or strings, so the round trip is exact
     * (derived keys are validated and recomputed, not stored).
     */
    static bool fromJson(std::string_view json, SimResult &out);

  private:
    template <typename Self, typename F>
    static void
    visitFieldsOf(Self &r, F &f)
    {
        using fieldtab::Labels;
        f("resultSchemaVersion", fieldtab::SchemaVersion{});
        f("program", r.program);
        f("machine", r.machine);
        f("cycles", r.cycles);
        f("instructions", r.instructions);
        f("stateCycles",
          fieldtab::Keyed{r.stateCycles, Labels::UnitStates});
        f("fu1BusyCycles", r.fu1BusyCycles);
        f("fu2BusyCycles", r.fu2BusyCycles);
        f("memBusyCycles", r.memBusyCycles);
        f("memRequests", r.memRequests);
        f("memBankConflicts", r.memBankConflicts);
        f("memConflictCycles", r.memConflictCycles);
        f("memIndexedConflicts", r.memIndexedConflicts);
        f("memIndexedConflictCycles", r.memIndexedConflictCycles);
        f("cacheHits", r.cacheHits);
        f("cacheMisses", r.cacheMisses);
        f("mshrStallCycles", r.mshrStallCycles);
        f("tlbHits", r.tlbHits);
        f("tlbMisses", r.tlbMisses);
        f("tlbIndexedMisses", r.tlbIndexedMisses);
        f("tlbMissCycles", r.tlbMissCycles);
        f("vectorLoadsEliminated", r.vectorLoadsEliminated);
        f("scalarLoadsEliminated", r.scalarLoadsEliminated);
        f("branchMispredicts", r.branchMispredicts);
        f("renameStallCycles", r.renameStallCycles);
        f("robStallCycles", r.robStallCycles);
        f("queueStallCycles", r.queueStallCycles);
        f("traps", r.traps);
        f("stallCycles",
          fieldtab::Keyed{r.stallCycles, Labels::StallCauses});
        f("cpiCycles", fieldtab::Keyed{r.cpiCycles, Labels::CpiBuckets});
        f("occupancy", r.occupancy);
        f("occupancyTs", r.occupancyTs);
        f("portIdleFraction",
          fieldtab::Derived<double>{r.portIdleFraction()});
        f("memStridedConflicts",
          fieldtab::Derived<uint64_t>{r.memStridedConflicts()});
        f("stridedTlbMisses",
          fieldtab::Derived<uint64_t>{r.stridedTlbMisses()});
        f("ipc", fieldtab::Derived<double>{r.ipc()});
    }
};

struct MemStats;

/** Copy a run's memory-system counters into @p res. */
void recordMemStats(const MemStats &stats, SimResult &res);

} // namespace oova

#endif // OOVA_MEM_SIMRESULT_HH
