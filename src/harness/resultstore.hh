/**
 * @file
 * The content-addressed result store of the sweep engine: simulation
 * results are pure functions of (trace bytes, full machine
 * configuration, trace scale, result schema), so they can be
 * persisted once and served forever.
 *
 * Layout: one file per key under the store directory —
 *
 *   <dir>/<32-hex-key>.json   one header line + SimResult::toJson()
 *   <dir>/index.log           append-only "key program machine" log
 *
 * Keys are derived by makeKey() from (trace content hash, the job's
 * complete config key, scale, SimResult::kResultSchemaVersion), so
 * any input that could change a result changes the key. Writes go
 * through a temp file plus atomic rename, so concurrent writers
 * (parallel sweeps sharing one store, even across processes) can
 * never expose a torn entry; readers quarantine anything unparsable
 * — truncated files, foreign schema versions, stray garbage — to
 * <key>.bad and re-simulate, so one bad sector costs one miss, not
 * a perpetual one. index.log replay tolerates a torn tail line
 * (crashed appender), and setFsync() buys full crash durability for
 * the entries themselves.
 */

#ifndef OOVA_HARNESS_RESULTSTORE_HH
#define OOVA_HARNESS_RESULTSTORE_HH

#include <cstdint>
#include <mutex>
#include <string>

#include "mem/simresult.hh"

namespace oova
{

/** Hit/miss/traffic counters of one ResultStore. */
struct StoreStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t stores = 0;
    uint64_t bytesRead = 0;
    uint64_t bytesWritten = 0;
    /** Entries unlinked by the size cap (setMaxBytes). */
    uint64_t evictions = 0;
    /** Corrupt entries renamed to <key>.bad on first detection. */
    uint64_t quarantined = 0;
};

/** Per-figure deltas for the run manifest. */
inline StoreStats
operator-(const StoreStats &a, const StoreStats &b)
{
    return {a.hits - b.hits,           a.misses - b.misses,
            a.stores - b.stores,       a.bytesRead - b.bytesRead,
            a.bytesWritten - b.bytesWritten,
            a.evictions - b.evictions,
            a.quarantined - b.quarantined};
}

/** On-disk content-addressed SimResult store. See the file comment. */
class ResultStore
{
  public:
    /** Bump when the entry file layout (not the schema) changes. */
    static constexpr int kStoreVersion = 1;

    /** Opens (creating if needed) the store directory; fatal if the
     *  path exists but is not a directory or cannot be created. */
    explicit ResultStore(std::string dir);

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /**
     * The content-addressed key: 32 hex digits over (result-schema
     * version, trace content hash, complete config key, scale).
     * Deterministic across processes and machines.
     */
    static std::string makeKey(uint64_t traceHash,
                               const std::string &configKey,
                               double scale);

    /**
     * Look @p key up; on a hit fill @p out and return true. A
     * missing entry is a plain miss; a present-but-unusable one
     * (torn, mis-keyed, schema-mismatched, garbage) is quarantined —
     * renamed to <key>.bad, preserved for post-mortem, counted in
     * StoreStats::quarantined — and then also a miss, so the sweep
     * re-simulates and the next store() heals the entry. The rename
     * is atomic, so concurrent readers of a corrupt entry quarantine
     * it exactly once. Counts into stats(). Thread-safe.
     */
    bool load(const std::string &key, SimResult &out);

    /**
     * Persist @p res under @p key (temp file + atomic rename) and
     * append to the index. Failures warn and leave the store
     * consistent — the sweep can always fall back to simulating.
     * Thread-safe; concurrent writers of one key all win (the entry
     * is a pure function of the key, so every version is identical).
     */
    void store(const std::string &key, const SimResult &res);

    /** Counters since construction (snapshot). Thread-safe. */
    StoreStats stats() const;

    const std::string &dir() const { return dir_; }

    /**
     * Cap the store's on-disk entry payload at @p bytes (0 =
     * uncapped, the default). Enforced after every store(): while
     * the entries' total size exceeds the cap, the oldest entries in
     * index.log order are unlinked, oldest first. A key's age is its
     * *last* index line, so rewriting (or re-storing an evicted)
     * entry makes it fresh again, and the entry just written is the
     * newest — it is evicted only when it exceeds the cap all by
     * itself. Unlinking is atomic and index
     * lines are never rewritten, so concurrent readers see an
     * evicted entry as a clean miss and stale index lines are
     * skipped; concurrent writers at worst both evict (idempotent).
     */
    void setMaxBytes(uint64_t bytes);

    /**
     * fsync every entry to stable storage before publishing it
     * (rename), and fsync the directory after — a crash can then
     * never leave a published-but-empty entry behind. Off by
     * default: entries are verifiable on read (and quarantined when
     * bad), so durability is an opt-in tax (--store-fsync).
     */
    void setFsync(bool on) { fsync_ = on; }

  private:
    std::string entryPath(const std::string &key) const;
    std::string headerLine(const std::string &key) const;
    /** Rename a corrupt entry to <key>.bad; count if we won. */
    void quarantine(const std::string &key);
    /** Apply the size cap; called after each successful store(). */
    void enforceCap();

    std::string dir_;
    mutable std::mutex mutex_;
    StoreStats stats_;
    uint64_t tmpSeq_ = 0;
    uint64_t maxBytes_ = 0;
    bool fsync_ = false;
};

} // namespace oova

#endif // OOVA_HARNESS_RESULTSTORE_HH
