/**
 * @file
 * A crash-consistent persistent key-value store with checksummed
 * buckets and variable-length values.
 *
 * KvStore generalizes pstruct's PersistentHashMap into a service-grade
 * structure: each 64-byte bucket carries a (key, value-reference,
 * sequence number, state, checksum) tuple, values live in a separate
 * persistent heap written through PBuffer, and every live bucket is
 * self-validating — the checksum covers the bucket index, key, value
 * reference, sequence number, AND the payload bytes, so a torn or
 * bit-rotted bucket is *detectable* instead of silently wrong.
 *
 * The update strategy is a config, because it is exactly the
 * durability tradeoff the paper's models price differently:
 *
 *  - `InPlace`: overwrite the payload in its heap region, then
 *    re-publish seq+checksum. Cheapest in space and persists, but a
 *    crash mid-update loses the old value: the bucket quarantines
 *    (checksum mismatch) with a window proportional to the payload.
 *  - `Cow`: write the new payload to a fresh heap region, barrier,
 *    then swing the bucket's value reference. The quarantine window
 *    shrinks to the bucket's own words; the old value survives any
 *    crash before the swing.
 *  - `LogStructured`: journal every mutation through a checksummed
 *    PersistentLog *before* applying it (write-ahead), then apply
 *    in-place/CoW. Quarantined buckets become repairable: recovery
 *    replays the journal suffix (see recovery.hh's `Repair` tier).
 *
 * Crash-atomicity honesty: a single checksummed bucket cannot be
 * updated atomically with ≤8-byte persists, so updates (not inserts,
 * not erases) have a crash window in which the bucket is *quarantined*
 * — detected, never silent. Inserts use update-then-publish (the
 * state word flips last) and erases are a single state-word persist,
 * so both are crash-atomic. The three-tier recovery ladder in
 * recovery.hh decides what quarantine means: fail (Strict), serve the
 * rest (DetectAndDiscard), or rebuild from the journal (Repair).
 *
 * All rejections are backpressure, not errors: a full table, full
 * heap, or full journal returns a KvStatus for the caller to shed
 * load — a fault campaign must never die on a capacity edge.
 */

#ifndef PERSIM_KVSTORE_KVSTORE_HH
#define PERSIM_KVSTORE_KVSTORE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "pmem/pmem.hh"
#include "pstruct/bucket_fault.hh"
#include "pstruct/log.hh"
#include "sim/engine.hh"
#include "sim/memory_image.hh"
#include "sync/locks.hh"

namespace persim {

/** How put() makes an existing key's new value durable. */
enum class KvUpdateStrategy : std::uint8_t {
    InPlace = 0,   //!< Overwrite the payload region, re-checksum.
    Cow,           //!< Fresh region, barrier, swing the reference.
    LogStructured, //!< Journal first (WAL), then apply; repairable.
};

/** Human-readable strategy name ("in_place", "cow", ...). */
const char *kvUpdateStrategyName(KvUpdateStrategy strategy);

/** Parse a strategy name; returns false if unknown. */
bool kvUpdateStrategyByName(const std::string &name,
                            KvUpdateStrategy &strategy);

/** Outcome of a KvStore mutation. */
enum class KvStatus : std::uint8_t {
    Ok = 0,
    NotFound,      //!< erase() of an absent key.
    TableFull,     //!< No dead bucket on the probe chain; backpressure.
    HeapFull,      //!< Value heap exhausted; backpressure.
    LogFull,       //!< Journal exhausted; backpressure.
    ValueTooLarge, //!< Payload exceeds KvOptions::max_value_bytes.
};

/** Human-readable status name. */
const char *kvStatusName(KvStatus status);

/** Placement and geometry of a KV store. */
struct KvLayout
{
    Addr table = invalid_addr;      //!< Bucket array base.
    std::uint64_t buckets = 0;      //!< Bucket count (power of two).
    Addr heap = invalid_addr;       //!< Value heap base.
    std::uint64_t heap_bytes = 0;   //!< Value heap size.
    std::uint64_t max_value_bytes = 0;

    static constexpr std::uint64_t bucket_bytes = 64; // One cache line.
    static constexpr std::uint64_t key_off = 0;
    static constexpr std::uint64_t val_off_off = 8;  //!< Heap offset.
    static constexpr std::uint64_t val_len_off = 16;
    static constexpr std::uint64_t seq_off = 24;
    static constexpr std::uint64_t state_off = 32;
    static constexpr std::uint64_t cksum_off = 40;

    /** Bucket states. */
    static constexpr std::uint64_t state_empty = 0;
    static constexpr std::uint64_t state_live = 1;
    static constexpr std::uint64_t state_tombstone = 2;

    /** Base address of bucket @p index. */
    Addr
    bucketAddr(std::uint64_t index) const
    {
        return table + index * bucket_bytes;
    }

    /**
     * Checksum of a live bucket: FNV-1a over (bucket index, key,
     * value heap offset, value length, sequence number, payload
     * bytes), forced nonzero. Covering the bucket index pins the
     * tuple to its slot; covering the sequence number distinguishes
     * generations of the same slot; covering the payload makes heap
     * corruption visible from the bucket.
     */
    static std::uint64_t checksum(std::uint64_t bucket_index,
                                  std::uint64_t key,
                                  std::uint64_t val_off,
                                  std::uint64_t val_len,
                                  std::uint64_t seq,
                                  const std::uint8_t *payload);
};

/** KV store construction options. */
struct KvOptions
{
    /** Bucket count (power of two >= 2). */
    std::uint64_t buckets = 1024;

    /** Value heap bytes. */
    std::uint64_t heap_bytes = 1 << 20;

    /** Maximum payload size accepted by put(). */
    std::uint64_t max_value_bytes = 4096;

    /** Durability protocol for updates (see file comment). */
    KvUpdateStrategy strategy = KvUpdateStrategy::Cow;

    /** Journal capacity (LogStructured only). */
    std::uint64_t log_capacity = 1 << 20;

    /**
     * Create the journal even when the strategy is not LogStructured.
     * Cross-shard transactions stage their per-shard redo records
     * through the shard journal regardless of how single-key puts
     * make updates durable, so a router-managed shard always needs
     * one.
     */
    bool force_journal = false;

    /** Start a new persist strand at each mutation. */
    bool use_strands = true;

    /**
     * FAULT DEMONSTRATION ONLY: omit the barrier between preparing a
     * bucket (or its new payload) and publishing it.
     */
    bool omit_publish_barrier = false;

    /** Keep host-side golden history (disable for huge perf runs). */
    bool record_golden = true;
};

/** One issued version of a key, recorded host-side for invariants. */
struct KvGoldenVersion
{
    std::uint64_t seq = 0;
    bool erased = false;
    std::vector<std::uint8_t> value;
};

/** Per-key version history (host side, append-ordered per key). */
using KvGoldenHistory =
    std::map<std::uint64_t, std::vector<KvGoldenVersion>>;

/** One decoded journal record (WAL redo / staged txn mutation). */
struct KvJournalRecord
{
    static constexpr std::uint64_t kind_put = 1;
    static constexpr std::uint64_t kind_erase = 2;

    std::uint64_t kind = 0;
    std::uint64_t key = 0;
    std::uint64_t seq = 0;

    /**
     * Owning transaction (0 = standalone WAL record). A staged txn
     * record is redo authority only once its transaction's commit
     * record is durable in the group journal; recovery skips it
     * otherwise (see recoverKvStore's committed-set option).
     */
    std::uint64_t txn = 0;

    std::vector<std::uint8_t> value; //!< Empty for erases.

    /** Serialize to a log payload. */
    std::vector<std::uint8_t> encode() const;

    /** Parse a log payload; returns false if malformed. */
    static bool decode(const std::vector<std::uint8_t> &payload,
                       KvJournalRecord &record);
};

/** A fixed-geometry crash-consistent KV store. */
class KvStore
{
  public:
    KvStore() = default;

    /**
     * Allocate and initialize the store in persistent memory, with
     * MCS qnodes for @p threads writer slots. When @p shared_seq_cell
     * is valid, sequence numbers are drawn from that (volatile) cell
     * with an atomic fetch-add instead of a private one — a router
     * passes one cell to every shard so seqs are globally unique and
     * totally ordered across the group.
     */
    static KvStore create(ThreadCtx &ctx, const KvOptions &options,
                          std::size_t threads,
                          Addr shared_seq_cell = invalid_addr);

    /**
     * Insert or update @p key (nonzero) with @p len payload bytes.
     * Capacity rejections (TableFull/HeapFull/LogFull) leave the
     * store untouched.
     */
    [[nodiscard]] KvStatus put(ThreadCtx &ctx, std::size_t slot,
                               std::uint64_t key, const void *value,
                               std::uint64_t len);

    /** Remove @p key. Ok, or NotFound (LogFull under LogStructured). */
    [[nodiscard]] KvStatus erase(ThreadCtx &ctx, std::size_t slot,
                                 std::uint64_t key);

    /**
     * put() without acquiring the shard lock: the caller already
     * holds it (via mcsLock()/qnode()). A router takes the lock
     * itself so it can re-validate partition ownership after
     * acquisition — a migration may have moved the partition between
     * routing and locking.
     */
    [[nodiscard]] KvStatus putLocked(ThreadCtx &ctx, std::size_t slot,
                                     std::uint64_t key,
                                     const void *value,
                                     std::uint64_t len);

    /** erase() without acquiring the shard lock (see putLocked). */
    [[nodiscard]] KvStatus eraseLocked(ThreadCtx &ctx, std::size_t slot,
                                       std::uint64_t key);

    /** Lock-free lookup. @return True iff found (payload appended). */
    bool get(ThreadCtx &ctx, std::uint64_t key,
             std::vector<std::uint8_t> &value) const;

    /** Lock-free lookup that also reports the entry's seq. */
    bool getWithSeq(ThreadCtx &ctx, std::uint64_t key,
                    std::vector<std::uint8_t> &value,
                    std::uint64_t &seq) const;

    /** Number of live entries (walks the table with traced loads). */
    std::uint64_t count(ThreadCtx &ctx) const;

    /** @name Cross-shard transaction hooks (see src/kvstore/txn.hh)
     *
     * The commit protocol owns the shard lock across staging, the
     * commit flip, and application, so these entry points do NOT
     * acquire it — the caller must hold it (via mcsLock()/qnode()) —
     * and do NOT start a new strand: a commit's persists must stay on
     * one strand so its barriers order stage -> flip -> apply.
     */
    ///@{
    /**
     * Stage one txn mutation in the shard journal (no table effect).
     * Records the version in the golden history: once staged, a
     * commit cannot fail, so the version is "issued" from here on.
     * @return False when the journal is full (nothing written).
     */
    [[nodiscard]] bool journalStaged(ThreadCtx &ctx, std::size_t slot,
                                     const KvJournalRecord &record,
                                     std::uint64_t &lsn);

    /**
     * Apply a committed put at a caller-chosen @p seq: same table
     * protocol as put() (in-place / CoW / publish-by-state-flip) but
     * no journaling, no seq draw, and no golden record (the version
     * was recorded when staged). Skips (returns Ok) when the live
     * entry already has seq >= @p seq — roll-forward idempotence.
     * Capacity must have been pre-validated; exhaustion here fatals.
     */
    KvStatus applyCommitted(ThreadCtx &ctx, std::uint64_t key,
                            const void *value, std::uint64_t len,
                            std::uint64_t seq);

    /** Apply a committed erase at @p seq (skips if table is newer). */
    KvStatus applyCommittedErase(ThreadCtx &ctx, std::uint64_t key,
                                 std::uint64_t seq);

    /**
     * Physically tombstone @p key without a seq draw or golden entry:
     * post-migration scrub of a copy that now lives in another shard.
     * The logical entry is unaffected — ownership already routes
     * readers to the new shard. The scrub is journaled first, as an
     * erase of the entry's @p seq under the migration's @p txn, so
     * recovery never replays the key's older records over the
     * tombstone once the partition migrates back. Both the record and
     * the tombstone persist after @p order_after (the owner flip);
     * the caller pre-validated the journal capacity.
     */
    void scrub(ThreadCtx &ctx, std::size_t slot, std::uint64_t key,
               std::uint64_t seq, std::uint64_t txn,
               const std::vector<Addr> &order_after);

    /**
     * Bucket base address of @p key's live entry (invalid_addr when
     * absent). A migration's end record re-reads the copied buckets'
     * state words so their persists order before it on a fresh strand.
     */
    Addr entryAddr(ThreadCtx &ctx, std::uint64_t key) const;

    /** Capacity probes for commit pre-validation (caller holds lock). */
    std::uint64_t liveCount(ThreadCtx &ctx) const;  //!< Live entries.
    std::uint64_t heapUsed(ThreadCtx &ctx) const;   //!< Bump cursor.
    std::uint64_t journalTail(ThreadCtx &ctx) const;

    bool hasJournal() const { return journal_.layout().capacity != 0; }

    const McsLock &mcsLock() const { return lock_; }
    Addr qnode(std::size_t slot) const { return qnodes_.at(slot); }
    ///@}

    const KvLayout &layout() const { return layout_; }
    const KvOptions &options() const { return options_; }

    /** Journal layout; valid only under LogStructured. */
    const LogLayout &journalLayout() const { return journal_.layout(); }

    /** Journal appends made so far (LogStructured, host side). */
    std::vector<GoldenLogRecord> journalGolden() const
    {
        return journal_.goldenRecords();
    }

    /** Snapshot of the per-key golden history (host side). */
    KvGoldenHistory goldenHistory() const;

    /** The probe start for @p key in a table of @p buckets. */
    static std::uint64_t hashIndex(std::uint64_t key,
                                   std::uint64_t buckets);

  private:
    struct Golden
    {
        std::mutex mutex;
        KvGoldenHistory history;
    };

    /** Reserve @p bytes from the value heap; false when exhausted. */
    bool heapAlloc(ThreadCtx &ctx, std::uint64_t bytes,
                   std::uint64_t &offset);

    /** Draw the next sequence number (atomic on the shared cell). */
    std::uint64_t drawSeq(ThreadCtx &ctx);

    /** Probe for @p key; returns found/insert bucket indices. */
    void probe(ThreadCtx &ctx, std::uint64_t key,
               std::uint64_t &found_at, std::uint64_t &insert_at) const;

    /** Table write shared by put() and applyCommitted(). */
    KvStatus writeEntry(ThreadCtx &ctx, std::uint64_t key,
                        const std::uint8_t *bytes_in, std::uint64_t len,
                        std::uint64_t seq, std::uint64_t found_at,
                        std::uint64_t insert_at);

    /** Journal one mutation (LogStructured); false when full. */
    bool journalAppend(ThreadCtx &ctx, std::size_t slot,
                       const KvJournalRecord &record);

    void recordGolden(std::uint64_t key, std::uint64_t seq, bool erased,
                      const std::uint8_t *value, std::uint64_t len);

    KvLayout layout_;
    KvOptions options_;
    PersistentLog journal_;          //!< LogStructured or forced.
    Addr seq_cell_ = invalid_addr;   //!< Volatile next-seq cell
                                     //!< (possibly group-shared).
    Addr heap_cell_ = invalid_addr;  //!< Volatile heap bump cursor.
    Addr live_cell_ = invalid_addr;  //!< Volatile live-entry count.
    McsLock lock_;
    std::vector<Addr> qnodes_;
    std::shared_ptr<Golden> golden_;
};

} // namespace persim

#endif // PERSIM_KVSTORE_KVSTORE_HH
