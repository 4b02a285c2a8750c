/**
 * @file
 * KvRouter: a hash-partitioned front end over N KvStore shards, with
 * cross-shard transactions, consistent snapshots, and crash-consistent
 * shard rebalancing.
 *
 * This is the first subsystem where one *logical* operation's persists
 * span engine threads and shard strands, i.e. where the paper's models
 * (strict / epoch / strand / Px86) actually disagree at service scale:
 *
 *  - **Routing**: keys hash to one of `partitions` partitions; a
 *    persistent owner table (one checksummed entry per partition) maps
 *    partitions to shards. Single-key ops take the owning shard's MCS
 *    lock, re-validate ownership under it (a migration may have moved
 *    the partition between routing and locking), and run the ordinary
 *    KvStore protocol.
 *
 *  - **Transactions** (KvTxn): two-phase commit over the existing log
 *    machinery. With every participant's lock held (ascending shard
 *    order), capacity is pre-validated exactly, one commit seq S is
 *    drawn from the group-shared counter, the txn's status word is set
 *    pending, and each mutation is staged in its shard's journal
 *    (txn id + S). A single commit record naming every (shard, LSN)
 *    participant then goes to the group journal, *ordered after* the
 *    staged records via conflict re-reads (strand-proof); a persist
 *    barrier makes it durable-before-publication; an rmwCas flips the
 *    status word pending -> committed; a second barrier orders the
 *    flip before the table applications. The commit record is the
 *    durable commit point; the flip is the volatile publication point
 *    and recovery's in-doubt detector.
 *
 *  - **Snapshots**: multiGet is a seqlock reader over the group
 *    (writers bump active/version cells around every mutation); the
 *    snapshot is pinned by the global seq counter read inside the
 *    stable window.
 *
 *  - **Migration**: rebalancing partition p from shard A to B journals
 *    a begin record, stages+applies every copied key into B (preserving
 *    (seq, value)), journals an end record ordered after the copies,
 *    barriers, flips the owner entry, barriers, then scrubs A's
 *    copies, journaling each scrub in A as an erase under the
 *    migration's id (so a later migration back cannot resurrect a
 *    scrubbed key from A's older records). A crash anywhere recovers
 *    to exactly one owner: the valid checksummed owner entry wins; an
 *    invalid entry falls back to the journal (end record durable ->
 *    B, else A).
 *
 * recoverKvRouter extends the per-shard recovery ladder with the
 * fourth tier (TxnResolve): committed transactions roll forward from
 * their staged records, in-doubt transactions (status flip durable,
 * commit record lost) are counted, partial state of uncommitted
 * transactions is scrubbed shard-by-shard from the staged-record
 * evidence, and the served map is the owner-filtered union of the
 * shards. Under `Repair` the same group evidence drives roll-forward
 * but uncommitted staged state is *not* scrubbed — the tier the
 * differential atomicity battery uses to expose the no-commit-barrier
 * mutant.
 */

#ifndef PERSIM_KVSTORE_ROUTER_HH
#define PERSIM_KVSTORE_ROUTER_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "kvstore/kvstore.hh"
#include "kvstore/recovery.hh"
#include "kvstore/txn.hh"
#include "pstruct/log.hh"
#include "sim/engine.hh"

namespace persim {

/** Router construction options. */
struct KvRouterOptions
{
    std::uint32_t shards = 2;      //!< KvStore shard count (>= 1).
    std::uint32_t partitions = 16; //!< Power of two >= shards.

    /** Per-shard geometry; force_journal is turned on internally. */
    KvOptions store;

    /** Group (commit/migration) journal capacity in bytes. */
    std::uint64_t group_log_capacity = 1 << 18;

    /** Status-table slots; txn ids beyond this are backpressured. */
    std::uint64_t max_txns = 4096;

    /**
     * FAULT DEMONSTRATION ONLY: omit the two commit barriers (record
     * durable before flip, flip before applies). The commit record
     * then races its own transaction's table applications — exactly
     * the bug the differential atomicity battery must flag.
     */
    bool omit_commit_barrier = false;
};

/** Placement of a router group (everything recovery needs). */
struct KvRouterLayout
{
    std::uint32_t shards = 0;
    std::uint32_t partitions = 0;
    std::uint64_t max_txns = 0;
    std::uint64_t max_value_bytes = 0;

    std::vector<KvLayout> shard_layouts;
    std::vector<LogLayout> shard_journals;
    LogLayout group_journal;

    Addr txn_status = invalid_addr;  //!< max_txns words.
    Addr owner_table = invalid_addr; //!< partitions x 16 bytes.

    /** Status-word states (low 2 bits; high bits echo the txn id). */
    static constexpr std::uint64_t status_pending = 1;
    static constexpr std::uint64_t status_committed = 2;

    Addr statusAddr(std::uint64_t txn) const
    {
        return txn_status + txn * 8;
    }

    /** The status word for @p txn in @p state: id echoed above the
        state bits so a stale or torn word cannot impersonate another
        transaction's slot. */
    static std::uint64_t statusWord(std::uint64_t txn,
                                    std::uint64_t state)
    {
        return txn * 4 + state;
    }

    Addr ownerAddr(std::uint64_t partition) const
    {
        return owner_table + partition * 16;
    }

    /** FNV-1a over (partition, owner), forced nonzero: a torn owner
        entry is detectable, and zeroed memory never validates. */
    static std::uint64_t ownerChecksum(std::uint64_t partition,
                                       std::uint64_t owner);

    /** The partition @p key hashes to. */
    static std::uint64_t partitionOf(std::uint64_t key,
                                     std::uint32_t partitions);
};

/** Outcome of KvRouter::migrate. */
enum class KvMigrateStatus : std::uint8_t {
    Ok = 0,
    NoOp,         //!< The target shard already owns the partition.
    OwnerChanged, //!< Lost an ownership race; caller may retry.
    TableFull,    //!< Destination table cannot take the copies.
    HeapFull,     //!< Destination heap cannot take the values.
    LogFull,      //!< Destination or group journal is full.
};

/** Human-readable status name. */
const char *kvMigrateStatusName(KvMigrateStatus status);

/** A hash-partitioned KV service over N crash-consistent shards. */
class KvRouter
{
  public:
    KvRouter() = default;

    /** Allocate the group: shards (journals forced), group journal,
        status + owner tables, seqlock cells, shared seq counter. */
    static KvRouter create(ThreadCtx &ctx,
                           const KvRouterOptions &options,
                           std::size_t threads);

    /** Routed single-key ops (lock, re-validate owner, mutate). */
    [[nodiscard]] KvStatus put(ThreadCtx &ctx, std::size_t slot,
                               std::uint64_t key, const void *value,
                               std::uint64_t len);
    [[nodiscard]] KvStatus erase(ThreadCtx &ctx, std::size_t slot,
                                 std::uint64_t key);
    bool get(ThreadCtx &ctx, std::uint64_t key,
             std::vector<std::uint8_t> &value) const;

    /**
     * Commit a staged transaction (see file comment). On Committed,
     * every mutation is durable-atomically applied; any other status
     * is pure backpressure — no persistent state changed. @p txn_id
     * (optional) receives the transaction id.
     */
    KvTxnStatus commit(ThreadCtx &ctx, std::size_t slot,
                       const KvTxn &txn,
                       std::uint64_t *txn_id = nullptr);

    /**
     * Consistent multi-shard snapshot read: retries the seqlock
     * window until no mutation overlapped it (bounded by
     * @p max_retries). Found keys land in @p out; @p snapshot_seq is
     * the global seq counter pinned inside the stable window.
     * @return False when the retry budget ran out.
     */
    bool multiGet(ThreadCtx &ctx,
                  const std::vector<std::uint64_t> &keys,
                  std::map<std::uint64_t, std::vector<std::uint8_t>> &out,
                  std::uint64_t &snapshot_seq,
                  unsigned max_retries = 64) const;

    /**
     * Move @p partition to @p to_shard, crash-consistently (see file
     * comment). Rejections are backpressure; nothing moved.
     */
    KvMigrateStatus migrate(ThreadCtx &ctx, std::size_t slot,
                            std::uint32_t partition,
                            std::uint32_t to_shard);

    /** The shard currently owning @p key (traced owner-table read). */
    std::uint32_t shardOf(ThreadCtx &ctx, std::uint64_t key) const;

    /**
     * Mutations published so far — host-side acquire read, safe from
     * any OS thread (a poller may race the engine's workers; the
     * release increment in the writers pairs with this acquire).
     */
    std::uint64_t publishedSeq() const
    {
        return published_seq_->load(std::memory_order_acquire);
    }

    const KvRouterLayout &layout() const { return layout_; }
    const KvRouterOptions &options() const { return options_; }
    KvStore &shard(std::size_t i) { return *stores_.at(i); }
    const KvStore &shard(std::size_t i) const { return *stores_.at(i); }

    /** Merged per-key golden history across all shards (host side). */
    std::shared_ptr<const KvGoldenHistory> goldenHistory() const;

    /** Every transaction that reached staging (host side). */
    std::shared_ptr<const KvTxnGoldenList> txnGolden() const;

    /** Group-journal appends (host side, for log cross-checks). */
    std::vector<GoldenLogRecord> groupJournalGolden() const
    {
        return group_journal_.goldenRecords();
    }

  private:
    /** Owner of @p partition (traced load; valid during execution). */
    std::uint32_t ownerShard(ThreadCtx &ctx,
                             std::uint64_t partition) const;

    /** Seqlock writer window around every mutation. */
    void beginMutation(ThreadCtx &ctx);
    void endMutation(ThreadCtx &ctx);

    /** Stage + commit with all participant locks already held. */
    KvTxnStatus commitLocked(ThreadCtx &ctx, std::size_t slot,
                             const KvTxn &txn,
                             const std::map<std::uint64_t,
                                            std::uint32_t> &route,
                             std::uint64_t *txn_id);

    KvRouterOptions options_;
    KvRouterLayout layout_;
    std::vector<std::shared_ptr<KvStore>> stores_;
    PersistentLog group_journal_;

    Addr seq_cell_ = invalid_addr;     //!< Group-shared seq counter.
    Addr txn_id_cell_ = invalid_addr;  //!< Next txn/migration id.
    Addr active_cell_ = invalid_addr;  //!< Seqlock: writers inside.
    Addr version_cell_ = invalid_addr; //!< Seqlock: mutations done.

    /** Host-side mutation count: written by engine worker threads,
        polled by ordinary OS threads (release/acquire pair). */
    std::shared_ptr<std::atomic<std::uint64_t>> published_seq_;

    struct TxnGolden
    {
        std::mutex mutex;
        KvTxnGoldenList txns;
    };
    std::shared_ptr<TxnGolden> txn_golden_;
};

/** Group recovery knobs. */
struct KvGroupRecoveryOptions
{
    KvRecoveryMode mode = KvRecoveryMode::TxnResolve;
    std::uint64_t repair_budget = 1 << 20;
};

/** How one staged transaction (or migration) resolved at recovery. */
struct KvTxnResolution
{
    bool committed = false; //!< Commit/end record durable and valid.

    /**
     * Detected damage (lost participant, in-doubt status, exhausted
     * repair budget): the transaction's atomicity claims are
     * suspended — counted, never silent.
     */
    bool faulted = false;
};

/** Result of recovering a router group image. */
struct KvGroupRecovery
{
    bool ok = false;          //!< False only under Strict with faults.
    std::string error;        //!< First failure description.
    KvRecoveryMode mode = KvRecoveryMode::TxnResolve;

    std::vector<KvRecovery> shards; //!< Per-shard ladder results.

    /** Resolved owner of each partition (always < shards). */
    std::vector<std::uint32_t> owners;

    /** Served entries: owner-filtered union of the shards. */
    std::map<std::uint64_t, KvRecoveredEntry> entries;

    /** Ids (txn + migration) whose commit/end record is durable. */
    std::set<std::uint64_t> committed;

    /** Every id seen in any journal, with its resolution. */
    std::map<std::uint64_t, KvTxnResolution> txns;

    std::uint64_t txn_records = 0;  //!< Valid group-journal records.
    std::uint64_t in_doubt = 0;     //!< Flip durable, record lost.
    std::uint64_t txn_partial = 0;  //!< Uncommitted staged entries
                                    //!< scrubbed (TxnResolve).
    std::uint64_t txn_lost = 0;     //!< Committed participants
                                    //!< unreadable.
    std::uint64_t owner_faults = 0; //!< Invalid owner entries.
    std::uint64_t status_faults = 0;//!< Corrupt status words.
    std::uint64_t stale_copies = 0; //!< Entries filtered out by
                                    //!< ownership.

    /** Any transaction-level damage detected. */
    bool
    anyTxnFaults() const
    {
        return in_doubt != 0 || txn_partial != 0 || txn_lost != 0 ||
               owner_faults != 0 || status_faults != 0;
    }
};

/**
 * Recover a router group from a crashed image: scan the group journal
 * (commit + migration records), resolve partition owners, run the
 * per-shard ladder with the committed set, validate committed
 * participants, scrub uncommitted staged state (TxnResolve), and
 * build the owner-filtered union. Pure function of the image; never
 * throws on corrupt input.
 */
KvGroupRecovery recoverKvRouter(const MemoryImage &image,
                                const KvRouterLayout &layout,
                                const KvGroupRecoveryOptions &options);

/** Group-level accounting for campaign surfaces (see KvInvariantStats
    for the bit-identity rationale). */
struct KvRouterInvariantStats
{
    KvInvariantStats shard; //!< Per-shard ladder accounting.
    std::atomic<std::uint64_t> in_doubt{0};
    std::atomic<std::uint64_t> txn_partial{0};
    std::atomic<std::uint64_t> txn_lost{0};
    std::atomic<std::uint64_t> owner_faults{0};
    std::atomic<std::uint64_t> stale_copies{0};
};

/**
 * Build a fault-campaign invariant over group recovery. A violation
 * is silent corruption, in order of severity:
 *
 *  - a served (seq, value) no writer issued (as makeKvRecoveryInvariant);
 *  - a committed, un-faulted transaction only partially reflected
 *    below its commit seq — roll-forward failed although every bit of
 *    evidence validated;
 *  - under Repair (no scrub): an uncommitted, un-faulted transaction
 *    *partially* visible at its commit seq — some ops applied, some
 *    not, with no commit record. The hardened protocol's barriers
 *    make this unreachable; the no-commit-barrier mutant lands here.
 *
 * Detected states (quarantine, in-doubt, scrubbed partials, lost
 * participants) accumulate into @p stats, not violations.
 */
std::function<std::string(const MemoryImage &)>
makeKvRouterInvariant(const KvRouterLayout &layout,
                      std::shared_ptr<const KvGoldenHistory> golden,
                      std::shared_ptr<const KvTxnGoldenList> txn_golden,
                      const KvGroupRecoveryOptions &options,
                      std::shared_ptr<KvRouterInvariantStats> stats =
                          nullptr);

} // namespace persim

#endif // PERSIM_KVSTORE_ROUTER_HH
