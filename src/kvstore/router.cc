#include "kvstore/router.hh"

#include <algorithm>
#include <sstream>

#include "common/bitops.hh"
#include "common/error.hh"

namespace persim {

const char *
kvMigrateStatusName(KvMigrateStatus status)
{
    switch (status) {
      case KvMigrateStatus::Ok:
        return "ok";
      case KvMigrateStatus::NoOp:
        return "no-op";
      case KvMigrateStatus::OwnerChanged:
        return "owner-changed";
      case KvMigrateStatus::TableFull:
        return "table-full";
      case KvMigrateStatus::HeapFull:
        return "heap-full";
      case KvMigrateStatus::LogFull:
        return "log-full";
    }
    return "unknown";
}

std::uint64_t
KvRouterLayout::ownerChecksum(std::uint64_t partition,
                              std::uint64_t owner)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    auto mix = [&hash](std::uint64_t word) {
        for (int i = 0; i < 8; ++i) {
            hash ^= (word >> (8 * i)) & 0xff;
            hash *= 0x100000001b3ULL;
        }
    };
    mix(partition);
    mix(owner);
    return hash == 0 ? 1 : hash;
}

std::uint64_t
KvRouterLayout::partitionOf(std::uint64_t key, std::uint32_t partitions)
{
    return KvStore::hashIndex(key, partitions);
}

KvRouter
KvRouter::create(ThreadCtx &ctx, const KvRouterOptions &options,
                 std::size_t threads)
{
    PERSIM_REQUIRE(options.shards >= 1, "need at least one shard");
    PERSIM_REQUIRE(isPowerOfTwo(options.partitions) &&
                   options.partitions >= 1,
                   "partition count must be a power of two >= 1");
    PERSIM_REQUIRE(options.max_txns >= 2,
                   "need at least one usable txn id");
    PERSIM_REQUIRE(threads >= 1, "need at least one writer slot");

    KvRouter router;
    router.options_ = options;
    router.layout_.shards = options.shards;
    router.layout_.partitions = options.partitions;
    router.layout_.max_txns = options.max_txns;
    router.layout_.max_value_bytes = options.store.max_value_bytes;

    // Ids start at 1 (0 means "never written" everywhere).
    router.seq_cell_ = ctx.vmalloc(8, 64);
    ctx.store(router.seq_cell_, 1);
    router.txn_id_cell_ = ctx.vmalloc(8, 64);
    ctx.store(router.txn_id_cell_, 1);
    router.active_cell_ = ctx.vmalloc(8, 64);
    ctx.store(router.active_cell_, 0);
    router.version_cell_ = ctx.vmalloc(8, 64);
    ctx.store(router.version_cell_, 0);

    // Fresh persistent memory reads zero: the blank status table is
    // its own durable baseline.
    router.layout_.txn_status = ctx.pmalloc(options.max_txns * 8, 64);
    router.layout_.owner_table =
        ctx.pmalloc(options.partitions * 16, 64);
    for (std::uint64_t p = 0; p < options.partitions; ++p) {
        const std::uint64_t owner = p % options.shards;
        ctx.store(router.layout_.ownerAddr(p), owner);
        ctx.store(router.layout_.ownerAddr(p) + 8,
                  KvRouterLayout::ownerChecksum(p, owner));
    }
    ctx.persistBarrier(); // Owner table durable before any traffic.

    LogOptions log_options;
    log_options.capacity = options.group_log_capacity;
    // The group journal always uses the strand append idiom. The
    // non-strand path ends every append with a trailing epoch
    // barrier, which would order the commit record before the status
    // flip and the applies on its own — silently substituting for
    // the commit barrier the protocol is supposed to provide. The
    // strand idiom carries only a leading barrier (inter-record and
    // order_after deps), so the record-before-apply edge belongs to
    // commit()/migrate() alone, and omitting their barriers is an
    // observable bug rather than a masked one.
    log_options.use_strands = true;
    log_options.record_golden = options.store.record_golden;
    router.group_journal_ =
        PersistentLog::create(ctx, log_options, threads);
    router.layout_.group_journal = router.group_journal_.layout();

    KvOptions store_options = options.store;
    store_options.force_journal = true; // Txns stage through it.
    for (std::uint32_t s = 0; s < options.shards; ++s) {
        auto store = std::make_shared<KvStore>(KvStore::create(
            ctx, store_options, threads, router.seq_cell_));
        router.layout_.shard_layouts.push_back(store->layout());
        router.layout_.shard_journals.push_back(store->journalLayout());
        router.stores_.push_back(std::move(store));
    }

    router.published_seq_ =
        std::make_shared<std::atomic<std::uint64_t>>(0);
    router.txn_golden_ = std::make_shared<TxnGolden>();
    return router;
}

std::uint32_t
KvRouter::ownerShard(ThreadCtx &ctx, std::uint64_t partition) const
{
    const std::uint64_t owner =
        ctx.load(layout_.ownerAddr(partition));
    PERSIM_ASSERT(owner < layout_.shards,
                  "live owner table entries are always valid");
    return static_cast<std::uint32_t>(owner);
}

std::uint32_t
KvRouter::shardOf(ThreadCtx &ctx, std::uint64_t key) const
{
    return ownerShard(
        ctx, KvRouterLayout::partitionOf(key, layout_.partitions));
}

void
KvRouter::beginMutation(ThreadCtx &ctx)
{
    ctx.rmwFetchAdd(active_cell_, 1);
}

void
KvRouter::endMutation(ThreadCtx &ctx)
{
    // Version first, then the active count: a reader that saw
    // active == 0 on both sides of its reads with an unchanged
    // version cannot have overlapped any mutation.
    ctx.rmwFetchAdd(version_cell_, 1);
    ctx.rmwFetchAdd(active_cell_, static_cast<std::uint64_t>(-1));
}

KvStatus
KvRouter::put(ThreadCtx &ctx, std::size_t slot, std::uint64_t key,
              const void *value, std::uint64_t len)
{
    const std::uint64_t p =
        KvRouterLayout::partitionOf(key, layout_.partitions);
    while (true) {
        const std::uint32_t s = ownerShard(ctx, p);
        KvStore &store = *stores_[s];
        McsGuard guard(ctx, store.mcsLock(), store.qnode(slot));
        if (ownerShard(ctx, p) != s)
            continue; // A migration moved the partition; re-route.
        beginMutation(ctx);
        const KvStatus status =
            store.putLocked(ctx, slot, key, value, len);
        endMutation(ctx);
        if (status == KvStatus::Ok)
            published_seq_->fetch_add(1, std::memory_order_release);
        return status;
    }
}

KvStatus
KvRouter::erase(ThreadCtx &ctx, std::size_t slot, std::uint64_t key)
{
    const std::uint64_t p =
        KvRouterLayout::partitionOf(key, layout_.partitions);
    while (true) {
        const std::uint32_t s = ownerShard(ctx, p);
        KvStore &store = *stores_[s];
        McsGuard guard(ctx, store.mcsLock(), store.qnode(slot));
        if (ownerShard(ctx, p) != s)
            continue;
        beginMutation(ctx);
        const KvStatus status = store.eraseLocked(ctx, slot, key);
        endMutation(ctx);
        if (status == KvStatus::Ok)
            published_seq_->fetch_add(1, std::memory_order_release);
        return status;
    }
}

bool
KvRouter::get(ThreadCtx &ctx, std::uint64_t key,
              std::vector<std::uint8_t> &value) const
{
    // Migration keeps reads consistent lock-free: copies land in the
    // destination *before* the owner flip, and the source is scrubbed
    // only after it, so whichever owner this load observes has the
    // key.
    return stores_[shardOf(ctx, key)]->get(ctx, key, value);
}

KvTxnStatus
KvRouter::commit(ThreadCtx &ctx, std::size_t slot, const KvTxn &txn,
                 std::uint64_t *txn_id)
{
    if (txn.empty())
        return KvTxnStatus::Empty;
    for (const auto &[key, op] : txn.ops()) {
        PERSIM_REQUIRE(key != 0, "keys must be nonzero");
        if (!op.erase && (op.value.empty() ||
                          op.value.size() > layout_.max_value_bytes))
            return KvTxnStatus::ValueTooLarge;
    }

    while (true) {
        // Route every key, then lock the participant set in ascending
        // shard order (deadlock-free against other commits and
        // migrations, which take the same order).
        std::map<std::uint64_t, std::uint32_t> route;
        std::set<std::uint32_t> shard_set;
        for (const auto &[key, op] : txn.ops()) {
            const std::uint32_t s = shardOf(ctx, key);
            route[key] = s;
            shard_set.insert(s);
        }
        const std::vector<std::uint32_t> locked(shard_set.begin(),
                                                shard_set.end());
        for (std::uint32_t s : locked)
            stores_[s]->mcsLock().lock(ctx, stores_[s]->qnode(slot));

        // Holding a shard's lock pins every partition it owns (a
        // migration needs both locks), so a stable re-read means the
        // route stays valid for the whole commit.
        bool stable = true;
        for (const auto &[key, s] : route) {
            if (shardOf(ctx, key) != s) {
                stable = false;
                break;
            }
        }
        KvTxnStatus status = KvTxnStatus::Empty;
        if (stable)
            status = commitLocked(ctx, slot, txn, route, txn_id);
        for (auto it = locked.rbegin(); it != locked.rend(); ++it)
            stores_[*it]->mcsLock().unlock(ctx,
                                           stores_[*it]->qnode(slot));
        if (stable)
            return status;
    }
}

KvTxnStatus
KvRouter::commitLocked(ThreadCtx &ctx, std::size_t slot,
                       const KvTxn &txn,
                       const std::map<std::uint64_t, std::uint32_t>
                           &route,
                       std::uint64_t *txn_id)
{
    // Exact capacity pre-validation per participant shard: once the
    // first staged record is journaled, the commit can no longer
    // fail, so every rejection must happen here, before any
    // persistent store.
    std::map<std::uint32_t, std::vector<std::uint64_t>> by_shard;
    for (const auto &[key, s] : route)
        by_shard[s].push_back(key);
    std::vector<std::uint8_t> scratch;
    for (const auto &[s, keys] : by_shard) {
        KvStore &store = *stores_[s];
        std::uint64_t new_inserts = 0, heap_need = 0, journal_need = 0;
        for (std::uint64_t key : keys) {
            const KvTxn::Op &op = txn.ops().at(key);
            journal_need +=
                LogLayout::recordBytes(32 + op.value.size());
            if (op.erase)
                continue;
            std::uint64_t seq = 0;
            const bool present =
                store.getWithSeq(ctx, key, scratch, seq);
            if (!present)
                ++new_inserts;
            const bool in_place =
                present && scratch.size() == op.value.size() &&
                store.options().strategy != KvUpdateStrategy::Cow;
            if (!in_place)
                heap_need += alignUp(op.value.size(), 8);
        }
        if (store.liveCount(ctx) + new_inserts >
            store.layout().buckets)
            return KvTxnStatus::TableFull;
        if (store.heapUsed(ctx) + heap_need >
            store.layout().heap_bytes)
            return KvTxnStatus::HeapFull;
        if (store.journalTail(ctx) + journal_need >
            store.journalLayout().capacity)
            return KvTxnStatus::LogFull;
    }
    const std::uint64_t commit_bytes =
        LogLayout::recordBytes(32 + 16 * txn.size());
    if (group_journal_.tailOffset(ctx) + commit_bytes >
        layout_.group_journal.capacity)
        return KvTxnStatus::LogFull;

    const std::uint64_t id = ctx.rmwFetchAdd(txn_id_cell_, 1);
    if (id >= layout_.max_txns)
        return KvTxnStatus::TooManyTxns;

    beginMutation(ctx);
    const std::uint64_t seq = ctx.rmwFetchAdd(seq_cell_, 1);
    ctx.store(layout_.statusAddr(id),
              KvRouterLayout::statusWord(
                  id, KvRouterLayout::status_pending));

    // Stage every mutation in its shard's journal. The staged records
    // are not redo authority yet — per-shard recovery skips txn
    // records whose commit record is not durable.
    std::vector<KvTxnParticipant> participants;
    std::vector<Addr> staged_words;
    for (const auto &[key, s] : route) {
        const KvTxn::Op &op = txn.ops().at(key);
        KvJournalRecord record;
        record.kind = op.erase ? KvJournalRecord::kind_erase
                               : KvJournalRecord::kind_put;
        record.key = key;
        record.seq = seq;
        record.txn = id;
        record.value = op.value;
        std::uint64_t lsn = 0;
        const bool staged =
            stores_[s]->journalStaged(ctx, slot, record, lsn);
        PERSIM_ASSERT(staged, "journal capacity was pre-validated");
        participants.push_back({s, lsn});
        staged_words.push_back(layout_.shard_journals[s].base + lsn);
    }

    // The commit record: the durable commit point. Ordered after every
    // staged record via conflict re-reads (strand persistency orders
    // across strands only through conflicts).
    KvTxnRecord commit_record;
    commit_record.kind = KvTxnRecord::kind_commit;
    commit_record.txn = id;
    commit_record.seq = seq;
    commit_record.participants = participants;
    const std::vector<std::uint8_t> payload = commit_record.encode();
    group_journal_.append(ctx, slot, payload.data(), payload.size(),
                          staged_words);

    // Record durable before publication, publication before the table
    // applications — the two barriers the mutant omits.
    if (!options_.omit_commit_barrier)
        ctx.persistBarrier();
    ctx.rmwCas(layout_.statusAddr(id),
               KvRouterLayout::statusWord(
                   id, KvRouterLayout::status_pending),
               KvRouterLayout::statusWord(
                   id, KvRouterLayout::status_committed));
    if (!options_.omit_commit_barrier)
        ctx.persistBarrier();

    // Apply on the same strand, so the applies stay ordered after the
    // flip (and transitively after the commit record).
    for (const auto &[key, s] : route) {
        const KvTxn::Op &op = txn.ops().at(key);
        if (op.erase)
            stores_[s]->applyCommittedErase(ctx, key, seq);
        else
            stores_[s]->applyCommitted(ctx, key, op.value.data(),
                                       op.value.size(), seq);
    }

    if (options_.store.record_golden) {
        std::lock_guard<std::mutex> guard(txn_golden_->mutex);
        KvTxnGolden golden;
        golden.txn = id;
        golden.seq = seq;
        golden.ops = txn.ops();
        txn_golden_->txns.push_back(std::move(golden));
    }

    endMutation(ctx);
    published_seq_->fetch_add(1, std::memory_order_release);
    if (txn_id != nullptr)
        *txn_id = id;
    return KvTxnStatus::Committed;
}

bool
KvRouter::multiGet(ThreadCtx &ctx,
                   const std::vector<std::uint64_t> &keys,
                   std::map<std::uint64_t,
                            std::vector<std::uint8_t>> &out,
                   std::uint64_t &snapshot_seq,
                   unsigned max_retries) const
{
    std::vector<std::uint8_t> value;
    for (unsigned attempt = 0; attempt < max_retries; ++attempt) {
        const std::uint64_t version = ctx.load(version_cell_);
        if (ctx.load(active_cell_) != 0)
            continue; // A writer is inside its mutation window.
        // Pin the snapshot: it contains exactly the mutations whose
        // seq draw preceded this read (any mutation overlapping our
        // reads would trip the recheck below).
        const std::uint64_t pinned = ctx.load(seq_cell_);
        out.clear();
        for (std::uint64_t key : keys) {
            if (stores_[shardOf(ctx, key)]->get(ctx, key, value))
                out[key] = value;
        }
        if (ctx.load(active_cell_) != 0 ||
            ctx.load(version_cell_) != version)
            continue;
        snapshot_seq = pinned;
        return true;
    }
    return false;
}

KvMigrateStatus
KvRouter::migrate(ThreadCtx &ctx, std::size_t slot,
                  std::uint32_t partition, std::uint32_t to_shard)
{
    PERSIM_REQUIRE(partition < layout_.partitions, "bad partition");
    PERSIM_REQUIRE(to_shard < layout_.shards, "bad target shard");

    while (true) {
        const std::uint32_t from = ownerShard(ctx, partition);
        if (from == to_shard)
            return KvMigrateStatus::NoOp;
        const std::uint32_t lo = std::min(from, to_shard);
        const std::uint32_t hi = std::max(from, to_shard);
        McsGuard lo_guard(ctx, stores_[lo]->mcsLock(),
                          stores_[lo]->qnode(slot));
        McsGuard hi_guard(ctx, stores_[hi]->mcsLock(),
                          stores_[hi]->qnode(slot));
        if (ownerShard(ctx, partition) != from)
            continue; // Raced another migration; re-evaluate.

        KvStore &src = *stores_[from];
        KvStore &dst = *stores_[to_shard];

        // Collect the partition's live keys from the source table.
        std::vector<std::uint64_t> keys;
        const KvLayout &src_layout = layout_.shard_layouts[from];
        for (std::uint64_t i = 0; i < src_layout.buckets; ++i) {
            const Addr bucket = src_layout.bucketAddr(i);
            if (ctx.load(bucket + KvLayout::state_off) !=
                KvLayout::state_live)
                continue;
            const std::uint64_t key =
                ctx.load(bucket + KvLayout::key_off);
            if (KvRouterLayout::partitionOf(
                    key, layout_.partitions) == partition)
                keys.push_back(key);
        }
        std::sort(keys.begin(), keys.end());

        struct Copy
        {
            std::uint64_t key = 0;
            std::uint64_t seq = 0;
            std::vector<std::uint8_t> value;
        };
        std::vector<Copy> copies;
        std::uint64_t heap_need = 0, journal_need = 0;
        for (std::uint64_t key : keys) {
            Copy copy;
            copy.key = key;
            const bool found =
                src.getWithSeq(ctx, key, copy.value, copy.seq);
            PERSIM_ASSERT(found, "key was live under the lock");
            heap_need += alignUp(copy.value.size(), 8);
            journal_need +=
                LogLayout::recordBytes(32 + copy.value.size());
            copies.push_back(std::move(copy));
        }
        if (dst.liveCount(ctx) + copies.size() >
            layout_.shard_layouts[to_shard].buckets)
            return KvMigrateStatus::TableFull;
        if (dst.heapUsed(ctx) + heap_need >
            layout_.shard_layouts[to_shard].heap_bytes)
            return KvMigrateStatus::HeapFull;
        if (dst.journalTail(ctx) + journal_need >
            layout_.shard_journals[to_shard].capacity)
            return KvMigrateStatus::LogFull;
        // One erase record per scrubbed source key (see KvStore::scrub).
        if (src.journalTail(ctx) +
                copies.size() * LogLayout::recordBytes(32) >
            layout_.shard_journals[from].capacity)
            return KvMigrateStatus::LogFull;
        if (group_journal_.tailOffset(ctx) +
                2 * LogLayout::recordBytes(48) >
            layout_.group_journal.capacity)
            return KvMigrateStatus::LogFull;

        beginMutation(ctx);
        const std::uint64_t id = ctx.rmwFetchAdd(txn_id_cell_, 1);

        KvTxnRecord begin;
        begin.kind = KvTxnRecord::kind_migrate_begin;
        begin.txn = id;
        begin.partition = partition;
        begin.from_shard = from;
        begin.to_shard = to_shard;
        begin.moved_keys = copies.size();
        const std::vector<std::uint8_t> begin_payload = begin.encode();
        group_journal_.append(ctx, slot, begin_payload.data(),
                              begin_payload.size());

        // Copy each key into the destination, preserving (seq, value):
        // journal the copy (redo authority once the end record is
        // durable), apply it, and remember the words the end record
        // must order after.
        std::vector<Addr> copied_words;
        for (const Copy &copy : copies) {
            KvJournalRecord record;
            record.kind = KvJournalRecord::kind_put;
            record.key = copy.key;
            record.seq = copy.seq;
            record.txn = id;
            record.value = copy.value;
            std::uint64_t lsn = 0;
            const bool staged =
                dst.journalStaged(ctx, slot, record, lsn);
            PERSIM_ASSERT(staged,
                          "journal capacity was pre-validated");
            copied_words.push_back(
                layout_.shard_journals[to_shard].base + lsn);
            dst.applyCommitted(ctx, copy.key, copy.value.data(),
                               copy.value.size(), copy.seq);
            const Addr entry = dst.entryAddr(ctx, copy.key);
            PERSIM_ASSERT(entry != invalid_addr,
                          "the copy was just applied");
            copied_words.push_back(entry + KvLayout::state_off);
        }

        // End record after every copy (records AND table state), then
        // barrier, then the owner flip, then barrier, then the source
        // scrub: a crash cut anywhere resolves to exactly one owner
        // that has every key.
        KvTxnRecord end = begin;
        end.kind = KvTxnRecord::kind_migrate_end;
        const std::vector<std::uint8_t> end_payload = end.encode();
        group_journal_.append(ctx, slot, end_payload.data(),
                              end_payload.size(), copied_words);
        ctx.persistBarrier();

        const Addr owner_addr = layout_.ownerAddr(partition);
        ctx.rmwCas(owner_addr, from, to_shard);
        ctx.store(owner_addr + 8,
                  KvRouterLayout::ownerChecksum(partition, to_shard));
        ctx.persistBarrier();

        const std::vector<Addr> after_flip{owner_addr, owner_addr + 8};
        for (const Copy &copy : copies)
            src.scrub(ctx, slot, copy.key, copy.seq, id, after_flip);

        endMutation(ctx);
        published_seq_->fetch_add(1, std::memory_order_release);
        return KvMigrateStatus::Ok;
    }
}

std::shared_ptr<const KvGoldenHistory>
KvRouter::goldenHistory() const
{
    auto merged = std::make_shared<KvGoldenHistory>();
    for (const auto &store : stores_) {
        for (auto &[key, versions] : store->goldenHistory()) {
            auto &dst = (*merged)[key];
            dst.insert(dst.end(), versions.begin(), versions.end());
        }
    }
    return merged;
}

std::shared_ptr<const KvTxnGoldenList>
KvRouter::txnGolden() const
{
    PERSIM_REQUIRE(txn_golden_ != nullptr, "router was not created");
    std::lock_guard<std::mutex> guard(txn_golden_->mutex);
    return std::make_shared<const KvTxnGoldenList>(txn_golden_->txns);
}

namespace {

/** One staged (txn != 0) record found in a shard journal prefix. */
struct StagedRecord
{
    std::uint32_t shard = 0;
    std::uint64_t lsn = 0;
    std::uint64_t key = 0;
    std::uint64_t seq = 0;
    std::uint64_t txn = 0;
};

} // namespace

KvGroupRecovery
recoverKvRouter(const MemoryImage &image, const KvRouterLayout &layout,
                const KvGroupRecoveryOptions &options)
{
    KvGroupRecovery rec;
    rec.mode = options.mode;

    // --- 1. Group journal: commit + migration records. ------------
    std::map<std::uint64_t, KvTxnRecord> commit_records;
    struct MigrationEnd
    {
        std::uint32_t to_shard = 0;
        std::uint64_t moved_keys = 0;
    };
    std::map<std::uint64_t, MigrationEnd> migration_ends;
    // Last migration record per partition, for owner fallback.
    std::map<std::uint64_t, std::uint32_t> owner_fallback;
    const LogRecovery group_log =
        PersistentLog::recover(image, layout.group_journal);
    for (const RecoveredRecord &raw : group_log.records) {
        KvTxnRecord record;
        if (!KvTxnRecord::decode(raw.payload, record))
            break; // Truncate-at-first-bad, like the scan itself.
        ++rec.txn_records;
        if (record.kind == KvTxnRecord::kind_commit) {
            bool sane = true;
            for (const KvTxnParticipant &part : record.participants)
                sane = sane && part.shard < layout.shards;
            if (!sane) {
                rec.txns[record.txn].faulted = true;
                ++rec.txn_lost;
                continue;
            }
            commit_records[record.txn] = record;
            rec.committed.insert(record.txn);
            rec.txns[record.txn].committed = true;
            continue;
        }
        if (record.partition >= layout.partitions ||
            record.from_shard >= layout.shards ||
            record.to_shard >= layout.shards)
            continue; // Checksummed but not for this layout: ignore.
        if (record.kind == KvTxnRecord::kind_migrate_begin) {
            // Begin durable, end not (yet): the flip cannot be
            // durable either, so the source still owns it.
            owner_fallback[record.partition] =
                static_cast<std::uint32_t>(record.from_shard);
        } else {
            owner_fallback[record.partition] =
                static_cast<std::uint32_t>(record.to_shard);
            migration_ends[record.txn] = {
                static_cast<std::uint32_t>(record.to_shard),
                record.moved_keys};
            rec.committed.insert(record.txn);
            rec.txns[record.txn].committed = true;
        }
    }

    // --- 2. Owner resolution: exactly one owner per partition. -----
    rec.owners.resize(layout.partitions, 0);
    for (std::uint64_t p = 0; p < layout.partitions; ++p) {
        const std::uint64_t word =
            image.load(layout.ownerAddr(p), 8);
        const std::uint64_t stored =
            image.load(layout.ownerAddr(p) + 8, 8);
        if (word < layout.shards &&
            stored == KvRouterLayout::ownerChecksum(p, word)) {
            rec.owners[p] = static_cast<std::uint32_t>(word);
            continue;
        }
        ++rec.owner_faults;
        auto fallback = owner_fallback.find(p);
        rec.owners[p] = fallback != owner_fallback.end()
                            ? fallback->second
                            : static_cast<std::uint32_t>(
                                  p % layout.shards);
    }

    // --- 3. Status table: in-doubt detection. ----------------------
    for (std::uint64_t t = 1; t < layout.max_txns; ++t) {
        const std::uint64_t word = image.load(layout.statusAddr(t), 8);
        if (word == 0)
            continue; // Never written.
        const std::uint64_t state = word & 3;
        if (word >> 2 != t ||
            (state != KvRouterLayout::status_pending &&
             state != KvRouterLayout::status_committed)) {
            ++rec.status_faults;
            continue;
        }
        if (state == KvRouterLayout::status_committed &&
            rec.committed.count(t) == 0) {
            // The volatile publication point persisted but the commit
            // record did not: in doubt. The record is the authority —
            // the transaction rolls back — but the conflict is
            // counted, never silent.
            ++rec.in_doubt;
            rec.txns[t].faulted = true;
        }
    }

    // --- 4. Per-shard recovery ladder with the committed set. ------
    const KvRecoveryMode shard_mode =
        options.mode == KvRecoveryMode::TxnResolve
            ? KvRecoveryMode::Repair
            : options.mode;
    for (std::uint32_t s = 0; s < layout.shards; ++s) {
        KvRecoveryOptions shard_options;
        shard_options.mode = shard_mode;
        shard_options.journal = layout.shard_journals[s];
        shard_options.repair_budget = options.repair_budget;
        shard_options.committed_txns = &rec.committed;
        rec.shards.push_back(recoverKvStore(
            image, layout.shard_layouts[s], shard_options));
    }

    // --- 5. Staged-record evidence from the shard journal prefixes. -
    std::vector<std::map<std::uint64_t, KvJournalRecord>> by_lsn(
        layout.shards);
    std::vector<StagedRecord> staged;
    for (std::uint32_t s = 0; s < layout.shards; ++s) {
        const LogRecovery shard_log =
            PersistentLog::recover(image, layout.shard_journals[s]);
        for (const RecoveredRecord &raw : shard_log.records) {
            KvJournalRecord record;
            if (!KvJournalRecord::decode(raw.payload, record))
                break;
            if (record.value.size() > layout.max_value_bytes)
                break;
            if (record.txn != 0) {
                rec.txns[record.txn]; // Seen.
                // Only a staged put leaves (key, seq) evidence in a
                // table; an erase (a txn's or a migration scrub's)
                // leaves nothing for step 7 to roll back.
                if (record.kind == KvJournalRecord::kind_put)
                    staged.push_back({s, raw.offset, record.key,
                                      record.seq, record.txn});
            }
            by_lsn[s].emplace(raw.offset, std::move(record));
        }
    }

    // --- 6. Committed evidence validation. --------------------------
    // A committed transaction whose staged records are not all inside
    // their journals' valid prefixes cannot be fully rolled forward:
    // detected loss, atomicity claims suspended.
    for (const auto &[t, record] : commit_records) {
        for (const KvTxnParticipant &part : record.participants) {
            auto it = by_lsn[part.shard].find(part.lsn);
            if (it == by_lsn[part.shard].end() ||
                it->second.txn != t) {
                ++rec.txn_lost;
                rec.txns[t].faulted = true;
            }
        }
    }
    for (const auto &[m, end] : migration_ends) {
        std::uint64_t found = 0;
        for (const auto &[lsn, record] : by_lsn[end.to_shard])
            if (record.txn == m)
                ++found;
        if (found < end.moved_keys) {
            ++rec.txn_lost;
            rec.txns[m].faulted = true;
        }
    }

    // --- 7. Uncommitted scrub (TxnResolve only). --------------------
    // A staged-but-uncommitted mutation that reached the table (the
    // crash landed between application-ordering violations or, for an
    // in-doubt transaction, after its applies) is rolled back: the
    // (key, seq) pair is unique to the staged mutation, so the match
    // is exact. Under Repair the partial state is left in place —
    // that is the tier the differential battery uses to expose the
    // no-commit-barrier mutant.
    if (options.mode == KvRecoveryMode::TxnResolve) {
        for (const StagedRecord &st : staged) {
            if (rec.committed.count(st.txn) != 0)
                continue;
            auto &entries = rec.shards[st.shard].entries;
            auto it = entries.find(st.key);
            if (it != entries.end() && it->second.seq == st.seq) {
                entries.erase(it);
                ++rec.txn_partial;
                rec.txns[st.txn].faulted = true;
            }
        }
    }

    // --- 8. Served state: owner-filtered union. ---------------------
    for (std::uint32_t s = 0; s < layout.shards; ++s) {
        for (const auto &[key, entry] : rec.shards[s].entries) {
            const std::uint64_t p =
                KvRouterLayout::partitionOf(key, layout.partitions);
            if (rec.owners[p] == s)
                rec.entries.emplace(key, entry);
            else
                ++rec.stale_copies; // Scrub the crash interrupted.
        }
    }

    if (options.mode == KvRecoveryMode::Strict) {
        rec.ok = !rec.anyTxnFaults();
        for (const KvRecovery &shard : rec.shards) {
            if (!shard.ok) {
                rec.ok = false;
                if (rec.error.empty())
                    rec.error = shard.error;
            }
        }
        if (!rec.ok && rec.error.empty()) {
            std::ostringstream oss;
            oss << "transaction faults: " << rec.in_doubt
                << " in doubt, " << rec.txn_lost << " lost, "
                << rec.txn_partial << " partial, " << rec.owner_faults
                << " owner, " << rec.status_faults << " status";
            rec.error = oss.str();
        }
    } else {
        rec.ok = true;
    }
    return rec;
}

namespace {

/** Does @p golden record an erase of @p key after @p seq? */
bool
laterGoldenErase(const KvGoldenHistory &golden, std::uint64_t key,
                 std::uint64_t seq)
{
    auto history = golden.find(key);
    if (history == golden.end())
        return false;
    for (const KvGoldenVersion &version : history->second)
        if (version.erased && version.seq > seq)
            return true;
    return false;
}

} // namespace

std::function<std::string(const MemoryImage &)>
makeKvRouterInvariant(const KvRouterLayout &layout,
                      std::shared_ptr<const KvGoldenHistory> golden,
                      std::shared_ptr<const KvTxnGoldenList> txn_golden,
                      const KvGroupRecoveryOptions &options,
                      std::shared_ptr<KvRouterInvariantStats> stats)
{
    return [layout, golden = std::move(golden),
            txn_golden = std::move(txn_golden), options,
            stats = std::move(stats)](const MemoryImage &image) {
        const KvGroupRecovery rec =
            recoverKvRouter(image, layout, options);
        bool budget_exhausted = false;
        for (const KvRecovery &shard : rec.shards)
            budget_exhausted |= shard.budget_exhausted;
        if (stats) {
            stats->shard.images.fetch_add(1,
                                          std::memory_order_relaxed);
            for (const KvRecovery &shard : rec.shards) {
                stats->shard.quarantined.fetch_add(
                    shard.faults.size(), std::memory_order_relaxed);
                stats->shard.repaired.fetch_add(
                    shard.repaired, std::memory_order_relaxed);
                stats->shard.discarded.fetch_add(
                    shard.discarded, std::memory_order_relaxed);
                for (const BucketFault &fault : shard.faults)
                    stats->shard
                        .by_cause[static_cast<std::size_t>(fault.kind)]
                        .fetch_add(1, std::memory_order_relaxed);
            }
            stats->in_doubt.fetch_add(rec.in_doubt,
                                      std::memory_order_relaxed);
            stats->txn_partial.fetch_add(rec.txn_partial,
                                         std::memory_order_relaxed);
            stats->txn_lost.fetch_add(rec.txn_lost,
                                      std::memory_order_relaxed);
            stats->owner_faults.fetch_add(rec.owner_faults,
                                          std::memory_order_relaxed);
            stats->stale_copies.fetch_add(rec.stale_copies,
                                          std::memory_order_relaxed);
        }
        if (!rec.ok)
            return "strict group recovery failed: " + rec.error;

        // Silent value corruption: every served (seq, value) must be
        // a version some writer issued (single-key, staged txn, or
        // migration copy — all recorded at issue time).
        for (const auto &[key, entry] : rec.entries) {
            auto history = golden->find(key);
            if (history == golden->end()) {
                std::ostringstream oss;
                oss << "recovered key " << key << " was never written";
                return oss.str();
            }
            bool matches = false;
            for (const KvGoldenVersion &version : history->second) {
                if (version.seq == entry.seq && !version.erased &&
                    version.value == entry.value) {
                    matches = true;
                    break;
                }
            }
            if (!matches) {
                std::ostringstream oss;
                oss << "silent corruption: key " << key << " seq "
                    << entry.seq << " has a value no writer issued";
                return oss.str();
            }
        }

        // Atomicity: only meaningful for the repairing tiers, and
        // only from evidence that validated end to end — any detected
        // damage (lost participants, in-doubt flips, owner faults,
        // exhausted budgets) suspends the claim: counted, not silent.
        const bool repairing =
            options.mode == KvRecoveryMode::Repair ||
            options.mode == KvRecoveryMode::TxnResolve;
        const bool evidence_clean =
            !rec.anyTxnFaults() && !budget_exhausted;
        for (const KvTxnGolden &txn : *txn_golden) {
            auto resolution = rec.txns.find(txn.txn);
            if (resolution != rec.txns.end() &&
                resolution->second.faulted)
                continue;
            const bool committed = rec.committed.count(txn.txn) != 0;
            if (committed && repairing && evidence_clean) {
                // All: every op reflected at or after the commit seq.
                for (const auto &[key, op] : txn.ops) {
                    auto entry = rec.entries.find(key);
                    if (op.erase) {
                        if (entry != rec.entries.end() &&
                            entry->second.seq < txn.seq) {
                            std::ostringstream oss;
                            oss << "committed txn " << txn.txn
                                << " partially applied: key " << key
                                << " not erased at seq " << txn.seq;
                            return oss.str();
                        }
                        continue;
                    }
                    if (entry == rec.entries.end()) {
                        if (!laterGoldenErase(*golden, key, txn.seq)) {
                            std::ostringstream oss;
                            oss << "committed txn " << txn.txn
                                << " partially applied: key " << key
                                << " missing below seq " << txn.seq;
                            return oss.str();
                        }
                    } else if (entry->second.seq < txn.seq) {
                        std::ostringstream oss;
                        oss << "committed txn " << txn.txn
                            << " partially applied: key " << key
                            << " stuck at seq " << entry->second.seq;
                        return oss.str();
                    }
                }
            } else if (!committed &&
                       options.mode == KvRecoveryMode::Repair) {
                // Nothing — or at least not *some*: partial
                // visibility of an uncommitted transaction at its
                // commit seq means the applies outran the commit
                // record, which the hardened barriers make
                // impossible. The no-commit-barrier mutant lands
                // exactly here.
                std::size_t visible = 0, checkable = 0;
                for (const auto &[key, op] : txn.ops) {
                    if (op.erase)
                        continue; // Absence is indistinguishable.
                    ++checkable;
                    auto entry = rec.entries.find(key);
                    if (entry != rec.entries.end() &&
                        entry->second.seq == txn.seq)
                        ++visible;
                }
                if (visible != 0 && visible != checkable) {
                    std::ostringstream oss;
                    oss << "uncommitted txn " << txn.txn
                        << " partially visible at seq " << txn.seq
                        << " (" << visible << "/" << checkable
                        << " puts applied, no commit record)";
                    return oss.str();
                }
            }
        }
        return std::string();
    };
}

} // namespace persim
