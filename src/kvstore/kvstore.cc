#include "kvstore/kvstore.hh"

#include <cstring>

#include "common/bitops.hh"
#include "common/error.hh"

namespace persim {

const char *
kvUpdateStrategyName(KvUpdateStrategy strategy)
{
    switch (strategy) {
      case KvUpdateStrategy::InPlace:
        return "in_place";
      case KvUpdateStrategy::Cow:
        return "cow";
      case KvUpdateStrategy::LogStructured:
        return "log_structured";
    }
    return "unknown";
}

bool
kvUpdateStrategyByName(const std::string &name,
                       KvUpdateStrategy &strategy)
{
    for (KvUpdateStrategy s : {KvUpdateStrategy::InPlace,
                               KvUpdateStrategy::Cow,
                               KvUpdateStrategy::LogStructured}) {
        if (name == kvUpdateStrategyName(s)) {
            strategy = s;
            return true;
        }
    }
    return false;
}

const char *
kvStatusName(KvStatus status)
{
    switch (status) {
      case KvStatus::Ok:
        return "ok";
      case KvStatus::NotFound:
        return "not-found";
      case KvStatus::TableFull:
        return "table-full";
      case KvStatus::HeapFull:
        return "heap-full";
      case KvStatus::LogFull:
        return "log-full";
      case KvStatus::ValueTooLarge:
        return "value-too-large";
    }
    return "unknown";
}

std::uint64_t
KvLayout::checksum(std::uint64_t bucket_index, std::uint64_t key,
                   std::uint64_t val_off, std::uint64_t val_len,
                   std::uint64_t seq, const std::uint8_t *payload)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    auto mix = [&hash](std::uint64_t word) {
        for (int i = 0; i < 8; ++i) {
            hash ^= (word >> (8 * i)) & 0xff;
            hash *= 0x100000001b3ULL;
        }
    };
    mix(bucket_index);
    mix(key);
    mix(val_off);
    mix(val_len);
    mix(seq);
    for (std::uint64_t i = 0; i < val_len; ++i) {
        hash ^= payload[i];
        hash *= 0x100000001b3ULL;
    }
    // Zeroed memory must never validate.
    return hash == 0 ? 1 : hash;
}

std::vector<std::uint8_t>
KvJournalRecord::encode() const
{
    std::vector<std::uint8_t> payload(32 + value.size());
    auto word = [&payload](std::size_t off, std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            payload[off + i] = (v >> (8 * i)) & 0xff;
    };
    word(0, kind);
    word(8, key);
    word(16, seq);
    word(24, txn);
    if (!value.empty())
        std::memcpy(payload.data() + 32, value.data(), value.size());
    return payload;
}

bool
KvJournalRecord::decode(const std::vector<std::uint8_t> &payload,
                        KvJournalRecord &record)
{
    if (payload.size() < 32)
        return false;
    auto word = [&payload](std::size_t off) {
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(payload[off + i]) << (8 * i);
        return v;
    };
    record.kind = word(0);
    record.key = word(8);
    record.seq = word(16);
    record.txn = word(24);
    record.value.assign(payload.begin() + 32, payload.end());
    if (record.kind != kind_put && record.kind != kind_erase)
        return false;
    if (record.key == 0 || record.seq == 0)
        return false;
    if (record.kind == kind_erase && !record.value.empty())
        return false;
    if (record.kind == kind_put && record.value.empty())
        return false;
    return true;
}

std::uint64_t
KvStore::hashIndex(std::uint64_t key, std::uint64_t buckets)
{
    key ^= key >> 33;
    key *= 0xff51afd7ed558ccdULL;
    key ^= key >> 33;
    key *= 0xc4ceb9fe1a85ec53ULL;
    key ^= key >> 33;
    return key & (buckets - 1);
}

KvStore
KvStore::create(ThreadCtx &ctx, const KvOptions &options,
                std::size_t threads, Addr shared_seq_cell)
{
    PERSIM_REQUIRE(isPowerOfTwo(options.buckets) && options.buckets >= 2,
                   "bucket count must be a power of two >= 2");
    PERSIM_REQUIRE(options.heap_bytes >= 8 &&
                   options.heap_bytes % 8 == 0,
                   "heap bytes must be a multiple of 8, >= 8");
    PERSIM_REQUIRE(options.max_value_bytes >= 1 &&
                   options.max_value_bytes <= options.heap_bytes,
                   "max value bytes must fit the heap");
    PERSIM_REQUIRE(threads >= 1, "need at least one writer slot");

    KvStore store;
    store.options_ = options;
    store.layout_.buckets = options.buckets;
    store.layout_.table = ctx.pmalloc(
        options.buckets * KvLayout::bucket_bytes, 64);
    store.layout_.heap = ctx.pmalloc(options.heap_bytes, 64);
    store.layout_.heap_bytes = options.heap_bytes;
    store.layout_.max_value_bytes = options.max_value_bytes;
    // Fresh persistent memory reads zero (state_empty); make the
    // blank table the durable baseline.
    ctx.persistBarrier();

    if (options.strategy == KvUpdateStrategy::LogStructured ||
        options.force_journal) {
        LogOptions log_options;
        log_options.capacity = options.log_capacity;
        log_options.use_strands = options.use_strands;
        log_options.record_golden = options.record_golden;
        store.journal_ = PersistentLog::create(ctx, log_options, threads);
    }

    if (shared_seq_cell != invalid_addr) {
        // Group-shared cell: the router initialized it (to 1) once.
        store.seq_cell_ = shared_seq_cell;
    } else {
        store.seq_cell_ = ctx.vmalloc(8, 64);
        ctx.store(store.seq_cell_, 1); // Seq 0 means "never written".
    }
    store.heap_cell_ = ctx.vmalloc(8, 64);
    ctx.store(store.heap_cell_, 0);
    store.live_cell_ = ctx.vmalloc(8, 64);
    ctx.store(store.live_cell_, 0);
    store.lock_ = McsLock::create(ctx);
    for (std::size_t i = 0; i < threads; ++i)
        store.qnodes_.push_back(McsLock::createQnode(ctx));
    store.golden_ = std::make_shared<Golden>();
    return store;
}

bool
KvStore::heapAlloc(ThreadCtx &ctx, std::uint64_t bytes,
                   std::uint64_t &offset)
{
    const std::uint64_t aligned = alignUp(bytes, 8);
    const std::uint64_t cursor = ctx.load(heap_cell_);
    if (cursor + aligned > layout_.heap_bytes)
        return false;
    ctx.store(heap_cell_, cursor + aligned);
    offset = cursor;
    return true;
}

bool
KvStore::journalAppend(ThreadCtx &ctx, std::size_t slot,
                       const KvJournalRecord &record)
{
    const std::vector<std::uint8_t> payload = record.encode();
    const std::uint64_t bytes =
        LogLayout::recordBytes(payload.size());
    if (journal_.tailOffset(ctx) + bytes > journalLayout().capacity)
        return false;
    journal_.append(ctx, slot, payload.data(), payload.size());
    return true;
}

void
KvStore::recordGolden(std::uint64_t key, std::uint64_t seq, bool erased,
                      const std::uint8_t *value, std::uint64_t len)
{
    if (!options_.record_golden)
        return;
    std::lock_guard<std::mutex> guard(golden_->mutex);
    KvGoldenVersion version;
    version.seq = seq;
    version.erased = erased;
    if (!erased)
        version.value.assign(value, value + len);
    golden_->history[key].push_back(std::move(version));
}

KvGoldenHistory
KvStore::goldenHistory() const
{
    PERSIM_REQUIRE(golden_ != nullptr, "store was not created");
    std::lock_guard<std::mutex> guard(golden_->mutex);
    return golden_->history;
}

std::uint64_t
KvStore::drawSeq(ThreadCtx &ctx)
{
    // Atomic fetch-add: with a group-shared cell, shard workers and
    // snapshot readers race on this word, and a load/store pair would
    // hand two mutations the same seq.
    return ctx.rmwFetchAdd(seq_cell_, 1);
}

void
KvStore::probe(ThreadCtx &ctx, std::uint64_t key,
               std::uint64_t &found_at, std::uint64_t &insert_at) const
{
    // Probe for the key or the first dead bucket.
    const std::uint64_t buckets = layout_.buckets;
    std::uint64_t index = hashIndex(key, buckets);
    found_at = buckets;
    insert_at = buckets;
    for (std::uint64_t step = 0; step < buckets; ++step) {
        const Addr bucket = layout_.bucketAddr(index);
        const std::uint64_t state =
            ctx.load(bucket + KvLayout::state_off);
        if (state == KvLayout::state_live) {
            if (ctx.load(bucket + KvLayout::key_off) == key) {
                found_at = index;
                break;
            }
        } else {
            if (insert_at == buckets)
                insert_at = index;
            if (state == KvLayout::state_empty)
                break; // Key cannot be live past an empty bucket.
        }
        index = (index + 1) & (buckets - 1);
    }
}

KvStatus
KvStore::writeEntry(ThreadCtx &ctx, std::uint64_t key,
                    const std::uint8_t *bytes_in, std::uint64_t len,
                    std::uint64_t seq, std::uint64_t found_at,
                    std::uint64_t insert_at)
{
    const std::uint64_t buckets = layout_.buckets;
    const bool update = found_at != buckets;
    if (!update && insert_at == buckets)
        return KvStatus::TableFull;

    const Addr bucket =
        layout_.bucketAddr(update ? found_at : insert_at);
    const std::uint64_t bucket_index = update ? found_at : insert_at;

    // Reuse the payload region only for a same-length in-place
    // update; everything else allocates.
    std::uint64_t old_off = 0, old_len = 0;
    if (update) {
        old_off = ctx.load(bucket + KvLayout::val_off_off);
        old_len = ctx.load(bucket + KvLayout::val_len_off);
    }
    const bool in_place =
        update && old_len == len &&
        options_.strategy != KvUpdateStrategy::Cow;

    PBuffer heap(layout_.heap, layout_.heap_bytes);
    if (in_place) {
        // In-place update: overwrite the payload, then re-publish
        // seq+checksum. A crash anywhere in this window leaves a
        // checksum mismatch — detected, never silent — but the old
        // value is gone (the journal can rebuild it).
        heap.write(ctx, old_off, bytes_in, len);
        ctx.store(bucket + KvLayout::seq_off, seq);
        if (!options_.omit_publish_barrier)
            ctx.persistBarrier();
        ctx.store(bucket + KvLayout::cksum_off,
                  KvLayout::checksum(bucket_index, key, old_off, len,
                                     seq, bytes_in));
        return KvStatus::Ok;
    }

    std::uint64_t val_off = 0;
    if (!heapAlloc(ctx, len, val_off))
        return KvStatus::HeapFull;
    heap.write(ctx, val_off, bytes_in, len);

    if (update) {
        // CoW update: the new payload is complete (barrier), then the
        // bucket's reference words swing to it. The quarantine window
        // shrinks to the four word stores below; any crash before
        // them leaves the old value intact and valid.
        if (!options_.omit_publish_barrier)
            ctx.persistBarrier();
        ctx.store(bucket + KvLayout::val_off_off, val_off);
        ctx.store(bucket + KvLayout::val_len_off, len);
        ctx.store(bucket + KvLayout::seq_off, seq);
        ctx.store(bucket + KvLayout::cksum_off,
                  KvLayout::checksum(bucket_index, key, val_off, len,
                                     seq, bytes_in));
    } else {
        // Insert: fill the (empty or tombstone) bucket, barrier, then
        // publish by flipping the state word — crash-atomic. A crash
        // mid-fill of a reused tombstone leaves a tombstone whose
        // dead words changed: harmless, recovery ignores them.
        ctx.store(bucket + KvLayout::key_off, key);
        ctx.store(bucket + KvLayout::val_off_off, val_off);
        ctx.store(bucket + KvLayout::val_len_off, len);
        ctx.store(bucket + KvLayout::seq_off, seq);
        ctx.store(bucket + KvLayout::cksum_off,
                  KvLayout::checksum(bucket_index, key, val_off, len,
                                     seq, bytes_in));
        if (!options_.omit_publish_barrier)
            ctx.persistBarrier();
        ctx.store(bucket + KvLayout::state_off, KvLayout::state_live);
        ctx.rmwFetchAdd(live_cell_, 1);
    }
    return KvStatus::Ok;
}

KvStatus
KvStore::put(ThreadCtx &ctx, std::size_t slot, std::uint64_t key,
             const void *value, std::uint64_t len)
{
    PERSIM_REQUIRE(slot < qnodes_.size(), "bad writer slot");
    McsGuard guard(ctx, lock_, qnodes_[slot]);
    return putLocked(ctx, slot, key, value, len);
}

KvStatus
KvStore::putLocked(ThreadCtx &ctx, std::size_t slot, std::uint64_t key,
                   const void *value, std::uint64_t len)
{
    PERSIM_REQUIRE(key != 0, "keys must be nonzero");
    PERSIM_REQUIRE(slot < qnodes_.size(), "bad writer slot");
    PERSIM_REQUIRE(len >= 1, "values must be nonempty");
    if (len > options_.max_value_bytes)
        return KvStatus::ValueTooLarge;

    if (options_.use_strands)
        ctx.newStrand();

    std::uint64_t found_at = 0, insert_at = 0;
    probe(ctx, key, found_at, insert_at);
    const bool update = found_at != layout_.buckets;
    if (!update && insert_at == layout_.buckets)
        return KvStatus::TableFull;

    // All capacity rejections happen before any persistent store: a
    // rejected put leaves no trace in persistent memory or the
    // journal. (A seq can still be consumed on LogFull — gaps are
    // fine, the journal scan only requires monotonicity.)
    std::uint64_t old_len = 0;
    if (update) {
        const Addr bucket = layout_.bucketAddr(found_at);
        old_len = ctx.load(bucket + KvLayout::val_len_off);
    }
    const bool in_place =
        update && old_len == len &&
        options_.strategy != KvUpdateStrategy::Cow;
    if (!in_place &&
        ctx.load(heap_cell_) + alignUp(len, 8) > layout_.heap_bytes)
        return KvStatus::HeapFull;

    const auto *bytes_in = static_cast<const std::uint8_t *>(value);
    const std::uint64_t seq = drawSeq(ctx);
    if (options_.strategy == KvUpdateStrategy::LogStructured) {
        KvJournalRecord record;
        record.kind = KvJournalRecord::kind_put;
        record.key = key;
        record.seq = seq;
        record.value.assign(bytes_in, bytes_in + len);
        if (!journalAppend(ctx, slot, record))
            return KvStatus::LogFull;
    }

    const KvStatus status =
        writeEntry(ctx, key, bytes_in, len, seq, found_at, insert_at);
    PERSIM_ASSERT(status == KvStatus::Ok,
                  "capacity was pre-checked under the lock");
    recordGolden(key, seq, false, bytes_in, len);
    return status;
}

KvStatus
KvStore::erase(ThreadCtx &ctx, std::size_t slot, std::uint64_t key)
{
    PERSIM_REQUIRE(slot < qnodes_.size(), "bad writer slot");
    McsGuard guard(ctx, lock_, qnodes_[slot]);
    return eraseLocked(ctx, slot, key);
}

KvStatus
KvStore::eraseLocked(ThreadCtx &ctx, std::size_t slot, std::uint64_t key)
{
    PERSIM_REQUIRE(key != 0, "keys must be nonzero");
    PERSIM_REQUIRE(slot < qnodes_.size(), "bad writer slot");
    if (options_.use_strands)
        ctx.newStrand();

    const std::uint64_t buckets = layout_.buckets;
    std::uint64_t index = hashIndex(key, buckets);
    for (std::uint64_t probe = 0; probe < buckets; ++probe) {
        const Addr bucket = layout_.bucketAddr(index);
        const std::uint64_t state =
            ctx.load(bucket + KvLayout::state_off);
        if (state == KvLayout::state_empty)
            return KvStatus::NotFound;
        if (state == KvLayout::state_live &&
            ctx.load(bucket + KvLayout::key_off) == key) {
            const std::uint64_t seq = drawSeq(ctx);
            // Journal the erase whenever a journal exists (not just
            // LogStructured): the tombstone persist below carries no
            // seq, so without a record the Repair tier could replay
            // an older journaled put (a staged txn mutation) over a
            // later erase it cannot see.
            if (hasJournal()) {
                KvJournalRecord record;
                record.kind = KvJournalRecord::kind_erase;
                record.key = key;
                record.seq = seq;
                if (!journalAppend(ctx, slot, record))
                    return KvStatus::LogFull;
            }
            // A single atomic state persist: erase is crash-atomic
            // (strong persist atomicity orders same-address writes).
            // Recovery never checksums tombstones, so the stale live
            // words left behind are dead weight, not a fault.
            ctx.store(bucket + KvLayout::state_off,
                      KvLayout::state_tombstone);
            ctx.rmwFetchAdd(live_cell_,
                            static_cast<std::uint64_t>(-1));
            recordGolden(key, seq, true, nullptr, 0);
            return KvStatus::Ok;
        }
        index = (index + 1) & (buckets - 1);
    }
    return KvStatus::NotFound;
}

bool
KvStore::get(ThreadCtx &ctx, std::uint64_t key,
             std::vector<std::uint8_t> &value) const
{
    // Lock-free traced reads: a reader racing a writer can observe a
    // mid-update bucket, exactly as real code would; tests that
    // assert on values read without concurrent writers.
    const std::uint64_t buckets = layout_.buckets;
    std::uint64_t index = hashIndex(key, buckets);
    for (std::uint64_t probe = 0; probe < buckets; ++probe) {
        const Addr bucket = layout_.bucketAddr(index);
        const std::uint64_t state =
            ctx.load(bucket + KvLayout::state_off);
        if (state == KvLayout::state_empty)
            return false;
        if (state == KvLayout::state_live &&
            ctx.load(bucket + KvLayout::key_off) == key) {
            const std::uint64_t val_off =
                ctx.load(bucket + KvLayout::val_off_off);
            const std::uint64_t val_len =
                ctx.load(bucket + KvLayout::val_len_off);
            value.resize(val_len);
            PBuffer heap(layout_.heap, layout_.heap_bytes);
            heap.read(ctx, val_off, value.data(), val_len);
            return true;
        }
        index = (index + 1) & (buckets - 1);
    }
    return false;
}

bool
KvStore::getWithSeq(ThreadCtx &ctx, std::uint64_t key,
                    std::vector<std::uint8_t> &value,
                    std::uint64_t &seq) const
{
    const std::uint64_t buckets = layout_.buckets;
    std::uint64_t index = hashIndex(key, buckets);
    for (std::uint64_t step = 0; step < buckets; ++step) {
        const Addr bucket = layout_.bucketAddr(index);
        const std::uint64_t state =
            ctx.load(bucket + KvLayout::state_off);
        if (state == KvLayout::state_empty)
            return false;
        if (state == KvLayout::state_live &&
            ctx.load(bucket + KvLayout::key_off) == key) {
            const std::uint64_t val_off =
                ctx.load(bucket + KvLayout::val_off_off);
            const std::uint64_t val_len =
                ctx.load(bucket + KvLayout::val_len_off);
            seq = ctx.load(bucket + KvLayout::seq_off);
            value.resize(val_len);
            PBuffer heap(layout_.heap, layout_.heap_bytes);
            heap.read(ctx, val_off, value.data(), val_len);
            return true;
        }
        index = (index + 1) & (buckets - 1);
    }
    return false;
}

bool
KvStore::journalStaged(ThreadCtx &ctx, std::size_t slot,
                       const KvJournalRecord &record,
                       std::uint64_t &lsn)
{
    PERSIM_REQUIRE(hasJournal(), "staging needs a shard journal");
    PERSIM_REQUIRE(record.txn != 0, "staged records carry a txn id");
    const std::vector<std::uint8_t> payload = record.encode();
    const std::uint64_t bytes =
        LogLayout::recordBytes(payload.size());
    if (journal_.tailOffset(ctx) + bytes > journalLayout().capacity)
        return false;
    lsn = journal_.append(ctx, slot, payload.data(), payload.size());
    // Issued from here on: a staged mutation's commit can no longer
    // fail, and recovery may roll it forward, so the version enters
    // the golden history now (not at apply time).
    recordGolden(record.key, record.seq,
                 record.kind == KvJournalRecord::kind_erase,
                 record.value.data(), record.value.size());
    return true;
}

KvStatus
KvStore::applyCommitted(ThreadCtx &ctx, std::uint64_t key,
                        const void *value, std::uint64_t len,
                        std::uint64_t seq)
{
    PERSIM_REQUIRE(key != 0, "keys must be nonzero");
    PERSIM_REQUIRE(len >= 1 && len <= options_.max_value_bytes,
                   "staged values were size-checked");
    std::uint64_t found_at = 0, insert_at = 0;
    probe(ctx, key, found_at, insert_at);
    if (found_at != layout_.buckets) {
        const Addr bucket = layout_.bucketAddr(found_at);
        if (ctx.load(bucket + KvLayout::seq_off) >= seq)
            return KvStatus::Ok; // Table already newer: idempotent.
    }
    const auto *bytes_in = static_cast<const std::uint8_t *>(value);
    const KvStatus status =
        writeEntry(ctx, key, bytes_in, len, seq, found_at, insert_at);
    PERSIM_ASSERT(status == KvStatus::Ok,
                  "commit capacity was pre-validated");
    return status;
}

KvStatus
KvStore::applyCommittedErase(ThreadCtx &ctx, std::uint64_t key,
                             std::uint64_t seq)
{
    PERSIM_REQUIRE(key != 0, "keys must be nonzero");
    std::uint64_t found_at = 0, insert_at = 0;
    probe(ctx, key, found_at, insert_at);
    if (found_at == layout_.buckets)
        return KvStatus::NotFound;
    const Addr bucket = layout_.bucketAddr(found_at);
    if (ctx.load(bucket + KvLayout::seq_off) > seq)
        return KvStatus::Ok; // Table already newer: idempotent.
    ctx.store(bucket + KvLayout::state_off, KvLayout::state_tombstone);
    ctx.rmwFetchAdd(live_cell_, static_cast<std::uint64_t>(-1));
    return KvStatus::Ok;
}

void
KvStore::scrub(ThreadCtx &ctx, std::size_t slot, std::uint64_t key,
               std::uint64_t seq, std::uint64_t txn,
               const std::vector<Addr> &order_after)
{
    std::uint64_t found_at = 0, insert_at = 0;
    probe(ctx, key, found_at, insert_at);
    if (found_at == layout_.buckets)
        return;
    KvJournalRecord record;
    record.kind = KvJournalRecord::kind_erase;
    record.key = key;
    record.seq = seq;
    record.txn = txn;
    const std::vector<std::uint8_t> payload = record.encode();
    // The append's leading barrier orders the record after
    // @p order_after; the tombstone follows on the append's strand.
    journal_.append(ctx, slot, payload.data(), payload.size(),
                    order_after);
    const Addr bucket = layout_.bucketAddr(found_at);
    ctx.store(bucket + KvLayout::state_off, KvLayout::state_tombstone);
    ctx.rmwFetchAdd(live_cell_, static_cast<std::uint64_t>(-1));
}

Addr
KvStore::entryAddr(ThreadCtx &ctx, std::uint64_t key) const
{
    std::uint64_t found_at = 0, insert_at = 0;
    probe(ctx, key, found_at, insert_at);
    if (found_at == layout_.buckets)
        return invalid_addr;
    return layout_.bucketAddr(found_at);
}

std::uint64_t
KvStore::liveCount(ThreadCtx &ctx) const
{
    return ctx.load(live_cell_);
}

std::uint64_t
KvStore::heapUsed(ThreadCtx &ctx) const
{
    return ctx.load(heap_cell_);
}

std::uint64_t
KvStore::journalTail(ThreadCtx &ctx) const
{
    return journal_.tailOffset(ctx);
}

std::uint64_t
KvStore::count(ThreadCtx &ctx) const
{
    std::uint64_t live = 0;
    for (std::uint64_t i = 0; i < layout_.buckets; ++i) {
        if (ctx.load(layout_.bucketAddr(i) + KvLayout::state_off) ==
            KvLayout::state_live)
            ++live;
    }
    return live;
}

} // namespace persim
