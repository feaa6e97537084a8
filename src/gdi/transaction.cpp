#include "gdi/transaction.hpp"

#include <algorithm>
#include <cassert>
#include <type_traits>

#include "gdi/async.hpp"

namespace gdi {

using layout::Dir;
using layout::EdgeRecord;

namespace {

[[nodiscard]] Dir mirror_dir(Dir d) {
  switch (d) {
    case Dir::kOut: return Dir::kIn;
    case Dir::kIn: return Dir::kOut;
    case Dir::kUndirected: return Dir::kUndirected;
  }
  return Dir::kUndirected;
}

[[nodiscard]] std::size_t div_up(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

}  // namespace

Transaction::Transaction(std::shared_ptr<Database> db, rma::Rank& self, TxnMode mode,
                         TxnScope scope)
    : db_(std::move(db)), self_(self), mode_(mode), scope_(scope) {
  // Collective transactions are entered by all ranks together (paper 3.3);
  // the entry barrier gives them their well-defined start semantics.
  if (scope_ == TxnScope::kCollective) self_.barrier();
}

Transaction::~Transaction() {
  // Local transactions abort on scope exit if never closed. A collective
  // transaction must be closed explicitly (we cannot barrier in a dtor).
  if (active_ && scope_ == TxnScope::kLocal) abort();
}

Status Transaction::check_writable() const {
  return mode_ == TxnMode::kWrite ? Status::kOk : Status::kTxnReadOnly;
}

std::uint32_t Transaction::max_table_cap() const {
  return static_cast<std::uint32_t>(
      (db_->config().block.block_size - layout::VertexView::kHeaderSize) / 8);
}

// ---------------------------------------------------------------------------
// Block cache & batched reads
// ---------------------------------------------------------------------------

bool Transaction::cache_enabled() const { return db_->config().block_cache; }
bool Transaction::batching_enabled() const { return db_->config().batched_reads; }

void Transaction::scache_invalidate(DPtr primary) {
  if (auto* sc = scache(); sc != nullptr && sc->erase(primary))
    self_.counters().scache_invalidations += 1;
}

void Transaction::scache_fill(DPtr primary, std::span<const std::byte> buf,
                              std::uint64_t word, bool is_edge) {
  if (auto* sc = scache(); sc != nullptr)
    sc->insert(primary, buf, block::BlockStore::version_of(word), is_edge);
}

void Transaction::scache_restamp(DPtr primary, std::span<const std::byte> buf,
                                 std::uint64_t version_bits, bool is_edge) {
  if (auto* sc = scache(); sc != nullptr) {
    sc->insert(primary, buf, version_bits, is_edge);
    self_.counters().scache_restamps += 1;
  }
}

const cache::SharedBlockCache::Entry* Transaction::scache_lookup(
    DPtr primary, std::uint64_t observed_word, bool want_edge) {
  auto* sc = scache();
  if (sc == nullptr) return nullptr;
  const auto* e = sc->find(primary);
  if (e == nullptr) return nullptr;
  auto& c = self_.counters();
  c.scache_validations += 1;
  if (e->is_edge == want_edge && !block::BlockStore::write_locked(observed_word) &&
      e->version == block::BlockStore::version_of(observed_word)) {
    c.scache_hits += 1;
    sc->note_hit(primary);  // second touch: 2Q promotes probation -> resident
    return e;
  }
  // Version moved (a writer committed since the fill) or the block was
  // recycled into the other holder kind: the snapshot is dead.
  (void)sc->erase(primary);
  c.scache_invalidations += 1;
  return nullptr;
}

void Transaction::cache_read_block(DPtr blk, void* dst, const std::byte* fetched) {
  auto& blocks = db_->blocks();
  const std::size_t B = blocks.block_size();
  const auto read = [&] {
    if (fetched != nullptr) std::memcpy(dst, fetched, B);
    else blocks.read_block(self_, blk, dst);
  };
  if (!cache_enabled()) {
    read();
    return;
  }
  auto it = blk_cache_.find(blk.raw());
  if (it != blk_cache_.end()) {
    std::memcpy(dst, it->second.data(), B);
    self_.counters().cache_hits += 1;
    return;
  }
  read();
  self_.counters().cache_misses += 1;
  const auto* bytes = static_cast<const std::byte*>(dst);
  blk_cache_.emplace(blk.raw(), std::vector<std::byte>(bytes, bytes + B));
}

bool Transaction::take_spec_tail(std::span<const DPtr> spec, DPtr blk,
                                 std::vector<std::byte>& dst) {
  if (std::find(spec.begin(), spec.end(), blk) == spec.end()) return false;
  dst.resize(db_->blocks().block_size());
  db_->blocks().take_posted_block(blk, dst.data());
  auto& c = self_.counters();
  c.tail_spec_used += 1;
  if (cache_enabled()) c.cache_misses += 1;  // it crossed the wire
  return true;
}

void Transaction::read_tail_blocks(std::vector<std::byte>& buf, std::size_t total,
                                   std::uint32_t num_blocks,
                                   const std::function<DPtr(std::uint32_t)>& addr_of,
                                   std::span<const DPtr> spec) {
  auto& blocks = db_->blocks();
  const std::size_t B = blocks.block_size();
  struct Miss {
    DPtr blk;
    std::size_t lo;  ///< destination offset in buf
    std::size_t n;   ///< bytes belonging to the holder (tail block may be partial)
  };
  std::vector<Miss> misses;
  for (std::uint32_t i = 1; i < num_blocks; ++i) {
    const std::size_t lo = i * B;
    const std::size_t n = std::min(B, total - lo);
    const DPtr blk = addr_of(i);
    if (cache_enabled()) {
      auto it = blk_cache_.find(blk.raw());
      if (it != blk_cache_.end()) {
        std::memcpy(buf.data() + lo, it->second.data(), n);
        self_.counters().cache_hits += 1;
        continue;
      }
    }
    if (std::vector<std::byte> block; take_spec_tail(spec, blk, block)) {
      std::memcpy(buf.data() + lo, block.data(), n);
      if (cache_enabled()) blk_cache_.emplace(blk.raw(), std::move(block));
      continue;
    }
    misses.push_back(Miss{blk, lo, n});
  }
  if (misses.empty()) return;
  // Full-block scratch reads: the cache stores whole blocks, and reading the
  // block-sized region is always in-bounds even for a partial tail.
  // A single miss degenerates to the blocking read -- one latency beats one
  // overlapped latency plus a completion fence (the same singleton rule the
  // lock and fetch batches follow).
  std::vector<std::byte> scratch(misses.size() * B);
  if (batching_enabled() && misses.size() > 1) {
    std::vector<block::BlockStore::BlockReadOp> ops;
    ops.reserve(misses.size());
    for (std::size_t j = 0; j < misses.size(); ++j)
      ops.push_back({misses[j].blk, scratch.data() + j * B});
    blocks.read_blocks(self_, ops);
  } else {
    for (std::size_t j = 0; j < misses.size(); ++j)
      blocks.read_block(self_, misses[j].blk, scratch.data() + j * B);
  }
  for (std::size_t j = 0; j < misses.size(); ++j) {
    const Miss& m = misses[j];
    std::memcpy(buf.data() + m.lo, scratch.data() + j * B, m.n);
    if (cache_enabled()) {
      self_.counters().cache_misses += 1;
      blk_cache_.emplace(m.blk.raw(),
                         std::vector<std::byte>(scratch.data() + j * B,
                                                scratch.data() + (j + 1) * B));
    }
  }
}

void Transaction::invalidate_cached_blocks(
    DPtr primary, std::uint32_t num_blocks,
    const std::function<DPtr(std::uint32_t)>& addr_of) {
  if (blk_cache_.empty()) return;
  blk_cache_.erase(primary.raw());
  for (std::uint32_t i = 1; i < num_blocks; ++i) blk_cache_.erase(addr_of(i).raw());
}

Result<std::vector<DPtr>> Transaction::translate_ids_impl(
    std::span<const std::uint64_t> app_ids) {
  if (!active_ || failed_) return Status::kTxnAborted;
  auto& dht = db_->id_index();
  auto* sc = scache();
  std::vector<DPtr> out(app_ids.size());
  std::vector<std::uint64_t> need;
  std::vector<std::size_t> need_pos;
  for (std::size_t i = 0; i < app_ids.size(); ++i) {
    auto it = created_ids_.find(app_ids[i]);
    if (it != created_ids_.end()) {
      out[i] = it->second;
    } else {
      need.push_back(app_ids[i]);
      need_pos.push_back(i);
    }
  }

  // Warm-memo validation for bare translates: one erase-epoch read (a single
  // 8-byte remote atomic) covers every memoized key in the batch. A memo
  // taught under the still-current epoch is proven -- no erase can have
  // broken the mapping, and GDI never shadows a live key with a duplicate
  // insert -- so those keys skip the DHT walk entirely. Epoch-mismatched
  // memos fall back to the walk below (and are re-taught on success).
  std::uint64_t ep = dht.cached_erase_epoch(self_);
  if (sc != nullptr && !need.empty()) {
    bool any_memo = false;
    for (std::uint64_t key : need)
      if (sc->find_translation(key) != nullptr) {
        any_memo = true;
        break;
      }
    if (any_memo) {
      ep = dht.erase_epoch(self_);
      std::vector<std::uint64_t> still;
      std::vector<std::size_t> still_pos;
      for (std::size_t j = 0; j < need.size(); ++j) {
        const auto* tr = sc->find_translation(need[j]);
        if (tr != nullptr && tr->epoch == ep) {
          out[need_pos[j]] = tr->vid;
          self_.counters().xlate_hits += 1;
          continue;
        }
        if (tr != nullptr) {
          self_.counters().xlate_fallbacks += 1;
          sc->forget_translation(need[j]);
        }
        still.push_back(need[j]);
        still_pos.push_back(need_pos[j]);
      }
      need = std::move(still);
      need_pos = std::move(still_pos);
    }
  }

  // Multi-lookup earns its round flushes only past one key; a singleton walks
  // the chain blocking, exactly like translate_vertex_id. Resolved keys
  // re-teach the memo under `ep`, which was observed no later than the walk
  // that verified them (the conservative direction -- see shared_cache.hpp).
  if (batching_enabled() && need.size() > 1) {
    auto vals = dht.lookup_many(self_, need);
    for (std::size_t j = 0; j < need.size(); ++j)
      if (vals[j]) {
        out[need_pos[j]] = DPtr{*vals[j]};
        if (sc != nullptr) sc->remember_translation(need[j], DPtr{*vals[j]}, ep);
      }
  } else {
    for (std::size_t j = 0; j < need.size(); ++j)
      if (auto v = dht.lookup(self_, need[j])) {
        out[need_pos[j]] = DPtr{*v};
        if (sc != nullptr) sc->remember_translation(need[j], DPtr{*v}, ep);
      }
  }
  return out;
}

Result<std::vector<DPtr>> Transaction::translate_vertex_ids(
    std::span<const std::uint64_t> app_ids) {
  // n-op wrapper over the async surface: one translate future per ID.
  BatchScope scope = batch();
  std::vector<Future<DPtr>> futs;
  futs.reserve(app_ids.size());
  for (std::uint64_t id : app_ids) futs.push_back(scope.translate(id));
  if (Status s = scope.execute(); is_transaction_critical(s)) return s;
  std::vector<DPtr> out(app_ids.size());
  for (std::size_t i = 0; i < futs.size(); ++i)
    if (futs[i].ok()) out[i] = *futs[i];
  return out;
}

void Transaction::prefetch_vertices(std::span<const DPtr> vids) {
  // n-op wrapper over the async surface; BatchScope::execute dispatches the
  // hints by mode (kReadShared cache population / kRead lock-then-validate /
  // kWrite no-op).
  BatchScope scope = batch();
  scope.prefetch(vids);
  (void)scope.execute();
}

void Transaction::prefetch_edges(std::span<const DPtr> eids) {
  // n-op wrapper over the async surface (prefetch_vertices for heavy edges).
  BatchScope scope = batch();
  scope.prefetch_edges(eids);
  (void)scope.execute();
}

template <class S>
bool Transaction::populate_block_cache(std::span<const DPtr> ids,
                                       std::unordered_set<std::uint64_t>* tainted,
                                       std::span<const Primed> primed) {
  assert(primed.empty() || primed.size() == ids.size());
  if (!active_ || failed_) return false;
  if (!cache_enabled() || !batching_enabled()) return false;

  auto& blocks = db_->blocks();
  const std::size_t B = blocks.block_size();
  const auto& states = holders<S>();
  std::vector<DPtr> need;
  std::vector<Primed> src;  ///< per need: what its read lock's round fetched
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const DPtr id = ids[i];
    if (id.is_null()) continue;
    if (states.contains(id.raw()) || blk_cache_.contains(id.raw())) continue;
    // Reserve the slot so duplicates within `ids` are fetched once.
    blk_cache_.emplace(id.raw(), std::vector<std::byte>{});
    need.push_back(id);
    src.push_back(primed.empty() ? Primed{} : primed[i]);
  }
  if (need.empty()) return true;

  // Round 1: every primary block not yet fetched, one overlapped batch.
  std::vector<std::byte> scratch(need.size() * B);
  std::vector<block::BlockStore::BlockReadOp> ops;
  ops.reserve(need.size());
  for (std::size_t j = 0; j < need.size(); ++j)
    if (src[j].primary == nullptr) ops.push_back({need[j], scratch.data() + j * B});
  blocks.read_blocks(self_, ops);
  self_.counters().cache_misses += need.size();

  // Round 2: continuation blocks of multi-block holders (the block-address
  // table always lives in the primary block, so round 1 gives every address)
  // that no speculative GET of the lock round brought.
  std::vector<block::BlockStore::BlockReadOp> tail_ops;
  std::vector<DPtr> tail_blks;
  std::vector<std::vector<std::byte>> tail_bufs;
  for (std::size_t j = 0; j < need.size(); ++j) {
    auto& slot = blk_cache_[need[j].raw()];
    const std::byte* primary =
        src[j].primary != nullptr ? src[j].primary : scratch.data() + j * B;
    slot.assign(primary, primary + B);
    typename S::View view(slot);
    // Chase continuation addresses only from a header that can be a holder.
    if (!well_formed<S>(view, B)) continue;
    const std::uint32_t nb = view.num_blocks();
    for (std::uint32_t i = 1; i < nb; ++i) {
      const DPtr blk = view.block_addr(i);
      if (blk.is_null()) continue;
      if (blk_cache_.contains(blk.raw())) {
        // A pre-existing entry for this tail: its bytes may predate the
        // caller's read bracket (e.g. the block was recycled from a holder
        // this transaction fetched earlier) -- report the holder as unsafe
        // for a lock-free shared-cache fill.
        if (tainted != nullptr) tainted->insert(need[j].raw());
        continue;
      }
      // Reserve the slot; round 2 fills it unless the lock round did.
      if (take_spec_tail(src[j].tails, blk, blk_cache_[blk.raw()])) continue;
      tail_blks.push_back(blk);
    }
  }
  if (tail_blks.empty()) return true;
  tail_bufs.resize(tail_blks.size(), std::vector<std::byte>(B));
  tail_ops.reserve(tail_blks.size());
  for (std::size_t j = 0; j < tail_blks.size(); ++j)
    tail_ops.push_back({tail_blks[j], tail_bufs[j].data()});
  blocks.read_blocks(self_, tail_ops);
  self_.counters().cache_misses += tail_blks.size();
  for (std::size_t j = 0; j < tail_blks.size(); ++j)
    blk_cache_[tail_blks[j].raw()] = std::move(tail_bufs[j]);
  return true;
}

// ---------------------------------------------------------------------------
// The single lock/fetch path
// ---------------------------------------------------------------------------

template <class S>
Status Transaction::fetch_batch(std::span<const FetchSpec> specs, std::span<Status> per) {
  assert(per.size() == specs.size());
  if (!active_ || failed_) {
    std::fill(per.begin(), per.end(), Status::kTxnAborted);
    return Status::kTxnAborted;
  }

  Status doom = Status::kOk;
  const int attempts = db_->config().lock_attempts;
  auto& blocks = db_->blocks();
  auto& states = holders<S>();

  // Deduplicate by id, merging write/required intent; ids that already have
  // a state resolve through the hit path, with read->write upgrades set
  // aside so the whole set upgrades in overlapped CAS rounds
  // (try_upgrade_many) instead of word-by-word.
  struct Item {
    DPtr id;
    bool write = false;
    bool required = false;
    LockState lock = LockState::kNone;
    std::uint64_t word = 0;      ///< lock word observed by the acquiring FAA
    std::uint64_t pre_word = 0;  ///< kReadShared: peek bracketing the fill
    bool have_pre = false;
    bool cached = false;         ///< materialized from the shared cache
    bool fill_fresh = false;     ///< kReadShared: bytes will come off the wire
    Primed primed{};             ///< what the read lock's round fetched
    Status st = Status::kOk;
  };
  std::vector<Item> items;
  std::unordered_map<std::uint64_t, std::size_t> item_of;
  std::vector<std::size_t> spec_item(specs.size(), SIZE_MAX);
  // Read->write upgrades of already-held states: unique ids, the words their
  // read locks observed (the upgrade bids), and their specs.
  std::vector<DPtr> upg_ids;
  std::vector<std::uint64_t> upg_words;
  std::unordered_map<std::uint64_t, std::size_t> upg_of;
  std::vector<std::pair<std::size_t, std::size_t>> upg_specs;  // (spec, upg idx)
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const FetchSpec& sp = specs[i];
    if (sp.id.is_null()) {
      per[i] = Status::kInvalidArgument;
      continue;
    }
    if (auto sit = states.find(sp.id.raw()); sit != states.end()) {
      S* st = sit->second.get();
      if (st->deleted) {
        per[i] = Status::kNotFound;
        continue;
      }
      if (!sp.write) {
        per[i] = Status::kOk;
        continue;
      }
      if (Status s = check_writable(); !ok(s)) {
        per[i] = fail(s);
        if (sp.required && ok(doom)) doom = per[i];
        continue;
      }
      if (st->lock == LockState::kWrite || st->created) {
        per[i] = Status::kOk;
        continue;
      }
      if (st->lock == LockState::kRead) {
        auto [uit, fresh] = upg_of.try_emplace(sp.id.raw(), upg_ids.size());
        if (fresh) {
          upg_ids.push_back(sp.id);
          upg_words.push_back(st->lock_word);
        }
        upg_specs.emplace_back(i, uit->second);
        continue;
      }
      // LockState::kNone with write intent cannot arise in locking modes;
      // fall back to the serial path for robustness.
      auto r = state<S>(sp.id, /*for_write=*/true);
      per[i] = r.ok() ? Status::kOk : r.status();
      if (sp.required && is_transaction_critical(per[i]) && ok(doom)) doom = per[i];
      continue;
    }
    auto [it, fresh] = item_of.try_emplace(sp.id.raw(), items.size());
    if (fresh) items.push_back(Item{sp.id, sp.write, sp.required});
    else {
      items[it->second].write |= sp.write;
      items[it->second].required |= sp.required;
    }
    spec_item[i] = it->second;
  }
  if constexpr (S::kIsEdge) {
    if (batching_enabled() && items.size() > 1) {
      self_.counters().edge_batches += 1;
      self_.counters().edge_batch_items += items.size();
    }
  }

  // Phase 0: batched write-lock upgrades for re-touched read-locked states
  // (one overlapped CAS round set instead of one serial upgrade per holder).
  if (!upg_ids.empty()) {
    std::vector<std::uint8_t> got;
    if (batching_enabled() && upg_ids.size() > 1) {
      got = blocks.try_upgrade_many(self_, upg_ids, attempts, upg_words);
    } else {
      got.assign(upg_ids.size(), 0);
      for (std::size_t j = 0; j < upg_ids.size(); ++j)
        for (int a = 0; a < attempts && got[j] == 0; ++a)
          if (blocks.try_upgrade_lock(self_, upg_ids[j], upg_words[j])) got[j] = 1;
    }
    std::vector<Status> upg_st(upg_ids.size(), Status::kOk);
    for (std::size_t j = 0; j < upg_ids.size(); ++j) {
      S* st = states.find(upg_ids[j].raw())->second.get();
      if (got[j] != 0) {
        st->lock = LockState::kWrite;
        // Same-transaction write intent: cached window blocks are about to
        // diverge from the buffered holder, and the shared snapshot dies.
        invalidate_cached_blocks(upg_ids[j], st->view.num_blocks(), [&](std::uint32_t b) {
          return st->view.block_addr(b);
        });
        scache_invalidate(upg_ids[j]);
      } else {
        upg_st[j] = fail(Status::kTxnConflict);
      }
    }
    for (const auto& [spec, j] : upg_specs) {
      per[spec] = upg_st[j];
      if (specs[spec].required && is_transaction_critical(per[spec]) && ok(doom))
        doom = per[spec];
    }
  }

  // Phase 1: locks. kReadShared is lock-free for reads and rejects writes;
  // locking modes acquire every still-needed lock in overlapped rounds (one
  // nonblocking FAA per read lock, CAS rounds for write locks, one flush per
  // round). Singleton batches use the blocking word ops -- same semantics, no
  // flush overhead. The word each read lock's FAA observed is kept: its
  // version bits date the lock, which is exactly what shared-cache
  // validation and a later upgrade need (no extra op). With batching on, a
  // read lock whose holder has neither a per-transaction block nor a
  // shared-cache entry to validate carries its primary GET in its own round
  // (BlockStore::try_read_lock_many's dsts), plus GETs of the continuation
  // blocks the block-table memo names for it whenever that round is an
  // overlapped one (the tails): Phase 2 then fetches only the continuation
  // blocks the primary's table lists and no tail GET brought.
  std::vector<std::byte> primed;  ///< backs the Items' primary bytes
  std::vector<DPtr> spec;         ///< backs the Items' speculative tails
  const std::uint64_t spec_used_before = self_.counters().tail_spec_used;
  if (mode_ == TxnMode::kReadShared) {
    for (auto& it : items) {
      if (!it.write) continue;
      it.st = Status::kTxnReadOnly;
      if (it.required) {
        (void)fail(Status::kTxnReadOnly);
        if (ok(doom)) doom = Status::kTxnReadOnly;
      }
    }
  } else {
    std::vector<std::size_t> read_idx;
    std::vector<std::size_t> write_idx;
    for (std::size_t j = 0; j < items.size(); ++j)
      (items[j].write ? write_idx : read_idx).push_back(j);
    // A shared-cache entry's version stamp (kept current for a rank's own
    // rows by write-through) is the version a write lock bids on: a warm
    // hint saves the learn-the-version round trip; a stale one costs
    // nothing -- the failing CAS returns the fresh word the retry needed.
    const auto hint_of = [&](DPtr id) -> std::uint64_t {
      const auto* e = scache() != nullptr ? scache()->find(id) : nullptr;
      return e != nullptr ? e->version : 0;
    };
    const bool batch_locks =
        batching_enabled() && read_idx.size() + write_idx.size() > 1;
    std::vector<void*> dst_of(items.size(), nullptr);
    std::vector<std::span<const DPtr>> tails_of(items.size());
    if (batching_enabled()) {
      const auto needs_bytes = [&](DPtr id) {
        return !blk_cache_.contains(id.raw()) &&
               (scache() == nullptr || scache()->find(id) == nullptr);
      };
      const auto self_rank = static_cast<std::uint32_t>(self_.id());
      std::vector<std::size_t> rides;    ///< read items whose primary GET rides
      std::vector<std::size_t> spec_lo;  ///< per ride: its first tail in `spec`
      for (std::size_t j : read_idx) {
        if (!needs_bytes(items[j].id)) continue;
        rides.push_back(j);
        spec_lo.push_back(spec.size());
        // Tails ride only an overlapped round (a local singleton lock is
        // blocking). Copied: the memo may change before Phase 3 reads them.
        if (scache() != nullptr && (batch_locks || items[j].id.rank() != self_rank)) {
          const auto t = scache()->find_block_table(items[j].id);
          spec.insert(spec.end(), t.begin(), t.end());
        }
      }
      spec_lo.push_back(spec.size());
      const std::size_t B = blocks.block_size();
      primed.resize(rides.size() * B);
      for (std::size_t k = 0; k < rides.size(); ++k) {
        dst_of[rides[k]] = primed.data() + k * B;
        tails_of[rides[k]] =
            std::span<const DPtr>(spec).subspan(spec_lo[k], spec_lo[k + 1] - spec_lo[k]);
      }
    }
    auto lock_serial = [&](std::size_t j) {
      Item& it = items[j];
      if (!it.write)
        return blocks.try_read_lock(self_, it.id, &it.word, dst_of[j], tails_of[j]);
      bool got = false;
      const std::uint64_t hint = hint_of(it.id);
      for (int a = 0; a < attempts && !got; ++a)
        got = blocks.try_write_lock(self_, it.id, hint);
      return got;
    };
    std::vector<std::uint8_t> got_r;
    std::vector<std::uint8_t> got_w;
    std::vector<std::uint64_t> words_r;
    if (batch_locks) {
      std::vector<DPtr> rv;
      std::vector<void*> rdst;
      std::vector<std::span<const DPtr>> rtails;
      std::vector<DPtr> wv;
      rv.reserve(read_idx.size());
      rdst.reserve(read_idx.size());
      rtails.reserve(read_idx.size());
      wv.reserve(write_idx.size());
      for (std::size_t j : read_idx) {
        rv.push_back(items[j].id);
        rdst.push_back(dst_of[j]);
        rtails.push_back(tails_of[j]);
      }
      for (std::size_t j : write_idx) wv.push_back(items[j].id);
      // Write bids carry the same hints the serial path uses (empty hints =
      // unhinted, identical ops).
      std::vector<std::uint64_t> hints_w;
      if (scache() != nullptr) {
        hints_w.reserve(wv.size());
        for (DPtr v : wv) hints_w.push_back(hint_of(v));
      }
      if (!rv.empty())
        got_r = blocks.try_read_lock_many(self_, rv, &words_r, rdst, rtails);
      if (!wv.empty()) got_w = blocks.try_write_lock_many(self_, wv, attempts, hints_w);
    }
    auto apply = [&](std::span<const std::size_t> idx,
                     std::span<const std::uint8_t> got,
                     std::span<const std::uint64_t> words, LockState granted) {
      for (std::size_t k = 0; k < idx.size(); ++k) {
        Item& it = items[idx[k]];
        const bool won = batch_locks ? got[k] != 0 : lock_serial(idx[k]);
        if (won) {
          it.lock = granted;
          it.primed = {static_cast<const std::byte*>(dst_of[idx[k]]), tails_of[idx[k]]};
          if (batch_locks && !words.empty()) it.word = words[k];
          if (granted == LockState::kWrite) scache_invalidate(it.id);
          continue;
        }
        it.st = it.required ? fail(Status::kTxnConflict) : Status::kTxnConflict;
        if (it.required && ok(doom)) doom = Status::kTxnConflict;
      }
    };
    apply(read_idx, got_r, words_r, LockState::kRead);
    apply(write_idx, got_w, {}, LockState::kWrite);
  }

  // Phase 1.5: shared-cache consultation. Read-locked items validate for
  // free against the word their lock FAA observed; kReadShared items share
  // one overlapped lock-word peek round, which doubles as the low bracket of
  // the seqlock fill discipline for the entries we end up fetching. Entries
  // carry their holder kind, so a block recycled into the other kind never
  // validates.
  auto install_from_entry = [&](Item& it, const cache::SharedBlockCache::Entry& e) {
    auto st = std::make_unique<S>();
    st->lock = it.lock;
    st->lock_word = it.word;
    st->buf = e.buf;
    st->view.reset_dirty();
    if constexpr (!S::kIsEdge) snapshot_index_match(*st);
    memo_block_table<S>(it.id, st->view);
    states.emplace(it.id.raw(), std::move(st));
    it.cached = true;
  };
  if (scache() != nullptr) {
    if (mode_ == TxnMode::kReadShared) {
      std::vector<DPtr> pv;
      std::vector<std::size_t> pidx;
      for (std::size_t j = 0; j < items.size(); ++j)
        if (ok(items[j].st)) {
          pv.push_back(items[j].id);
          pidx.push_back(j);
        }
      if (!pv.empty()) {
        std::vector<std::uint64_t> pw(pv.size(), 0);
        blocks.peek_lock_words(self_, pv, pw, batching_enabled());
        for (std::size_t k = 0; k < pidx.size(); ++k) {
          Item& it = items[pidx[k]];
          it.pre_word = pw[k];
          it.have_pre = true;
          // Fill-eligible only if the holder's bytes will actually cross the
          // wire *inside* this peek bracket: bytes already sitting in the
          // per-transaction block cache were read before the pre peek and
          // could predate a writer the bracket would never see.
          it.fill_fresh = !blk_cache_.contains(it.id.raw());
          if (const auto* e = scache_lookup(it.id, pw[k], S::kIsEdge))
            install_from_entry(it, *e);
        }
      }
    } else {
      for (auto& it : items) {
        if (!ok(it.st) || it.lock != LockState::kRead) continue;
        if (const auto* e = scache_lookup(it.id, it.word, S::kIsEdge))
          install_from_entry(it, *e);
      }
    }
  }

  // Phase 2: block population for the misses. All locks are held (or the
  // mode is lock-free), so one overlapped batch of primary blocks plus one
  // of continuation blocks is observation-safe. Locked items are fetched
  // even when another item doomed the transaction -- their locks must be
  // tracked for release. A miss is counted only for items that actually
  // consulted the cache (read-locked or kReadShared; write intents bypass
  // by design and must not deflate the hit rate).
  std::vector<DPtr> to_fetch;
  std::vector<Primed> fetched;  ///< per to_fetch: what its lock round fetched
  to_fetch.reserve(items.size());
  fetched.reserve(items.size());
  for (const auto& it : items) {
    if (!(ok(it.st) && !it.cached &&
          (mode_ == TxnMode::kReadShared || it.lock != LockState::kNone)))
      continue;
    to_fetch.push_back(it.id);
    fetched.push_back(it.primed);
    if (scache() != nullptr &&
        (mode_ == TxnMode::kReadShared || it.lock == LockState::kRead))
      self_.counters().scache_misses += 1;
  }
  std::unordered_set<std::uint64_t> tainted;
  const bool populated =
      to_fetch.size() > 1 && populate_block_cache<S>(to_fetch, &tainted, fetched);

  // Phase 3: materialize states (block-cache hits on the batched path).
  // Read-locked fetches stamp straight into the shared cache (bytes read
  // under the lock, version from the acquiring FAA); kReadShared fetches
  // collect for the post-fill peek round below.
  std::vector<std::size_t> fill_candidates;
  for (std::size_t j = 0; j < items.size(); ++j) {
    Item& it = items[j];
    if (!ok(it.st) || it.cached) continue;
    if (mode_ != TxnMode::kReadShared && it.lock == LockState::kNone) continue;
    auto st = std::make_unique<S>();
    st->lock = it.lock;
    st->lock_word = it.word;
    const std::uint64_t txn_hits_before = self_.counters().cache_hits;
    if (Status s = fetch_holder(it.id, *st, populated ? Primed{} : it.primed); !ok(s)) {
      // Not a valid holder: release the just-taken lock and report. Drop the
      // block from the cache too -- with the lock gone nothing pins its
      // bytes, and a later lookup of a recycled block must re-read.
      blk_cache_.erase(it.id.raw());
      scache_invalidate(it.id);
      if (st->lock == LockState::kWrite) blocks.write_unlock(self_, it.id);
      if (st->lock == LockState::kRead) blocks.read_unlock(self_, it.id);
      it.st = s;
      continue;
    }
    if (st->lock == LockState::kWrite)
      invalidate_cached_blocks(it.id, st->view.num_blocks(),
                               [&](std::uint32_t i) { return st->view.block_addr(i); });
    memo_block_table<S>(it.id, st->view);
    if (scache() != nullptr) {
      // Lock-free fill eligibility also requires every byte to have crossed
      // the wire inside the bracket: a tainted holder (tail served from a
      // pre-bracket per-transaction cache entry, reported by populate) or a
      // singleton fetch that scored any per-transaction cache hit read
      // pre-bracket bytes and must not be stamped.
      const bool fresh =
          it.fill_fresh && !tainted.contains(it.id.raw()) &&
          (populated || self_.counters().cache_hits == txn_hits_before);
      if (st->lock == LockState::kRead) {
        // Locked fills need no bracket: block-cache bytes in a locking-mode
        // transaction were read under locks this transaction still holds,
        // so no writer can have completed since.
        scache_fill(it.id, st->buf, it.word, S::kIsEdge);
      } else if (mode_ == TxnMode::kReadShared && it.have_pre && fresh &&
                 !block::BlockStore::write_locked(it.pre_word)) {
        fill_candidates.push_back(j);
      }
    }
    states.emplace(it.id.raw(), std::move(st));
  }

  // Phase 3.5: lock-free fills commit only if the holder proved stable across
  // the whole read -- the post peek must agree with the pre peek's version
  // and show no writer (seqlock discipline).
  if (!fill_candidates.empty()) {
    std::vector<DPtr> pv;
    pv.reserve(fill_candidates.size());
    for (std::size_t j : fill_candidates) pv.push_back(items[j].id);
    std::vector<std::uint64_t> post(pv.size(), 0);
    blocks.peek_lock_words(self_, pv, post, batching_enabled());
    for (std::size_t k = 0; k < fill_candidates.size(); ++k) {
      const Item& it = items[fill_candidates[k]];
      if (block::BlockStore::write_locked(post[k]) ||
          block::BlockStore::version_of(post[k]) !=
              block::BlockStore::version_of(it.pre_word))
        continue;
      const S* st = states.find(it.id.raw())->second.get();
      scache_fill(it.id, st->buf, post[k], S::kIsEdge);
    }
  }

  // Every speculative tail GET was either taken (counted used where its
  // holder's table confirmed it) or is never looked at.
  self_.counters().tail_spec_wasted +=
      spec.size() - (self_.counters().tail_spec_used - spec_used_before);
  for (std::size_t i = 0; i < specs.size(); ++i)
    if (spec_item[i] != SIZE_MAX) per[i] = items[spec_item[i]].st;
  return doom;
}

// ---------------------------------------------------------------------------
// Locking & fetching
// ---------------------------------------------------------------------------

template <class S>
Status Transaction::fetch_holder(DPtr id, S& st, const Primed& primed) {
  const std::size_t B = db_->blocks().block_size();
  // One GET suffices for a one-block holder -- the BGDL design goal.
  st.buf.resize(B);
  cache_read_block(id, st.buf.data(), primed.primary);
  if (!well_formed<S>(st.view, B)) return Status::kNotFound;
  const std::size_t total = S::required_size(st.view);
  st.buf.resize(total);
  // Continuation blocks: cache-served, confirmed from the lock round, or
  // fetched as one overlapped batch.
  if (total > B)
    read_tail_blocks(st.buf, total, st.view.num_blocks(),
                     [&](std::uint32_t i) { return st.view.block_addr(i); }, primed.tails);
  st.view.reset_dirty();
  if constexpr (!S::kIsEdge) snapshot_index_match(st);
  return Status::kOk;
}

template <class S>
void Transaction::memo_block_table(DPtr id, const typename S::View& v) {
  auto* sc = scache();
  if (sc == nullptr || mode_ == TxnMode::kReadShared) return;
  // Only blocks on the primary's rank may ride its lock round: their GETs
  // land behind the FAA. A spilled block keeps the second round.
  std::vector<DPtr> tails;
  for (std::uint32_t i = 1; i < v.num_blocks(); ++i)
    if (const DPtr b = v.block_addr(i); !b.is_null() && b.rank() == id.rank())
      tails.push_back(b);
  sc->remember_block_table(id, tails);
}

template <class S>
bool Transaction::well_formed(const typename S::View& v, std::size_t block_size) {
  if (!v.valid() || v.prop_used() > v.prop_capacity()) return false;
  if constexpr (!S::kIsEdge)
    if (v.edge_slots() > v.edge_capacity()) return false;
  const std::uint32_t nb = v.num_blocks();
  return nb >= 1 && nb <= S::max_blocks(v, block_size) &&
         S::required_size(v) <= std::uint64_t{nb} * block_size;
}

void Transaction::snapshot_index_match(VertexState& st) {
  st.orig_index_match.clear();
  for (const auto& idx : db_->indexes())
    st.orig_index_match.push_back(idx->matches(st.view) ? 1 : 0);
}

template <class S>
Result<S*> Transaction::state(DPtr id, bool for_write) {
  if (!active_ || failed_) return Status::kTxnAborted;
  if (id.is_null()) return Status::kInvalidArgument;
  if (for_write) {
    if (Status s = check_writable(); !ok(s)) return fail(s);
  }
  auto& states = holders<S>();
  auto it = states.find(id.raw());
  if (it != states.end()) {
    S* st = it->second.get();
    if (st->deleted) return Status::kNotFound;
    if (for_write && st->lock != LockState::kWrite && !st->created) {
      auto& blocks = db_->blocks();
      bool got = false;
      for (int i = 0; i < db_->config().lock_attempts && !got; ++i) {
        got = st->lock == LockState::kRead
                  ? blocks.try_upgrade_lock(self_, id, st->lock_word)
                  : blocks.try_write_lock(self_, id);
      }
      if (!got) return fail(Status::kTxnConflict);
      st->lock = LockState::kWrite;
      // Same-transaction write intent: the cached window blocks are about to
      // diverge from the buffered holder -- drop them (shared snapshot too).
      invalidate_cached_blocks(id, st->view.num_blocks(),
                               [&](std::uint32_t i) { return st->view.block_addr(i); });
      scache_invalidate(id);
    }
    return st;
  }
  // Miss: a one-element trip through the shared batch path (which degenerates
  // to blocking lock + fetch for singletons).
  const FetchSpec spec{id, for_write, /*required=*/true};
  Status st = Status::kOk;
  (void)fetch_batch<S>(std::span<const FetchSpec>(&spec, 1), std::span<Status>(&st, 1));
  if (!ok(st)) return st;
  return states.find(id.raw())->second.get();
}

// ---------------------------------------------------------------------------
// Vertex CRUD
// ---------------------------------------------------------------------------

Result<VertexHandle> Transaction::create_vertex(std::uint64_t app_id) {
  return create_vertex_impl(app_id, /*dht_checked=*/false);
}

Result<VertexHandle> Transaction::create_vertex_impl(std::uint64_t app_id,
                                                     bool dht_checked) {
  if (!active_ || failed_) return Status::kTxnAborted;
  if (Status s = check_writable(); !ok(s)) return fail(s);
  if (created_ids_.contains(app_id)) return Status::kAlreadyExists;
  if (!dht_checked && db_->id_index().lookup(self_, app_id).has_value())
    return Status::kAlreadyExists;

  auto& blocks = db_->blocks();
  const std::uint32_t owner = db_->owner_rank(app_id);
  const DPtr primary = blocks.acquire(self_, owner);
  if (primary.is_null()) return fail(Status::kOutOfMemory);
  blk_cache_.erase(primary.raw());  // block may have been cached pre-recycling
  scache_invalidate(primary);
  if (!blocks.try_write_lock(self_, primary)) {
    // A fresh block's lock word is always zero; failure means protocol abuse.
    blocks.release(self_, primary);
    return fail(Status::kTxnConflict);
  }
  if (db_->config().wal) wal_rec_.acquire(primary);

  auto st = std::make_unique<VertexState>();
  st->created = true;
  st->lock = LockState::kWrite;
  const std::uint32_t tcap = std::min<std::uint32_t>(4, max_table_cap());
  layout::VertexView::init(st->buf, app_id, blocks.block_size(), tcap);
  st->view.set_num_blocks(1);
  st->view.set_block_addr(0, primary);
  st->orig_index_match.assign(db_->indexes().size(), 0);

  created_ids_.emplace(app_id, primary);
  vcache_.emplace(primary.raw(), std::move(st));
  return VertexHandle{primary};
}

Result<DPtr> Transaction::translate_vertex_id(std::uint64_t app_id) {
  // One-op wrapper over the batched path (the PR 2 rule: one translation
  // code path). The singleton degenerates to the blocking DHT lookup, and
  // the memo + erase-epoch validation live only in translate_ids_impl.
  auto r = translate_ids_impl(std::span<const std::uint64_t>(&app_id, 1));
  if (!r.ok()) return r.status();
  if ((*r)[0].is_null()) return Status::kNotFound;
  return (*r)[0];
}

Result<VertexHandle> Transaction::associate_vertex(DPtr vid) {
  auto st = state(VertexHandle{vid}, /*for_write=*/false);
  if (!st.ok()) return st.status();
  return VertexHandle{vid};
}

Result<VertexHandle> Transaction::find_vertex(std::uint64_t app_id) {
  // One-op wrapper over the async surface (translate + associate + stale-DHT
  // validation happen inside BatchScope::execute).
  BatchScope scope = batch();
  Future<VertexHandle> f = scope.find(app_id);
  (void)scope.execute();
  if (!f.ok()) return f.status();
  return *f;
}

Status Transaction::delete_vertex(VertexHandle v) {
  auto r = state(v, /*for_write=*/true);
  if (!r.ok()) return r.status();
  VertexState* st = *r;

  // Remove mirror records from all neighbors (and heavy-edge holders).
  std::vector<EdgeRecord> recs;
  st->view.for_each_edge([&](std::uint32_t, const EdgeRecord& rec) { recs.push_back(rec); });
  for (const auto& rec : recs) {
    if (!rec.heavy.is_null()) {
      auto er = state(EdgeHandle{rec.heavy}, /*for_write=*/true);
      if (er.ok()) mark_deleted(**er);
      else if (is_transaction_critical(er.status())) return er.status();
    }
    if (rec.neighbor == v.vid) continue;  // self-loop: same holder
    auto nr = state(VertexHandle{rec.neighbor}, /*for_write=*/true);
    if (!nr.ok()) {
      if (is_transaction_critical(nr.status())) return nr.status();
      continue;  // neighbor already gone
    }
    VertexState* nst = *nr;
    const Dir want = mirror_dir(rec.dir);
    nst->view.for_each_edge([&](std::uint32_t slot, const EdgeRecord& mrec) {
      if (mrec.neighbor == v.vid && mrec.dir == want && mrec.heavy == rec.heavy)
        (void)nst->view.remove_edge(slot);
    });
  }

  mark_deleted(*st);
  return Status::kOk;
}

bool Transaction::peek_cached(DPtr vid, std::uint64_t* out) {
  auto it = vcache_.find(vid.raw());
  if (it != vcache_.end()) {
    *out = it->second->view.app_id();
    return true;
  }
  if (cache_enabled()) {
    auto cit = blk_cache_.find(vid.raw());
    if (cit != blk_cache_.end() && cit->second.size() >= 8) {
      self_.counters().cache_hits += 1;
      std::memcpy(out, cit->second.data(), 8);
      return true;
    }
  }
  return false;
}

Result<std::uint64_t> Transaction::peek_app_id(DPtr vid) {
  if (!active_ || failed_) return Status::kTxnAborted;
  std::uint64_t id = 0;
  if (peek_cached(vid, &id)) return id;
  // Miss path stays the minimal 8-byte GET (no population): peeks pay for a
  // whole-block fetch only when a frontier prefetch asked for one.
  if (cache_enabled()) self_.counters().cache_misses += 1;
  db_->blocks().read(self_, vid, 0, &id, 8);
  return id;
}

Result<std::uint64_t> Transaction::app_id_of(VertexHandle v) {
  auto r = state(v, false);
  if (!r.ok()) return r.status();
  return (*r)->view.app_id();
}

// ---------------------------------------------------------------------------
// Labels & properties (one body per operation, shared by both holder kinds)
// ---------------------------------------------------------------------------

template <class S>
Status Transaction::add_label_to(DPtr id, std::uint32_t label_id) {
  auto r = state<S>(id, true);
  if (!r.ok()) return r.status();
  S* st = *r;
  if (st->view.has_label(label_id)) return Status::kAlreadyExists;
  if (Status s = ensure_prop_capacity(*st, 16); !ok(s)) return s;
  return st->view.add_label(label_id);
}

template <class S>
Status Transaction::remove_label_from(DPtr id, std::uint32_t label_id) {
  auto r = state<S>(id, true);
  if (!r.ok()) return r.status();
  return (*r)->view.remove_label(label_id) ? Status::kOk : Status::kNotFound;
}

template <class S>
Result<std::vector<std::uint32_t>> Transaction::labels_on(DPtr id) {
  auto r = state<S>(id, false);
  if (!r.ok()) return r.status();
  return (*r)->view.labels();
}

template <class S>
Status Transaction::put_property(DPtr id, std::uint32_t ptype, const PropValue& value,
                                 bool replace) {
  const PropertyType* def = db_->ptype(self_, ptype);
  if (def == nullptr) return Status::kInvalidArgument;
  if (def->etype != EntityType::kVertexAndEdge && def->etype != S::kEntity)
    return Status::kInvalidArgument;
  auto r = state<S>(id, true);
  if (!r.ok()) return r.status();
  S* st = *r;
  const auto bytes = encode_value(value);
  if (def->stype == SizeType::kFixed && bytes.size() != def->max_size)
    return Status::kConstraintViolated;
  if (def->stype == SizeType::kLimited && bytes.size() > def->max_size)
    return Status::kConstraintViolated;
  if (!replace && def->mult == Multiplicity::kSingle && st->view.count_props(ptype) > 0)
    return Status::kConstraintViolated;
  // Room first: a refused update must leave the old entries in place (their
  // removal is buffered and would otherwise commit). Removing them first
  // would not make room anyway -- removal tombstones, it does not shrink
  // prop_used, which is what the capacity check counts.
  if (Status s = ensure_prop_capacity(*st, static_cast<std::uint32_t>(bytes.size()) + 16);
      !ok(s))
    return s;
  if (replace) (void)st->view.remove_entries(ptype);
  return st->view.add_entry(ptype, bytes);
}

template <class S>
Result<std::vector<PropValue>> Transaction::properties_on(DPtr id, std::uint32_t ptype) {
  const PropertyType* def = db_->ptype(self_, ptype);
  if (def == nullptr) return Status::kInvalidArgument;
  auto r = state<S>(id, false);
  if (!r.ok()) return r.status();
  std::vector<PropValue> out;
  for (const auto& raw : (*r)->view.get_props(ptype))
    out.push_back(decode_value(def->dtype, raw));
  return out;
}

Status Transaction::add_label(VertexHandle v, std::uint32_t label_id) {
  return add_label_to<VertexState>(v.vid, label_id);
}

Status Transaction::remove_label(VertexHandle v, std::uint32_t label_id) {
  return remove_label_from<VertexState>(v.vid, label_id);
}

Result<std::vector<std::uint32_t>> Transaction::labels_of(VertexHandle v) {
  return labels_on<VertexState>(v.vid);
}

Status Transaction::add_property(VertexHandle v, std::uint32_t ptype,
                                 const PropValue& value) {
  return put_property<VertexState>(v.vid, ptype, value, /*replace=*/false);
}

Status Transaction::update_property(VertexHandle v, std::uint32_t ptype,
                                    const PropValue& value) {
  return put_property<VertexState>(v.vid, ptype, value, /*replace=*/true);
}

Status Transaction::remove_properties(VertexHandle v, std::uint32_t ptype) {
  auto r = state(v, true);
  if (!r.ok()) return r.status();
  return (*r)->view.remove_entries(ptype) > 0 ? Status::kOk : Status::kNotFound;
}

Status Transaction::remove_all_properties(VertexHandle v) {
  auto r = state(v, true);
  if (!r.ok()) return r.status();
  VertexState* st = *r;
  for (std::uint32_t pt : st->view.ptypes()) (void)st->view.remove_entries(pt);
  (void)st->view.compact_entries();
  return Status::kOk;
}

Result<std::vector<PropValue>> Transaction::get_properties(VertexHandle v,
                                                           std::uint32_t ptype) {
  return properties_on<VertexState>(v.vid, ptype);
}

Result<std::vector<std::uint32_t>> Transaction::ptypes_of(VertexHandle v) {
  auto r = state(v, false);
  if (!r.ok()) return r.status();
  return (*r)->view.ptypes();
}

// ---------------------------------------------------------------------------
// Edges
// ---------------------------------------------------------------------------

Result<EdgeUid> Transaction::create_edge(VertexHandle origin, VertexHandle target,
                                         Dir dir, std::uint32_t label_id) {
  if (batching_enabled() && target.vid != origin.vid) {
    // Both endpoints' write locks in one pass: read-locked endpoints upgrade
    // in one overlapped CAS round, and the state() calls below are hits.
    // Statuses are reported in the serial order (origin first).
    const FetchSpec specs[2] = {{origin.vid, /*write=*/true, /*required=*/true},
                                {target.vid, /*write=*/true, /*required=*/true}};
    Status per[2] = {Status::kOk, Status::kOk};
    (void)fetch_batch<VertexState>(specs, per);
    for (Status s : per)
      if (!ok(s)) return s;
  }
  auto ro = state(origin, true);
  if (!ro.ok()) return ro.status();
  VertexState* ost = *ro;
  VertexState* tst = ost;
  if (target.vid != origin.vid) {
    auto rt = state(target, true);
    if (!rt.ok()) return rt.status();
    tst = *rt;
  }

  if (Status s = ensure_edge_capacity(*ost, 1); !ok(s)) return s;
  EdgeRecord rec{target.vid, DPtr{}, label_id, dir, true};
  auto slot = ost->view.add_edge(rec);
  if (!slot.ok()) return slot.status();
  const EdgeUid uid{origin.vid, ost->view.edge_offset(*slot)};

  const bool self_loop_undirected =
      origin.vid == target.vid && dir == Dir::kUndirected;
  if (!self_loop_undirected) {
    if (Status s = ensure_edge_capacity(*tst, 1); !ok(s)) return s;
    EdgeRecord mrec{origin.vid, DPtr{}, label_id, mirror_dir(dir), true};
    auto mslot = tst->view.add_edge(mrec);
    if (!mslot.ok()) return mslot.status();
  }
  return uid;
}

Status Transaction::delete_edge(VertexHandle base, const EdgeUid& uid) {
  if (uid.vertex != base.vid) return Status::kInvalidArgument;
  auto r = state(base, true);
  if (!r.ok()) return r.status();
  VertexState* st = *r;
  const std::uint32_t slot = st->view.slot_of_offset(uid.offset);
  if (slot >= st->view.edge_slots()) return Status::kNotFound;
  const EdgeRecord rec = st->view.edge_at(slot);
  if (!rec.in_use) return Status::kNotFound;
  (void)st->view.remove_edge(slot);

  if (!rec.heavy.is_null()) {
    auto er = state(EdgeHandle{rec.heavy}, true);
    if (er.ok()) mark_deleted(**er);
    else if (is_transaction_critical(er.status())) return er.status();
  }

  const bool self_loop_undirected =
      rec.neighbor == base.vid && rec.dir == Dir::kUndirected;
  if (!self_loop_undirected) {
    auto nr = state(VertexHandle{rec.neighbor}, true);
    if (!nr.ok()) {
      if (is_transaction_critical(nr.status())) return nr.status();
      return Status::kOk;  // neighbor vanished; nothing to mirror-remove
    }
    VertexState* nst = *nr;
    const Dir want = mirror_dir(rec.dir);
    bool removed = false;
    nst->view.for_each_edge([&](std::uint32_t s, const EdgeRecord& mrec) {
      if (!removed && mrec.neighbor == base.vid && mrec.dir == want &&
          mrec.heavy == rec.heavy && mrec.label_id == rec.label_id) {
        (void)nst->view.remove_edge(s);
        removed = true;
      }
    });
  }
  return Status::kOk;
}

Result<std::vector<EdgeDesc>> Transaction::edges_of(VertexHandle v, DirFilter f,
                                                    const Constraint* c) {
  // One-op wrapper over the async surface.
  BatchScope scope = batch();
  Future<std::vector<EdgeDesc>> fut = scope.edges_of(v, f, c);
  (void)scope.execute();
  if (!fut.ok()) return fut.status();
  return *fut;
}

Result<std::vector<EdgeDesc>> Transaction::edges_of_impl(VertexHandle v, DirFilter f,
                                                         const Constraint* c) {
  auto r = state(v, false);
  if (!r.ok()) return r.status();
  VertexState* st = *r;
  std::vector<EdgeDesc> out;
  Status deferred = Status::kOk;
  st->view.for_each_edge([&](std::uint32_t slot, const EdgeRecord& rec) {
    if (!dir_matches(f, rec.dir)) return;
    if (c != nullptr && !c->empty()) {
      if (rec.heavy.is_null()) {
        if (!c->matches_lw_edge(rec.label_id)) return;
      } else {
        auto er = state(EdgeHandle{rec.heavy}, false);
        if (!er.ok()) {
          if (is_transaction_critical(er.status())) deferred = er.status();
          return;
        }
        if (!c->matches((*er)->view)) return;
      }
    }
    out.push_back(EdgeDesc{EdgeUid{v.vid, st->view.edge_offset(slot)}, rec.neighbor,
                           rec.dir, rec.label_id, rec.heavy});
  });
  if (!ok(deferred)) return deferred;
  return out;
}

Result<std::vector<DPtr>> Transaction::neighbors_of(VertexHandle v, DirFilter f,
                                                    const Constraint* c) {
  auto edges = edges_of(v, f, c);
  if (!edges.ok()) return edges.status();
  std::vector<DPtr> out;
  out.reserve(edges->size());
  for (const auto& e : *edges) out.push_back(e.neighbor);
  return out;
}

Result<std::size_t> Transaction::count_edges(VertexHandle v, DirFilter f) {
  auto r = state(v, false);
  if (!r.ok()) return r.status();
  std::size_t n = 0;
  (*r)->view.for_each_edge([&](std::uint32_t, const EdgeRecord& rec) {
    if (dir_matches(f, rec.dir)) ++n;
  });
  return n;
}

// ---------------------------------------------------------------------------
// Heavy edges
// ---------------------------------------------------------------------------

Result<EdgeHandle> Transaction::create_heavy_edge(VertexHandle origin,
                                                  VertexHandle target, Dir dir) {
  if (!active_ || failed_) return Status::kTxnAborted;
  if (Status s = check_writable(); !ok(s)) return fail(s);
  auto& blocks = db_->blocks();
  const DPtr eid = blocks.acquire(self_, origin.vid.rank());
  if (eid.is_null()) return fail(Status::kOutOfMemory);
  blk_cache_.erase(eid.raw());
  scache_invalidate(eid);
  if (!blocks.try_write_lock(self_, eid)) {
    blocks.release(self_, eid);
    return fail(Status::kTxnConflict);
  }
  if (db_->config().wal) wal_rec_.acquire(eid);
  auto st = std::make_unique<EdgeState>();
  st->created = true;
  st->lock = LockState::kWrite;
  layout::EdgeView::init(st->buf, origin.vid, target.vid, blocks.block_size());
  st->view.set_num_blocks(1);
  st->view.set_block_addr(0, eid);
  ecache_.emplace(eid.raw(), std::move(st));

  // Anchor records in both endpoint holders point at the heavy holder.
  auto ro = state(origin, true);
  if (!ro.ok()) return ro.status();
  VertexState* ost = *ro;
  VertexState* tst = ost;
  if (target.vid != origin.vid) {
    auto rt = state(target, true);
    if (!rt.ok()) return rt.status();
    tst = *rt;
  }
  if (Status s = ensure_edge_capacity(*ost, 1); !ok(s)) return s;
  auto slot = ost->view.add_edge(EdgeRecord{target.vid, eid, 0, dir, true});
  if (!slot.ok()) return slot.status();
  const bool self_loop_undirected =
      origin.vid == target.vid && dir == Dir::kUndirected;
  if (!self_loop_undirected) {
    if (Status s = ensure_edge_capacity(*tst, 1); !ok(s)) return s;
    auto mslot = tst->view.add_edge(EdgeRecord{origin.vid, eid, 0, mirror_dir(dir), true});
    if (!mslot.ok()) return mslot.status();
  }
  return EdgeHandle{eid};
}

Result<EdgeHandle> Transaction::associate_edge(DPtr eid) {
  auto r = state(EdgeHandle{eid}, false);
  if (!r.ok()) return r.status();
  return EdgeHandle{eid};
}

Result<std::pair<DPtr, DPtr>> Transaction::edge_endpoints(EdgeHandle e) {
  auto r = state(e, false);
  if (!r.ok()) return r.status();
  return std::make_pair((*r)->view.origin(), (*r)->view.target());
}

Status Transaction::add_edge_label(EdgeHandle e, std::uint32_t label_id) {
  return add_label_to<EdgeState>(e.eid, label_id);
}

Status Transaction::remove_edge_label(EdgeHandle e, std::uint32_t label_id) {
  return remove_label_from<EdgeState>(e.eid, label_id);
}

Result<std::vector<std::uint32_t>> Transaction::edge_labels_of(EdgeHandle e) {
  return labels_on<EdgeState>(e.eid);
}

Status Transaction::add_edge_property(EdgeHandle e, std::uint32_t ptype,
                                      const PropValue& value) {
  return put_property<EdgeState>(e.eid, ptype, value, /*replace=*/false);
}

Status Transaction::update_edge_property(EdgeHandle e, std::uint32_t ptype,
                                         const PropValue& value) {
  return put_property<EdgeState>(e.eid, ptype, value, /*replace=*/true);
}

Result<std::vector<PropValue>> Transaction::get_edge_properties(EdgeHandle e,
                                                                std::uint32_t ptype) {
  return properties_on<EdgeState>(e.eid, ptype);
}

// ---------------------------------------------------------------------------
// Indexes
// ---------------------------------------------------------------------------

Result<std::vector<DPtr>> Transaction::local_index_vertices(Index& idx,
                                                            const Constraint* c) {
  if (!active_ || failed_) return Status::kTxnAborted;
  // Batch-fetch the whole candidate shard through the shared lock/fetch path:
  // overlapped lock CAS rounds + two overlapped block batches instead of one
  // serial lock + GET per candidate.
  std::vector<FetchSpec> specs;
  std::unordered_map<std::uint64_t, bool> seen;  // dedup stale duplicates
  for (DPtr cand : idx.candidates(self_, static_cast<std::uint32_t>(self_.id()))) {
    if (seen.contains(cand.raw())) continue;
    seen.emplace(cand.raw(), true);
    specs.push_back(FetchSpec{cand, /*write=*/false, /*required=*/true});
  }
  std::vector<Status> per(specs.size(), Status::kOk);
  if (Status s = fetch_batch<VertexState>(specs, per); !ok(s)) return s;
  std::vector<DPtr> out;
  for (std::size_t j = 0; j < specs.size(); ++j) {
    if (!ok(per[j])) continue;  // stale entry (deleted vertex)
    VertexState* st = vcache_.find(specs[j].id.raw())->second.get();
    if (st->deleted) continue;
    if (!idx.matches(st->view)) continue;  // stale entry (re-labeled vertex)
    if (c != nullptr && !c->matches(st->view)) continue;
    out.push_back(specs[j].id);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Capacity management
// ---------------------------------------------------------------------------

Status Transaction::ensure_edge_capacity(VertexState& st, std::uint32_t extra) {
  auto& v = st.view;
  const std::uint32_t free_slots = v.edge_capacity() - v.live_edge_count();
  if (free_slots >= extra) return Status::kOk;
  const std::size_t B = db_->config().block.block_size;
  const std::uint32_t new_edge_cap =
      std::max({v.edge_capacity() * 2, v.edge_capacity() + extra, 8u});
  // Fixed-point for the table capacity: more blocks need a bigger table,
  // which itself needs more space.
  std::uint32_t tcap = std::max(v.table_capacity(), v.num_blocks());
  for (int i = 0; i < 4; ++i) {
    const std::size_t total =
        layout::VertexView::required_size(tcap, new_edge_cap, v.prop_capacity());
    const auto blocks_needed = static_cast<std::uint32_t>(div_up(total, B));
    if (blocks_needed <= tcap) break;
    tcap = blocks_needed;
  }
  if (tcap > max_table_cap()) return Status::kNoSpace;  // degree limit reached
  return v.reshape(tcap, new_edge_cap, v.prop_capacity());
}

Status Transaction::ensure_prop_capacity(VertexState& st, std::uint32_t extra) {
  auto& v = st.view;
  if (v.prop_capacity() - v.prop_used() >= extra + 8) return Status::kOk;
  const std::size_t B = db_->config().block.block_size;
  const std::uint32_t new_prop_cap =
      std::max({v.prop_capacity() * 2, v.prop_used() + extra + 16, 64u});
  std::uint32_t tcap = std::max(v.table_capacity(), v.num_blocks());
  for (int i = 0; i < 4; ++i) {
    const std::size_t total =
        layout::VertexView::required_size(tcap, v.edge_capacity(), new_prop_cap);
    const auto blocks_needed = static_cast<std::uint32_t>(div_up(total, B));
    if (blocks_needed <= tcap) break;
    tcap = blocks_needed;
  }
  if (tcap > max_table_cap()) return Status::kNoSpace;
  return v.reshape(tcap, v.edge_capacity(), new_prop_cap);
}

Status Transaction::ensure_prop_capacity(EdgeState& st, std::uint32_t extra) {
  auto& v = st.view;
  if (v.prop_capacity() - v.prop_used() >= extra + 8) return Status::kOk;
  const std::size_t B = db_->config().block.block_size;
  const std::uint32_t new_prop_cap =
      std::max({v.prop_capacity() * 2, v.prop_used() + extra + 16, 64u});
  const std::size_t total = layout::EdgeView::required_size(new_prop_cap);
  if (div_up(total, B) > layout::EdgeView::kMaxBlocks) return Status::kNoSpace;
  return v.reshape(new_prop_cap);
}

// ---------------------------------------------------------------------------
// Commit / abort
// ---------------------------------------------------------------------------

template <class S>
Status Transaction::sync_blocks(DPtr id, S& st) {
  auto& blocks = db_->blocks();
  const std::size_t B = blocks.block_size();
  const auto needed = static_cast<std::uint32_t>(div_up(st.buf.size(), B));
  const std::uint32_t cur = st.view.num_blocks();
  if (needed > S::max_blocks(st.view, B)) return Status::kOutOfMemory;
  for (std::uint32_t i = cur; i < needed; ++i) {
    // Prefer the holder's own rank; spill round-robin when its pool is full
    // (blocks of one holder may live on different processes, paper 5.3).
    DPtr blk;
    for (int attempt = 0; attempt < db_->nranks() && blk.is_null(); ++attempt) {
      blk = blocks.acquire(
          self_, (id.rank() + static_cast<std::uint32_t>(attempt)) %
                     static_cast<std::uint32_t>(db_->nranks()));
    }
    if (blk.is_null()) return Status::kOutOfMemory;
    if (db_->config().wal) wal_rec_.acquire(blk);
    // A recycled block may still be cached under its previous owner.
    blk_cache_.erase(blk.raw());
    scache_invalidate(blk);
    st.view.set_block_addr(i, blk);
  }
  for (std::uint32_t i = needed; i < cur; ++i)
    shrink_release_.push_back(st.view.block_addr(i));  // recycled in phase 5
  if (needed != cur) st.view.set_num_blocks(needed);
  return Status::kOk;
}

template <class S>
void Transaction::writeback(DPtr id, S& st) {
  // The window bytes change now: no shared snapshot of this holder survives
  // (remote copies die via the version bump at write_unlock).
  scache_invalidate(id);
  auto& blocks = db_->blocks();
  const std::size_t B = blocks.block_size();
  const std::size_t total = st.buf.size();
  // Convert the (up to two) dirty byte ranges into a dirty block set and
  // write back only those blocks (paper 5.6: tracking of dirty blocks).
  std::array<std::pair<std::size_t, std::size_t>, 2> spans{};  // [b0, b1)
  if (st.created) {
    spans[0] = {0, div_up(total, B)};
  } else {
    const auto ranges = st.view.dirty_ranges();
    for (std::size_t i = 0; i < 2; ++i) {
      if (ranges[i].empty()) continue;
      const std::size_t hi = std::min(ranges[i].hi, total);
      if (ranges[i].lo >= hi) continue;
      spans[i] = {ranges[i].lo / B, div_up(hi, B)};
    }
    if (spans[1].second > spans[1].first && spans[0].second > spans[0].first &&
        spans[1].first < spans[0].second && spans[0].first < spans[1].second) {
      // Overlapping block spans: merge to avoid writing a block twice.
      spans[0] = {std::min(spans[0].first, spans[1].first),
                  std::max(spans[0].second, spans[1].second)};
      spans[1] = {0, 0};
    }
  }
  // Dirty blocks ride the nonblocking engine: commit_local completes every
  // holder's PUTs with one flush_all instead of one flush per holder.
  bool wrote = false;
  for (const auto& [b0, b1] : spans) {
    for (std::size_t b = b0; b < b1 && b < st.view.num_blocks(); ++b) {
      const DPtr blk = b == 0 ? id : st.view.block_addr(b);
      if (blk.rank() != id.rank()) wb_cross_rank_ = true;  // spilled block
      const std::size_t off = b * B;
      const std::size_t n = std::min(B, total - off);
      if (db_->config().wal)
        wal_rec_.image(blk, 0, std::span<const std::byte>(st.buf.data() + off, n));
      if (batching_enabled()) blocks.write_nb(self_, blk, 0, st.buf.data() + off, n);
      else blocks.write(self_, blk, 0, st.buf.data() + off, n);
      wrote = true;
    }
  }
  if (wrote && !batching_enabled()) blocks.flush(self_, id.rank());
  st.view.reset_dirty();
  memo_block_table<S>(id, st.view);  // the table sync_blocks settled
}

void Transaction::release_locks(bool write_through) {
  // With batching on, unlocks ride the nonblocking engine fire-and-forget:
  // no agent observes *our* completion (a racing CAS that lands before an
  // unlock just retries), so the round's cost is absorbed by whichever
  // completion point comes next instead of paying one serial latency per
  // held lock -- the last serial leg of the read hot path. Writeback PUTs
  // either were flushed before this point or target the same rank as the
  // lock word they precede (commit_local's pipeline eligibility rule), so a
  // write unlock never overtakes its data (the RDMA same-destination
  // ordering a real backend needs too).
  //
  // Write-through (commit only): a write unlock fetches the word it
  // released, and the committed holder bytes -- which the write bit proves
  // no other agent could touch since the writeback -- are re-stamped into
  // the shared cache under the fetched post-unlock version. The rank's own
  // write set thus survives its own commits instead of going cold.
  const bool nb = batching_enabled();
  const bool wt = write_through && db_->config().scache_write_through &&
                  scache() != nullptr;
  auto& blocks = db_->blocks();
  for_each_holder([&](DPtr id, auto& st) {
    if (st.lock == LockState::kWrite) {
      if (wt && !st.deleted) {
        const std::uint64_t v = blocks.write_unlock_fetch(self_, id, nb);
        scache_restamp(id, st.buf, v, std::remove_reference_t<decltype(st)>::kIsEdge);
      } else {
        nb ? blocks.write_unlock_nb(self_, id) : blocks.write_unlock(self_, id);
      }
    }
    if (st.lock == LockState::kRead)
      nb ? blocks.read_unlock_nb(self_, id) : blocks.read_unlock(self_, id);
    st.lock = LockState::kNone;
  });
}

Status Transaction::commit_local() {
  wb_cross_rank_ = false;
  const std::uint64_t wb_bytes_before = self_.counters().bytes_put;

  // Phase 1: make physical block allocation match every buffered holder.
  Status synced = Status::kOk;
  for_each_holder([&](DPtr id, auto& st) {
    if (!ok(synced) || st.deleted) return;
    if (st.lock != LockState::kWrite && !st.created) return;
    if (!st.created && !st.view.is_dirty()) return;
    synced = sync_blocks(id, st);
  });
  if (!ok(synced)) {
    failed_ = true;
    abort();
    return synced;
  }

  // Phase 2: write back dirty blocks ("all dirty blocks or none", paper 5.6).
  for_each_holder([&](DPtr id, auto& st) {
    if (!st.deleted && (st.created || st.view.is_dirty())) writeback(id, st);
  });

  // Phase 3: deleted holders -- publish the tombstone (a vertex's invalid
  // primary block, an edge's cleared valid flag) so racing readers observe
  // deletion, then remember the blocks for post-unlock release.
  std::vector<DPtr> to_release;
  auto& blocks = db_->blocks();
  const std::size_t B = blocks.block_size();
  for_each_holder([&](DPtr id, auto& st) {
    if (!st.deleted) return;
    scache_invalidate(id);
    if (auto* sc = scache(); sc != nullptr) sc->remember_block_table(id, {});
    if (!st.created) {
      const auto [off, n] = std::remove_reference_t<decltype(st)>::tombstone(B, st.buf.size());
      const std::byte* src = st.buf.data() + off;
      if (db_->config().wal) wal_rec_.image(id, off, std::span<const std::byte>(src, n));
      if (batching_enabled()) {
        blocks.write_nb(self_, id, off, src, n);
      } else {
        blocks.write(self_, id, off, src, n);
        blocks.flush(self_, id.rank());
      }
    }
    for (std::uint32_t i = 0; i < st.view.num_blocks(); ++i)
      to_release.push_back(i == 0 ? id : st.view.block_addr(i));
  });
  // Writeback completion. The pre-pipeline contract: every dirty-block and
  // deletion PUT issued above (phases 2-3) completes here with a single
  // overlapped flush before anything publishes and before locks release.
  // *Eligible* commits instead defer that fence into the rank's group-commit
  // pipeline: the epoch-close flush (or any earlier completion point)
  // absorbs a whole stream of commits' PUTs and unlock FAAs at one
  // overlapped cost. Eligibility (see commit_pipeline.hpp for the ordering
  // argument): local scope, no DHT publications (creates make holders
  // reachable by ranks that never touch our locks), no deletions (released
  // blocks may be rewritten by their next owner), and no dirty block on a
  // rank other than its holder's lock rank (same-destination NIC ordering is
  // what lets the unlock trail its writeback).
  // Only commits that actually issued writeback have a fence to defer:
  // read-only (and clean write-locked) commits keep their pre-pipeline
  // shape -- no flush, unlock FAAs fire-and-forget -- and must not consume
  // epoch slots or drag epoch-close fences into read streams.
  const std::uint64_t wb_bytes = self_.counters().bytes_put - wb_bytes_before;
  CommitPipeline* pipeline = db_->commit_pipeline(self_);
  bool defer = pipeline != nullptr && batching_enabled() && wb_bytes > 0 &&
               scope_ == TxnScope::kLocal && to_release.empty() &&
               shrink_release_.empty() && !wb_cross_rank_;
  if (defer) {
    for (auto& [raw, st] : vcache_) {
      if (st->created && !st->deleted) {
        defer = false;  // publishes to the DHT below
        break;
      }
    }
  }
  // The eager flush fences *this commit's* work (its writeback, any
  // recycling -- deletion's or a shrink's: a freed block's next owner may
  // rewrite it, so no PUT to it, ours or an open epoch's, may remain in
  // flight -- and, kept conservatively, any collective commit's
  // barrier-visible state). A commit with nothing of its own to fence must
  // not flush: the rank's pending queue may hold another commit's open
  // flush epoch, and a read-only commit force-closing it would undo the
  // amortization on every mixed read/write stream.
  const bool must_fence = wb_bytes > 0 || !to_release.empty() ||
                          !shrink_release_.empty() ||
                          scope_ == TxnScope::kCollective;
  if (batching_enabled() && self_.pending_nb_ops() > 0 && !defer && must_fence)
    (void)self_.flush_all();

  // Phase 4: internal DHT index (app id -> DPtr) and explicit indexes. All
  // created vertices publish through one insert_many (overlapped field
  // writes + head-CAS rounds) instead of one insert latency chain each.
  auto& dht = db_->id_index();
  std::vector<std::uint64_t> pub_keys, pub_vals;
  for (auto& [raw, st] : vcache_) {
    if (st->created && !st->deleted) {
      pub_keys.push_back(st->view.app_id());
      pub_vals.push_back(raw);
    } else if (st->deleted && !st->created) {
      if (db_->config().wal) wal_rec_.dht_erase(st->view.app_id());
      (void)dht.erase(self_, st->view.app_id());
    }
  }
  if (!pub_keys.empty()) {
    std::vector<std::uint8_t> pub_ok;
    if (batching_enabled() && pub_keys.size() > 1) {
      pub_ok = dht.insert_many(self_, pub_keys, pub_vals);
    } else {
      pub_ok.assign(pub_keys.size(), 0);
      for (std::size_t i = 0; i < pub_keys.size(); ++i) {
        if (!dht.insert(self_, pub_keys[i], pub_vals[i])) break;
        pub_ok[i] = 1;
      }
    }
    bool pub_failed = false;
    for (std::uint8_t okf : pub_ok) pub_failed = pub_failed || okf == 0;
    if (pub_failed) {
      // Partial publication must not leak translations to released blocks.
      for (std::size_t i = 0; i < pub_keys.size(); ++i)
        if (pub_ok[i]) (void)dht.erase(self_, pub_keys[i]);
      // Shrink-shed blocks must still recycle on this exit: their shrunk
      // headers were written back and fenced above, so nothing references
      // them -- and abort() below must not do it (it also serves
      // pre-writeback failures, where the window holders still do).
      for (DPtr blk : shrink_release_) blocks.release(self_, blk);
      shrink_release_.clear();
      failed_ = true;
      abort();
      return Status::kOutOfMemory;
    }
    if (db_->config().wal)
      for (std::size_t i = 0; i < pub_keys.size(); ++i)
        wal_rec_.dht_insert(pub_keys[i], pub_vals[i]);
  }
  const auto& indexes = db_->indexes();
  for (auto& [raw, st] : vcache_) {
    if (st->deleted) continue;
    if (st->lock != LockState::kWrite && !st->created) continue;
    const DPtr vid{raw};
    for (std::size_t i = 0; i < indexes.size(); ++i) {
      const bool was = i < st->orig_index_match.size() && st->orig_index_match[i] != 0;
      if (!was && indexes[i]->matches(st->view))
        (void)indexes[i]->append(self_, vid.rank(), vid);
    }
  }

  // Write-ahead point: the redo record -- acquires logged as they happened,
  // the images/DHT intents above, plus the version bumps and block releases
  // the lines below are about to perform -- hits the rank's log *before* the
  // unlock FAAs make any of it observable. Recovery re-executes the record
  // in this order, which reproduces allocator and lock-word state exactly
  // (see README "Durability protocol").
  wal::WalWriter* walw = db_->wal(self_);
  bool wal_appended = false;
  if (walw != nullptr && !wal_rec_.empty()) {
    for_each_holder([&](DPtr id, auto& st) {
      if (st.lock == LockState::kWrite) wal_rec_.lock_bump(id);
    });
    for (DPtr blk : to_release) wal_rec_.release(blk);
    for (DPtr blk : shrink_release_) wal_rec_.release(blk);
    // Networked tenants: the acknowledgement the client will receive rides
    // the same durable record as the commit itself, so a crash between
    // durability and reply transmission recovers the reply (exactly-once
    // across restarts; see Listener::restore_completion).
    if (ack_tenant_ != 0)
      wal_rec_.tenant_ack(ack_tenant_, ack_tag_,
                          static_cast<std::uint8_t>(ack_status_), ack_v0_,
                          ack_v1_);
    wal_appended = walw->append(self_, wal_rec_) != 0;
    wal_rec_.clear();
    // Fold the ack into the listener's replay state now, before the seal
    // points below: a checkpoint is always cut at a seal, so folding here
    // guarantees its trailer covers every ack of every commit in its image
    // (harvest-time folding alone leaves a commit-to-harvest window a
    // checkpoint could split, stranding the ack in a truncated epoch).
    if (wal_appended && ack_tenant_ != 0)
      db_->net_ack_durable(self_, ack_tenant_, ack_tag_, ack_status_, ack_v0_,
                           ack_v1_);
  }

  // Phase 5: unlock (write-through re-stamps ride the fetch-flavored
  // unlocks), then recycle deleted holders' and shrink-shed blocks (both
  // unreferenced since the fenced phase-2/3 writeback; shed tails carry no
  // held lock words -- only primaries are locked -- so release order with
  // the unlocks is free).
  release_locks(/*write_through=*/true);
  for (DPtr blk : to_release) blocks.release(self_, blk);
  for (DPtr blk : shrink_release_) blocks.release(self_, blk);
  shrink_release_.clear();

  // The commit is logically complete once its unlocks are issued; mark the
  // transaction finished *before* the seal points below, whose armed kill
  // switches may throw FaultKill -- the destructor must not re-abort (and
  // double-release) a committed transaction during that unwind.
  blk_cache_.clear();  // cache lifetime ends with the transaction
  active_ = false;

  // Deferred commits enroll in the shared flush epoch *after* their unlocks
  // are issued, so the epoch-close flush fences the whole commit -- PUTs and
  // unlock round together.
  if (defer) (void)pipeline->enroll(self_, wb_bytes);

  // Durability unit = flush epoch. Deferred commits ride the pipeline's
  // close hook (sealed when their epoch closes); everything else seals its
  // log epoch now -- the commit's visibility fence already ran above.
  if (wal_appended && !defer) db_->wal_epoch_close(self_);

  return Status::kOk;
}

Status Transaction::commit() {
  if (!active_) return Status::kTxnAborted;
  if (scope_ == TxnScope::kCollective) {
    // Commit-time agreement: if any rank's local part failed, all abort.
    const bool any_fail = self_.allreduce_or(failed_);
    if (any_fail) {
      abort();
      self_.barrier();
      return failed_ ? Status::kTxnConflict : Status::kTxnAborted;
    }
    const Status s = commit_local();
    self_.barrier();
    return s;
  }
  if (failed_) {
    abort();
    return Status::kTxnConflict;
  }
  return commit_local();
}

void Transaction::abort() {
  if (!active_) return;
  // No write-through on abort: the buffered holder bytes diverged from the
  // window the moment the first write op ran; only the version bump is real.
  release_locks(/*write_through=*/false);
  auto& blocks = db_->blocks();
  // Created holders never became visible; return their blocks.
  for_each_holder([&](DPtr id, auto& st) {
    if (!st.created) return;
    for (std::uint32_t i = 0; i < st.view.num_blocks(); ++i)
      blocks.release(self_, i == 0 ? id : st.view.block_addr(i));
  });
  // Shrink-shed blocks are NOT released: their writeback never ran, so the
  // window holders still reference them (releasing would hand live blocks
  // to the allocator -- the pre-pipeline code had exactly that bug).
  shrink_release_.clear();
  // Nothing this transaction did becomes durable (the byte-equality contract
  // covers no-abort streams: an abort's lock-version bumps and block
  // pop/push cycles are real but unlogged).
  wal_rec_.clear();
  vcache_.clear();
  ecache_.clear();
  created_ids_.clear();
  blk_cache_.clear();
  active_ = false;
}

// BatchScope::execute drives the pipeline for both holder kinds.
template Status Transaction::fetch_batch<Transaction::VertexState>(std::span<const FetchSpec>,
                                                                   std::span<Status>);
template Status Transaction::fetch_batch<Transaction::EdgeState>(std::span<const FetchSpec>,
                                                                 std::span<Status>);
template bool Transaction::populate_block_cache<Transaction::VertexState>(
    std::span<const DPtr>, std::unordered_set<std::uint64_t>*, std::span<const Primed>);

}  // namespace gdi
