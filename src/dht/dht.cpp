#include "dht/dht.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <unordered_set>

namespace gdi::dht {

std::shared_ptr<DistributedHashTable> DistributedHashTable::create(
    rma::Rank& self, const DhtConfig& cfg) {
  return self.collective_make<DistributedHashTable>(
      [&] { return std::make_shared<DistributedHashTable>(self.nranks(), cfg); });
}

DistributedHashTable::DistributedHashTable(int nranks, const DhtConfig& cfg)
    : cfg_(cfg),
      nranks_(nranks),
      table_seg_(cfg.buckets_per_rank * 8),
      heap_seg_((cfg.entries_per_rank + 1) * kEntrySize),
      table_(nranks, table_seg_,
             std::clamp<std::size_t>(cfg.max_shards, 1, kMaxShardCap)),
      heap_(nranks, heap_seg_,
            std::clamp<std::size_t>(cfg.max_shards, 1, kMaxShardCap)),
      dir_(nranks, kDirBytes),
      local_(static_cast<std::size_t>(nranks)) {
  cfg_.max_shards = std::clamp<std::size_t>(cfg_.max_shards, 1, kMaxShardCap);
  assert(cfg_.buckets_per_rank > 0);
  // Entry references must stay addressable through a 48-bit DPtr offset.
  assert(cfg_.max_shards * heap_seg_ <= DPtr::kMaxOffset);
  // A fresh all-zero segment is a valid empty shard (empty buckets, empty
  // free stack, zero watermark), so only the shard directory needs nonzero
  // initial values. Construction happens-before the collective publication.
  auto* dir = reinterpret_cast<std::uint64_t*>(dir_.local_base(0));
  dir[kDirShardsOff / 8] = 1;
  dir[kDirCleanOff / 8] = 1;
  dir[kDirPendingOff / 8] = 1;
}

DistributedHashTable::BucketLoc DistributedHashTable::locate(std::uint64_t key) const {
  const std::uint64_t h = splitmix64(key ^ cfg_.salt);
  const std::uint64_t total = static_cast<std::uint64_t>(nranks_) * cfg_.buckets_per_rank;
  const std::uint64_t g = h % total;
  return BucketLoc{static_cast<std::uint32_t>(g / cfg_.buckets_per_rank),
                   (g % cfg_.buckets_per_rank) * 8};
}

std::uint32_t DistributedHashTable::home_shard(std::uint64_t h2, std::uint32_t n) {
  assert(n >= 1);
  // Linear hashing: split the address space by h2 mod 2^(L+1); addresses that
  // land beyond the published count fold back to the unsplit parent bucket
  // (h2 mod 2^L). Growing n -> n+1 therefore moves only the keys of the one
  // shard whose range splits.
  const std::uint32_t L = static_cast<std::uint32_t>(std::bit_width(n)) - 1;
  std::uint64_t c = h2 & ((std::uint64_t{2} << L) - 1);
  if (c >= n) c = h2 & ((std::uint64_t{1} << L) - 1);
  return static_cast<std::uint32_t>(c);
}

DistributedHashTable::Candidates DistributedHashTable::candidates(
    std::uint64_t h2, std::uint32_t clean, std::uint32_t shards) const {
  Candidates cs;
  if (clean == 0) clean = 1;
  if (shards == 0) shards = 1;
  // Newest placement first, so the bucket a later insert would have used is
  // probed before any older fallback -- "latest insert wins" across splits.
  for (std::uint32_t m = shards; m >= clean; --m) {
    const std::uint32_t s = home_shard(h2, m);
    bool dup = false;
    for (std::uint32_t i = 0; i < cs.n; ++i) {
      if (cs.shard[i] == s) {
        dup = true;
        break;
      }
    }
    if (!dup) cs.shard[cs.n++] = s;
  }
  // The whole point of the partition: a compacted table resolves every key
  // from exactly one bucket.
  assert(clean != shards || cs.n == 1);
  return cs;
}

// ---------------------------------------------------------------------------
// Shard directory
// ---------------------------------------------------------------------------

std::uint64_t DistributedHashTable::refresh_dir(rma::Rank& self) {
  std::uint64_t s = 0, c = 0, p = 0, stamp = 0;
  (void)dir_.atomic_get_u64_nb(self, 0, kDirStampOff, &stamp);
  (void)dir_.atomic_get_u64_nb(self, 0, kDirShardsOff, &s);
  (void)dir_.atomic_get_u64_nb(self, 0, kDirCleanOff, &c);
  (void)dir_.atomic_get_u64_nb(self, 0, kDirPendingOff, &p);
  (void)self.flush_all();
  auto& rl = local_[static_cast<std::size_t>(self.id())];
  const auto sn = static_cast<std::uint32_t>(s);
  if (sn > rl.shards) {
    // Commit the reserved window segments backing the newly published shards
    // before addressing them (registration bookkeeping; see Window).
    (void)table_.ensure_segments(self, sn);
    (void)heap_.ensure_segments(self, sn);
    rl.shards = sn;
  }
  rl.clean = std::max(rl.clean, static_cast<std::uint32_t>(c));
  rl.pending = std::max(rl.pending, static_cast<std::uint32_t>(p));
  return stamp;
}

bool DistributedHashTable::grow(rma::Rank& self) {
  auto& rl = local_[static_cast<std::size_t>(self.id())];
  const std::uint32_t before = rl.shards;
  (void)refresh_dir(self);
  if (rl.shards > before) return true;  // a racer already published
  if (before >= cfg_.max_shards) return false;
  // Commit memory for shard `before` on every rank, then publish it with one
  // one-sided CAS on the directory word. A fresh segment is already a valid
  // empty shard, so no initialization writes are needed -- losing the CAS
  // race is harmless (the winner published the same all-zero shard).
  (void)table_.ensure_segments(self, before + 1);
  (void)heap_.ensure_segments(self, before + 1);
  (void)dir_.cas_u64(self, 0, kDirShardsOff, before, before + 1);
  (void)refresh_dir(self);  // pick up our publication or the racer's
  return true;
}

std::uint32_t DistributedHashTable::shard_count(rma::Rank& self) {
  return refresh_shards(self);
}

std::uint32_t DistributedHashTable::clean_shard_count(rma::Rank& self) {
  (void)refresh_dir(self);
  return local_[static_cast<std::size_t>(self.id())].clean;
}

// ---------------------------------------------------------------------------
// Entry heap
// ---------------------------------------------------------------------------

DPtr DistributedHashTable::pop_free(rma::Rank& self, std::uint32_t target,
                                    std::uint32_t shard) {
  std::uint64_t head =
      heap_.atomic_get_u64(self, target, ctrl_off(shard) + kFreeHeadOff);
  for (;;) {
    const std::uint64_t idx = head & kIdxMask;
    if (idx == 0) return DPtr{};  // empty (slot 0 is the control slot)
    const std::uint64_t tag = head >> 48;
    const std::uint64_t next =
        heap_.atomic_get_u64(self, target, entry_off(shard, idx) + kNextOff);
    const std::uint64_t new_head = ((tag + 1) << 48) | (next & kIdxMask);
    const std::uint64_t old = heap_.cas_u64(self, target, ctrl_off(shard) + kFreeHeadOff,
                                            head, new_head);
    if (old == head) {
      self.counters().dht_reclaimed += 1;
      return DPtr{target, entry_off(shard, idx)};
    }
    head = old;
  }
}

DPtr DistributedHashTable::alloc_entry(rma::Rank& self, std::uint32_t prefer,
                                       bool allow_grow) {
  const auto target = static_cast<std::uint32_t>(self.id());
  auto& rl = local_[target];
  // Periodically forget cached free-stack emptiness: remote ranks free
  // entries into our heap without telling us, and those slots must not stay
  // stranded behind a stale local hint.
  if ((++rl.alloc_tick & 0xFFu) == 0) rl.free_empty = 0;
  for (;;) {
    const std::uint32_t known = rl.shards;
    const std::uint32_t pref = prefer < known ? prefer : known - 1;
    auto try_shard = [&](std::uint32_t s) -> DPtr {
      const std::uint64_t bit = std::uint64_t{1} << s;
      if ((rl.free_empty & bit) == 0) {
        if (DPtr e = pop_free(self, target, s); !e.is_null()) return e;
        rl.free_empty |= bit;
      }
      if ((rl.wm_full & bit) == 0) {
        const std::uint64_t w =
            heap_.faa_u64(self, target, ctrl_off(s) + kWatermarkOff, 1);
        if (w < cfg_.entries_per_rank) return DPtr{target, entry_off(s, w + 1)};
        rl.wm_full |= bit;  // watermarks never shrink: sticky until restore
      }
      return DPtr{};
    };
    // The key's home shard first (keeps an entry's heap slot near its bucket
    // partition), then every other published shard newest-first.
    if (DPtr e = try_shard(pref); !e.is_null()) return e;
    for (std::uint32_t s = known; s-- > 0;) {
      if (s == pref) continue;
      if (DPtr e = try_shard(s); !e.is_null()) return e;
    }
    // Every cached-usable slot is gone. Re-probe every free stack once --
    // freed capacity (including slots freed by other ranks since we cached
    // emptiness) is always consumed before the table grows.
    rl.free_empty = 0;
    for (std::uint32_t s = known; s-- > 0;) {
      if (DPtr e = pop_free(self, target, s); !e.is_null()) return e;
      rl.free_empty |= std::uint64_t{1} << s;
    }
    // Migration must never inflate the directory: growing mid-pass would
    // raise S above the pass target and leave the table dirty forever, so
    // compaction pauses (kNoSpace) until erases free capacity instead.
    if (!allow_grow && rl.shards == known) return DPtr{};
    if (rl.shards == known && !grow(self)) return DPtr{};
    // grow() (or a racer observed by it) published a fresh shard; retry.
  }
}

void DistributedHashTable::dealloc_entry(rma::Rank& self, DPtr e) {
  // Bump the generation first so stale references fail their tag check.
  const std::uint64_t gen = field(self, e, kGenOff);
  set_field(self, e, kGenOff, gen + 1);
  const std::uint32_t target = e.rank();
  const std::uint32_t shard = shard_of(e);
  const std::uint64_t idx = (e.offset() - ctrl_off(shard)) / kEntrySize;
  std::uint64_t head =
      heap_.atomic_get_u64(self, target, ctrl_off(shard) + kFreeHeadOff);
  for (;;) {
    const std::uint64_t tag = head >> 48;
    set_field(self, e, kNextOff, head & kIdxMask);
    const std::uint64_t new_head = ((tag + 1) << 48) | idx;
    const std::uint64_t old = heap_.cas_u64(self, target, ctrl_off(shard) + kFreeHeadOff,
                                            head, new_head);
    if (old == head) break;
    head = old;
  }
  if (target == static_cast<std::uint32_t>(self.id())) {
    // Our own heap regained a slot: drop the local emptiness hint.
    local_[target].free_empty &= ~(std::uint64_t{1} << shard);
  }
}

// ---------------------------------------------------------------------------
// Insert
// ---------------------------------------------------------------------------

bool DistributedHashTable::insert(rma::Rank& self, std::uint64_t key,
                                  std::uint64_t value) {
  const BucketLoc b = locate(key);
  const std::uint64_t h2 = shard_hash(key);
  auto& rl = local_[static_cast<std::size_t>(self.id())];
  // Fresh placement count: one overlapped directory round. Placement counts
  // are globally monotone across committed-before inserts (a later insert of
  // the same key never places under an older count), which is what makes
  // "latest insert wins" hold across splits with no per-rank staleness.
  (void)refresh_dir(self);
  const DPtr e = alloc_entry(self, home_shard(h2, rl.shards));
  if (e.is_null()) return false;  // shard cap reached with every shard full
  // alloc_entry may have refreshed the directory again (growth); place under
  // the newest count this rank has proof of.
  const std::uint32_t placed = rl.shards;
  const std::uint32_t home = home_shard(h2, placed);
  const std::uint64_t gen = field(self, e, kGenOff);
  set_field(self, e, kKeyOff, key);
  set_field(self, e, kValOff, value);
  heap_.flush(self, e.rank());
  // Publish into the key's home bucket.
  const std::uint64_t off = bucket_off(home, b);
  std::uint64_t head = table_.atomic_get_u64(self, b.rank, off);
  for (;;) {  // Listing 4, insert: prepend with CAS on the bucket head.
    set_field(self, e, kNextOff, head);
    const std::uint64_t old = table_.cas_u64(self, b.rank, off, head,
                                             make_ref(e, gen).word);
    if (old == head) break;
    head = old;
  }
  (void)heap_.faa_u64(self, e.rank(), ctrl_off(shard_of(e)) + kLiveCountOff, 1);
  ensure_covered(self, key, h2, b, e, placed);
  return true;
}

bool DistributedHashTable::insert_if_absent(rma::Rank& self, std::uint64_t key,
                                            std::uint64_t value) {
  if (lookup(self, key).has_value()) return false;
  return insert(self, key, value);
}

void DistributedHashTable::ensure_covered(rma::Rank& self, std::uint64_t key,
                                          std::uint64_t h2, const BucketLoc& b,
                                          DPtr e, std::uint32_t placed) {
  auto& rl = local_[static_cast<std::size_t>(self.id())];
  for (;;) {
    // One overlapped directory round, strictly after the link CAS: if a
    // compaction pass published a pending-clean target above our placement
    // before scanning our bucket, this read observes it.
    (void)refresh_dir(self);
    if (placed >= rl.pending) return;  // placement within [P, S]: covered
    const std::uint32_t cur = home_shard(h2, placed);
    const Candidates cs = candidates(h2, rl.pending, rl.shards);
    bool covered = false;
    for (std::uint32_t i = 0; i < cs.n; ++i) {
      if (cs.shard[i] == cur) {
        covered = true;
        break;
      }
    }
    if (covered) return;
    // A pass targeting P > placed may already have scanned (and missed) our
    // bucket: rehome our own entry to the newest count. Prefer the copy-based
    // migrate_entry (publish-before-unlink): a concurrent reader may already
    // have returned this key, so it must never be transiently absent. Only
    // when the heap cannot supply a slot does the in-place unlink/re-link
    // fallback below run, with a stamp bump covering its visibility gap.
    const std::uint32_t fresh = rl.shards;
    const std::uint32_t dst = home_shard(h2, fresh);
    const std::uint64_t src_off = bucket_off(cur, b);
  restart:
    bool prev_is_bucket = true;
    DPtr prev;
    Ref ref{table_.atomic_get_u64(self, b.rank, src_off)};
    std::uint64_t next = 0, gen_e = 0;
    bool found = false;
    while (!ref.is_null()) {
      const DPtr ce = ref.ptr();
      next = field(self, ce, kNextOff);
      gen_e = field(self, ce, kGenOff);
      if ((gen_e & kTagMask) != ref.tag()) goto restart;
      if (Ref{next}.marked()) {
        if (ce.raw() == e.raw()) return;  // an eraser/migrator owns it now
        goto restart;  // predecessor in flux; re-read the chain
      }
      if (ce.raw() == e.raw()) {
        found = true;
        break;
      }
      prev_is_bucket = false;
      prev = ce;
      ref = Ref{next};
    }
    if (!found) return;  // erased or already rehomed by a concurrent pass
    {
      DPtr moved;
      const MigrateResult mr =
          migrate_entry(self, b, cur, dst, e, ref, next, key, &moved);
      if (mr == MigrateResult::kMoved) {
        e = moved;
        placed = fresh;
        continue;  // outer loop: re-verify against a fresh directory read
      }
      if (mr == MigrateResult::kRaced) goto restart;
      // kNoSpace: fall through to the in-place rehome (reuses our slot).
    }
    // CAS 1: mark our entry (freezes it; only we may unlink it now).
    if (heap_.cas_u64(self, e.rank(), e.offset() + kNextOff, next,
                      Ref{next}.marked_ref().word) != next)
      goto restart;
    // Post-mark revalidation, same ABA guard as migrate_entry: the CAS can
    // land on a recycled slot whose next word matches. Frozen under the
    // mark, so one overlapped read decides.
    {
      std::uint64_t gen_now = 0, key_now = 0;
      (void)heap_.atomic_get_u64_nb(self, e.rank(), e.offset() + kGenOff, &gen_now);
      (void)heap_.atomic_get_u64_nb(self, e.rank(), e.offset() + kKeyOff, &key_now);
      (void)self.flush_all();
      if ((gen_now & kTagMask) != ref.tag() || key_now != key) {
        (void)heap_.cas_u64(self, e.rank(), e.offset() + kNextOff,
                            Ref{next}.marked_ref().word, next);
        goto restart;
      }
      gen_e = gen_now;
    }
    // CAS 2: unlink.
    for (;;) {
      std::uint64_t old;
      if (prev_is_bucket) {
        old = table_.cas_u64(self, b.rank, src_off, ref.word, next);
      } else {
        old = heap_.cas_u64(self, prev.rank(), prev.offset() + kNextOff,
                            ref.word, next);
      }
      if (old == ref.word) break;
      // Chain changed under us: re-find our (marked) entry's predecessor.
      unlink_rewalk:
      prev_is_bucket = true;
      Ref cur2{table_.atomic_get_u64(self, b.rank, src_off)};
      bool relocated_ref = false;
      while (!cur2.is_null()) {
        const DPtr ce = cur2.ptr();
        if (ce.raw() == e.raw()) {
          ref = cur2;
          relocated_ref = true;
          break;
        }
        const std::uint64_t cnext = field(self, ce, kNextOff);
        if ((field(self, ce, kGenOff) & kTagMask) != cur2.tag()) goto unlink_rewalk;
        if (Ref{cnext}.marked()) goto unlink_rewalk;
        prev_is_bucket = false;
        prev = ce;
        cur2 = Ref{cnext};
      }
      assert(relocated_ref && "marked entry vanished from its chain");
      if (!relocated_ref) break;  // release-mode safety valve
    }
    // Stamp between unlink and re-link: the key is momentarily in neither
    // bucket, and a dirty-window reader whose miss spans this gap must
    // re-walk (and find the re-linked copy) instead of confirming the miss
    // -- the key may already have been observed by a completed operation.
    (void)dir_.faa_u64(self, 0, kDirStampOff, 1);
    // Re-link under the fresh placement with a bumped generation (stale
    // references from the old chain must fail their tag check).
    set_field(self, e, kGenOff, gen_e + 1);
    const std::uint64_t dst_off = bucket_off(dst, b);
    std::uint64_t head = table_.atomic_get_u64(self, b.rank, dst_off);
    for (;;) {
      set_field(self, e, kNextOff, head);  // also clears our mark
      const std::uint64_t old = table_.cas_u64(self, b.rank, dst_off, head,
                                               make_ref(e, gen_e + 1).word);
      if (old == head) break;
      head = old;
    }
    self.counters().dht_migrated += 1;
    placed = fresh;  // loop: re-verify against a fresh directory read
  }
}

std::vector<std::uint8_t> DistributedHashTable::insert_many(
    rma::Rank& self, std::span<const std::uint64_t> keys,
    std::span<const std::uint64_t> values) {
  assert(keys.size() == values.size());
  std::vector<std::uint8_t> done(keys.size(), 0);
  if (keys.empty()) return done;
  auto& rl = local_[static_cast<std::size_t>(self.id())];

  struct Pending {
    std::size_t i = 0;  ///< index into keys/values
    DPtr e;
    std::uint64_t h2 = 0;
    std::uint32_t home = 0;  ///< bucket shard (home of the key)
    BucketLoc b{};
    std::uint64_t off = 0;   ///< bucket head word offset (within b.rank)
    std::uint64_t gen = 0;
    std::uint64_t head = 0;  ///< expected head for the next CAS round
    std::uint64_t prev = 0;  ///< CAS-observed previous value
    bool linked = false;
  };
  std::vector<Pending> ps;
  ps.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    Pending p;
    p.i = i;
    p.h2 = shard_hash(keys[i]);
    const DPtr e = alloc_entry(self, home_shard(p.h2, rl.shards));
    if (e.is_null()) continue;  // shard cap reached; done[i] stays 0
    p.e = e;
    p.b = locate(keys[i]);
    p.home = home_shard(p.h2, rl.shards);
    p.off = bucket_off(p.home, p.b);
    ps.push_back(p);
  }
  if (ps.empty()) return done;

  // Round 0: every entry's generation word and home-bucket head (reads) plus
  // its key/value fields (writes) ride one overlapped batch with a single
  // flush_all -- the write-side analogue of lookup_many's traversal rounds.
  // The batch's placement count rides the same round: one directory read
  // serves every insert in the batch (fresh-count placement, see insert()).
  // The flush also orders the field writes before any head CAS below, the
  // same publication fence the blocking insert pays per entry.
  std::uint64_t dir_shards = 0;
  (void)dir_.atomic_get_u64_nb(self, 0, kDirShardsOff, &dir_shards);
  for (auto& p : ps) {
    (void)heap_.atomic_get_u64_nb(self, p.e.rank(), p.e.offset() + kGenOff, &p.gen);
    (void)table_.atomic_get_u64_nb(self, p.b.rank, p.off, &p.head);
    (void)heap_.atomic_put_u64_nb(self, p.e.rank(), p.e.offset() + kKeyOff, keys[p.i]);
    (void)heap_.atomic_put_u64_nb(self, p.e.rank(), p.e.offset() + kValOff,
                                  values[p.i]);
  }
  (void)self.flush_all();

  // The directory may have grown past this rank's cached count between the
  // allocations and round 0: re-place the affected entries under the fresh
  // count (their home moved) and re-read just those heads in one extra round.
  const auto placed = static_cast<std::uint32_t>(dir_shards);
  if (placed > rl.shards) {
    (void)table_.ensure_segments(self, placed);
    (void)heap_.ensure_segments(self, placed);
    rl.shards = placed;
  }
  bool rehomed = false;
  for (auto& p : ps) {
    const std::uint32_t home = home_shard(p.h2, rl.shards);
    if (home == p.home) continue;
    p.home = home;
    p.off = bucket_off(home, p.b);
    (void)table_.atomic_get_u64_nb(self, p.b.rank, p.off, &p.head);
    rehomed = true;
  }
  if (rehomed) (void)self.flush_all();
  const std::uint32_t batch_placed = rl.shards;

  // CAS rounds (the try_write_lock_many shape): each still-unlinked insert
  // rewrites its next field to the head it observed and CASes the bucket
  // head; losers carry the observed value into the next round as their new
  // expectation. The next-field write and the CAS share a round -- the NIC
  // orders same-queue-pair operations, matching the blocking path's
  // write-then-CAS order.
  std::size_t remaining = ps.size();
  while (remaining > 0) {
    for (auto& p : ps) {
      if (p.linked) continue;
      (void)heap_.atomic_put_u64_nb(self, p.e.rank(), p.e.offset() + kNextOff, p.head);
      (void)table_.cas_u64_nb(self, p.b.rank, p.off, p.head,
                              make_ref(p.e, p.gen).word, &p.prev);
    }
    (void)self.flush_all();
    for (auto& p : ps) {
      if (p.linked) continue;
      if (p.prev == p.head) {
        p.linked = true;
        done[p.i] = 1;
        --remaining;
      } else {
        p.head = p.prev;
      }
    }
  }

  // Live counters: one local FAA per touched heap shard (all entries are
  // ours, though possibly spread across shards by spill allocation).
  std::vector<std::pair<std::uint32_t, std::int64_t>> per_shard;
  for (const auto& p : ps) {
    const std::uint32_t s = shard_of(p.e);
    bool found = false;
    for (auto& [ps_s, c] : per_shard)
      if (ps_s == s) {
        ++c;
        found = true;
        break;
      }
    if (!found) per_shard.emplace_back(s, 1);
  }
  for (const auto& [s, c] : per_shard)
    (void)heap_.faa_u64(self, static_cast<std::uint32_t>(self.id()),
                        ctrl_off(s) + kLiveCountOff, c);

  // Post-link fence, shared across the batch: one directory round; only
  // entries a concurrent compaction pass could have outrun get the full
  // per-entry check (rare -- requires a pass targeting past our placement).
  (void)refresh_dir(self);
  if (batch_placed < rl.pending) {
    for (auto& p : ps)
      ensure_covered(self, keys[p.i], p.h2, p.b, p.e, batch_placed);
  }
  return done;
}

std::vector<std::uint8_t> DistributedHashTable::insert_if_absent_many(
    rma::Rank& self, std::span<const std::uint64_t> keys,
    std::span<const std::uint64_t> values) {
  assert(keys.size() == values.size());
  std::vector<std::uint8_t> res(keys.size(), 0);
  if (keys.empty()) return res;
  const auto found = lookup_many(self, keys);
  std::vector<std::uint64_t> ins_keys, ins_vals;
  std::vector<std::size_t> pos;
  std::unordered_set<std::uint64_t> in_batch;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (found[i].has_value()) continue;
    if (!in_batch.insert(keys[i]).second) continue;  // first occurrence wins
    ins_keys.push_back(keys[i]);
    ins_vals.push_back(values[i]);
    pos.push_back(i);
  }
  if (ins_keys.empty()) return res;
  const auto inserted = insert_many(self, ins_keys, ins_vals);
  for (std::size_t j = 0; j < pos.size(); ++j) res[pos[j]] = inserted[j];
  return res;
}

// ---------------------------------------------------------------------------
// Lookup
// ---------------------------------------------------------------------------

std::optional<std::uint64_t> DistributedHashTable::lookup_in_bucket(
    rma::Rank& self, std::uint64_t key, const BucketLoc& b, std::uint32_t shard) {
  const std::uint64_t off = bucket_off(shard, b);
restart:
  self.counters().dht_probe_rounds += 1;
  Ref ref{table_.atomic_get_u64(self, b.rank, off)};
  while (!ref.is_null()) {
    const DPtr e = ref.ptr();
    const std::uint64_t next = field(self, e, kNextOff);
    if (Ref{next}.marked()) goto restart;  // entry being deleted/rehomed
    const std::uint64_t k = field(self, e, kKeyOff);
    const std::uint64_t v = field(self, e, kValOff);
    // Validate the generation tag *after* reading the fields: a reused entry
    // fails this check and forces a clean retraversal.
    if ((field(self, e, kGenOff) & kTagMask) != ref.tag()) goto restart;
    if (k == key) return v;
    ref = Ref{next};
  }
  return std::nullopt;
}

std::optional<std::uint64_t> DistributedHashTable::lookup(rma::Rank& self,
                                                          std::uint64_t key) {
  const BucketLoc b = locate(key);
  const std::uint64_t h2 = shard_hash(key);
  auto& rl = local_[static_cast<std::size_t>(self.id())];
  std::uint32_t seen_clean = rl.clean, seen_shards = rl.shards;
  std::uint64_t stamp0 = 0;
  bool have_stamp = false;
  for (;;) {
    const Candidates cs = candidates(h2, seen_clean, seen_shards);
    if (cs.n > 1 && !have_stamp) {
      // Dirty window (split not yet compacted): take the migration stamp
      // before probing, so a rehome racing between two of our probes is
      // detected below instead of read as a miss.
      stamp0 = dir_.atomic_get_u64(self, 0, kDirStampOff);
      have_stamp = true;
    }
    for (std::uint32_t i = 0; i < cs.n; ++i) {
      if (auto v = lookup_in_bucket(self, key, b, cs.shard[i])) return v;
    }
    // A fixed table's directory never moves: the miss is final, no confirm.
    if (cfg_.max_shards == 1) return std::nullopt;
    // Full miss: one directory round. Re-walk if a shard was published, the
    // clean count moved, or (dirty window only) any entry was rehomed since
    // our stamp -- an operation that completed before this lookup started is
    // covered by one of those three observations.
    const std::uint64_t stamp1 = refresh_dir(self);
    const bool dir_moved = rl.clean != seen_clean || rl.shards != seen_shards;
    if (!dir_moved && !(cs.n > 1 && stamp1 != stamp0)) return std::nullopt;
    seen_clean = rl.clean;
    seen_shards = rl.shards;
    stamp0 = stamp1;
    have_stamp = true;
  }
}

std::vector<std::optional<std::uint64_t>> DistributedHashTable::lookup_many(
    rma::Rank& self, std::span<const std::uint64_t> keys) {
  std::vector<std::optional<std::uint64_t>> out(keys.size());
  if (keys.empty()) return out;
  auto& rl = local_[static_cast<std::size_t>(self.id())];

  // Per-key cursor through the same traversal state machine as lookup():
  // (re)read the candidate bucket's head, walk the chain entry by entry
  // (restarting on a deletion mark or a generation-tag mismatch), then drop
  // to the next candidate bucket. Each round issues the next word reads of
  // *all* live cursors nonblocking and completes them with one flush, so k
  // independent lookups pay one overlapped latency per round -- and in the
  // compacted steady state every key has exactly one candidate, so the whole
  // batch costs one probe round regardless of shard count. Cursors that
  // exhaust every candidate wait for one shared directory (+ migration
  // stamp) re-read; a moved directory or stamp re-arms them.
  struct Cursor {
    BucketLoc b{};
    std::uint64_t h2 = 0;
    Candidates cs;
    std::uint32_t ci = 0;  ///< candidate currently being probed
    Ref ref{};
    bool need_head = true;
    bool missing = false;  ///< exhausted candidates; awaiting directory re-check
    bool done = false;
    std::uint64_t head = 0;
    std::uint64_t f_next = 0, f_key = 0, f_val = 0, f_gen = 0;
  };
  std::uint32_t seen_clean = rl.clean, seen_shards = rl.shards;
  std::vector<Cursor> cur(keys.size());
  bool dirty = false;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    cur[i].b = locate(keys[i]);
    cur[i].h2 = shard_hash(keys[i]);
    cur[i].cs = candidates(cur[i].h2, seen_clean, seen_shards);
    dirty = dirty || cur[i].cs.n > 1;
  }
  std::uint64_t stamp0 = 0, stamp_now = 0;
  bool want_stamp = dirty;  // issue a stamp read before the first probes

  auto next_candidate = [](Cursor& c) {  // chain exhausted in candidate ci
    if (c.ci + 1 < c.cs.n) {
      ++c.ci;
      c.need_head = true;
    } else {
      c.missing = true;
    }
  };

  for (;;) {
    bool any_live = false;
    const bool stamp_in_round = want_stamp;
    if (stamp_in_round) {
      // Issued before the heads below: nonblocking ops execute at issue
      // time, so this stamp is ordered before every probe of the round.
      (void)dir_.atomic_get_u64_nb(self, 0, kDirStampOff, &stamp_now);
      want_stamp = false;
    }
    for (auto& c : cur) {
      if (c.done || c.missing) continue;
      any_live = true;
      if (c.need_head) {
        self.counters().dht_probe_rounds += 1;
        (void)table_.atomic_get_u64_nb(self, c.b.rank,
                                       bucket_off(c.cs.shard[c.ci], c.b), &c.head);
      } else {
        const DPtr e = c.ref.ptr();
        // Same read order as lookup(): next, then key/value, then the
        // generation word that validates them.
        (void)heap_.atomic_get_u64_nb(self, e.rank(), e.offset() + kNextOff, &c.f_next);
        (void)heap_.atomic_get_u64_nb(self, e.rank(), e.offset() + kKeyOff, &c.f_key);
        (void)heap_.atomic_get_u64_nb(self, e.rank(), e.offset() + kValOff, &c.f_val);
        (void)heap_.atomic_get_u64_nb(self, e.rank(), e.offset() + kGenOff, &c.f_gen);
      }
    }
    if (!any_live) {
      bool any_missing = false;
      for (auto& c : cur) any_missing = any_missing || (!c.done && c.missing);
      if (!any_missing) break;
      if (cfg_.max_shards == 1) break;  // fixed table: misses are final
      // One shared directory + stamp round serves every missing cursor.
      const std::uint64_t stamp1 = refresh_dir(self);
      const bool dir_moved = rl.clean != seen_clean || rl.shards != seen_shards;
      const bool moved = dirty && stamp1 != stamp0;
      if (!dir_moved && !moved) {
        for (auto& c : cur) c.done = true;  // confirmed missing
        break;
      }
      seen_clean = rl.clean;
      seen_shards = rl.shards;
      stamp0 = stamp1;
      dirty = false;
      for (auto& c : cur) {
        if (c.done || !c.missing) continue;
        c.cs = candidates(c.h2, seen_clean, seen_shards);
        c.ci = 0;
        c.missing = false;
        c.need_head = true;
        dirty = dirty || c.cs.n > 1;
      }
      continue;  // stamp0 already fresh from the shared round
    }
    (void)self.flush_all();
    if (stamp_in_round) stamp0 = stamp_now;
    for (std::size_t i = 0; i < cur.size(); ++i) {
      Cursor& c = cur[i];
      if (c.done || c.missing) continue;
      if (c.need_head) {
        c.ref = Ref{c.head};
        c.need_head = false;
        if (c.ref.is_null()) next_candidate(c);  // empty bucket
        continue;
      }
      if (Ref{c.f_next}.marked()) {  // being deleted/rehomed: retraverse
        c.need_head = true;
        continue;
      }
      if ((c.f_gen & kTagMask) != c.ref.tag()) {  // reused entry: restart bucket
        c.need_head = true;
        continue;
      }
      if (c.f_key == keys[i]) {
        out[i] = c.f_val;
        c.done = true;
        continue;
      }
      c.ref = Ref{c.f_next};
      if (c.ref.is_null()) next_candidate(c);  // chain exhausted
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Erase
// ---------------------------------------------------------------------------

bool DistributedHashTable::erase_in_bucket(rma::Rank& self, std::uint64_t key,
                                           const BucketLoc& b, std::uint32_t shard) {
  const std::uint64_t boff = bucket_off(shard, b);
restart:
  // prev_* identify the word holding the reference to the current entry:
  // either the bucket head word or the predecessor entry's next field.
  self.counters().dht_probe_rounds += 1;
  bool prev_is_bucket = true;
  DPtr prev_entry;
  Ref ref{table_.atomic_get_u64(self, b.rank, boff)};
  while (!ref.is_null()) {
    const DPtr e = ref.ptr();
    const std::uint64_t next = field(self, e, kNextOff);
    if (Ref{next}.marked()) goto restart;
    const std::uint64_t k = field(self, e, kKeyOff);
    if ((field(self, e, kGenOff) & kTagMask) != ref.tag()) goto restart;
    if (k == key) {
      // CAS 1 (Listing 4 l.32): mark the entry by setting the mark bit in its
      // next field; after this, no other operation modifies the entry.
      const std::uint64_t seen = heap_.cas_u64(self, e.rank(), e.offset() + kNextOff,
                                               next, Ref{next}.marked_ref().word);
      if (seen != next) goto restart;  // raced with another delete/rehome
      // CAS 2 (Listing 4 l.37): unlink by swinging the predecessor reference.
      std::uint64_t old;
      if (prev_is_bucket) {
        old = table_.cas_u64(self, b.rank, boff, ref.word, next);
      } else {
        old = heap_.cas_u64(self, prev_entry.rank(), prev_entry.offset() + kNextOff,
                            ref.word, next);
      }
      if (old == ref.word) {
        dealloc_entry(self, e);
        (void)heap_.faa_u64(self, e.rank(), ctrl_off(shard_of(e)) + kLiveCountOff, -1);
        return true;
      }
      // Unlink failed (predecessor changed / being deleted). Revert the mark
      // so the chain stays operable, then restart. This strengthens Listing 4
      // (which retries while holding the mark) against livelock.
      (void)heap_.cas_u64(self, e.rank(), e.offset() + kNextOff,
                          Ref{next}.marked_ref().word, next);
      goto restart;
    }
    prev_is_bucket = false;
    prev_entry = e;
    ref = Ref{next};
  }
  return false;
}

bool DistributedHashTable::erase(rma::Rank& self, std::uint64_t key) {
  // Same candidate walk as lookup(): erase removes the entry a lookup would
  // have returned.
  const BucketLoc b = locate(key);
  const std::uint64_t h2 = shard_hash(key);
  auto& rl = local_[static_cast<std::size_t>(self.id())];
  std::uint32_t seen_clean = rl.clean, seen_shards = rl.shards;
  std::uint64_t stamp0 = 0;
  bool have_stamp = false;
  bool removed = false;
  for (;;) {
    const Candidates cs = candidates(h2, seen_clean, seen_shards);
    if (cs.n > 1 && !have_stamp) {
      stamp0 = dir_.atomic_get_u64(self, 0, kDirStampOff);
      have_stamp = true;
    }
    for (std::uint32_t i = 0; i < cs.n && !removed; ++i)
      removed = erase_in_bucket(self, key, b, cs.shard[i]);
    if (removed) break;
    if (cfg_.max_shards == 1) return false;  // fixed table: the miss is final
    const std::uint64_t stamp1 = refresh_dir(self);
    const bool dir_moved = rl.clean != seen_clean || rl.shards != seen_shards;
    if (!dir_moved && !(cs.n > 1 && stamp1 != stamp0)) return false;
    seen_clean = rl.clean;
    seen_shards = rl.shards;
    stamp0 = stamp1;
    have_stamp = true;
  }
  if (cfg_.track_erase_epoch) {
    // Publish the removal to epoch-validated memo consumers: bumped after the
    // unlink but before erase() returns. An epoch check that still reads the
    // old value is necessarily *concurrent* with this erase (the bump is not
    // yet visible, so the erase has not returned), and serving the old
    // mapping to a concurrent reader is a linearizable outcome; any check
    // issued after erase() returns observes the bump and falls back.
    const std::uint64_t prev = dir_.faa_u64(self, 0, kDirEpochOff, 1);
    local_[static_cast<std::size_t>(self.id())].erase_epoch = prev + 1;
  }
  return true;
}

std::uint64_t DistributedHashTable::erase_epoch(rma::Rank& self) {
  const std::uint64_t e = dir_.atomic_get_u64(self, 0, kDirEpochOff);
  local_[static_cast<std::size_t>(self.id())].erase_epoch = e;
  return e;
}

// ---------------------------------------------------------------------------
// Online migration / compaction
// ---------------------------------------------------------------------------

DistributedHashTable::MigrateResult DistributedHashTable::migrate_entry(
    rma::Rank& self, const BucketLoc& b, std::uint32_t src_shard,
    std::uint32_t dst_shard, DPtr e, Ref ref, std::uint64_t next,
    std::uint64_t key, DPtr* moved) {
  // Allocate the destination slot BEFORE freezing the source: alloc_entry
  // probes every published shard's free stack and watermark when the heap is
  // near-full, and readers of the source bucket restart their chain walk
  // while an entry is marked -- the mark must only span the short
  // publish/unlink CAS window, not a heap scan. The slot is private until
  // published, so handing it back on a race costs one free-stack push.
  const DPtr e2 = alloc_entry(self, dst_shard, /*allow_grow=*/false);
  if (e2.is_null()) return MigrateResult::kNoSpace;
  // CAS 1: mark the source entry. From here only we may unlink it, readers
  // treat it as in-progress, and its fields are frozen.
  if (heap_.cas_u64(self, e.rank(), e.offset() + kNextOff, next,
                    Ref{next}.marked_ref().word) != next) {
    dealloc_entry(self, e2);
    return MigrateResult::kRaced;
  }
  // Post-mark revalidation: the mark CAS can land on a *recycled* slot whose
  // next word happens to match `next` (erase -> free -> realloc between the
  // caller's generation check and our CAS; e.g. both words zero for a chain
  // tail and an empty free stack). Generation and key are frozen while we
  // hold the mark, so one overlapped read decides; on a foreign entry revert
  // the mark (restoring the stranger's next word) and retreat -- without
  // this, the unlink rewalk below would never find the entry and a marked
  // live entry (plus a stale-key copy) would leak.
  std::uint64_t gen_now = 0, key_now = 0;
  (void)heap_.atomic_get_u64_nb(self, e.rank(), e.offset() + kGenOff, &gen_now);
  (void)heap_.atomic_get_u64_nb(self, e.rank(), e.offset() + kKeyOff, &key_now);
  (void)self.flush_all();
  if ((gen_now & kTagMask) != ref.tag() || key_now != key) {
    (void)heap_.cas_u64(self, e.rank(), e.offset() + kNextOff,
                        Ref{next}.marked_ref().word, next);
    dealloc_entry(self, e2);
    return MigrateResult::kRaced;
  }
  const std::uint64_t val = field(self, e, kValOff);
  const std::uint64_t gen2 = field(self, e2, kGenOff);
  set_field(self, e2, kKeyOff, key);
  set_field(self, e2, kValOff, val);
  heap_.flush(self, e2.rank());
  // Publish the copy into the home bucket. Mark-before-publish keeps the
  // visible-copy count at one: a completed chain walk never returns both.
  const std::uint64_t dst_off = bucket_off(dst_shard, b);
  std::uint64_t head = table_.atomic_get_u64(self, b.rank, dst_off);
  for (;;) {
    set_field(self, e2, kNextOff, head);
    const std::uint64_t old = table_.cas_u64(self, b.rank, dst_off, head,
                                             make_ref(e2, gen2).word);
    if (old == head) break;
    head = old;
  }
  // Stamp between publish and unlink: a reader that probed the destination
  // before the publish and the source after the unlink spans this bump, so
  // its miss-path stamp check forces a re-walk instead of a lost key.
  (void)dir_.faa_u64(self, 0, kDirStampOff, 1);
  // CAS 2: unlink the marked source from its chain. Cannot fail permanently:
  // we hold the mark, so no other operation removes or modifies it.
  const std::uint64_t src_off = bucket_off(src_shard, b);
  for (;;) {
  rewalk:
    bool prev_is_bucket = true;
    DPtr prev;
    Ref cur{table_.atomic_get_u64(self, b.rank, src_off)};
    bool found = false;
    while (!cur.is_null()) {
      const DPtr ce = cur.ptr();
      if (ce.raw() == e.raw()) {
        found = true;
        std::uint64_t old;
        if (prev_is_bucket) {
          old = table_.cas_u64(self, b.rank, src_off, cur.word, next);
        } else {
          old = heap_.cas_u64(self, prev.rank(), prev.offset() + kNextOff,
                              cur.word, next);
        }
        if (old == cur.word) {
          (void)heap_.faa_u64(self, e2.rank(), ctrl_off(shard_of(e2)) + kLiveCountOff, 1);
          (void)heap_.faa_u64(self, e.rank(), ctrl_off(shard_of(e)) + kLiveCountOff, -1);
          dealloc_entry(self, e);
          self.counters().dht_migrated += 1;
          if (moved != nullptr) *moved = e2;
          return MigrateResult::kMoved;
        }
        goto rewalk;
      }
      const std::uint64_t cnext = field(self, ce, kNextOff);
      if ((field(self, ce, kGenOff) & kTagMask) != cur.tag()) goto rewalk;
      if (Ref{cnext}.marked()) goto rewalk;  // predecessor in flux
      prev_is_bucket = false;
      prev = ce;
      cur = Ref{cnext};
    }
    // Unreachable mod a 32-generation tag wrap: the post-mark revalidation
    // proved we marked the live entry, and a validly marked entry can only
    // leave its chain through our own unlink.
    assert(found && "marked entry vanished from its chain");
    if (!found) return MigrateResult::kMoved;  // release-mode safety valve
  }
}

std::uint64_t DistributedHashTable::compact(rma::Rank& self, std::uint64_t budget) {
  auto& rl = local_[static_cast<std::size_t>(self.id())];
  (void)refresh_dir(self);
  std::uint32_t target = rl.comp_target;
  if (target != kNoPass && rl.shards > target) {
    // The directory grew while this pass was parked (budget slices between
    // checkpoints, or a kNoSpace pause): resuming under the stale target
    // would publish copies a concurrent fresh-target pass may already have
    // scanned past. Abandon the cursor and restart against the grown count
    // -- the pending count is monotone, so the setup below merely raises it.
    rl.comp_target = kNoPass;
    rl.comp_pos = 0;
    target = kNoPass;
  }
  if (target == kNoPass) {
    if (rl.clean >= rl.shards) return 0;  // already compacted
    target = rl.shards;
    // Publish the pass target as the pending-clean count FIRST: any insert
    // that links after our scan visits its bucket re-reads the directory
    // after linking, observes P >= target, and self-covers (ensure_covered).
    // Only then is advancing C to `target` below safe for in-flight inserts.
    std::uint64_t p = dir_.atomic_get_u64(self, 0, kDirPendingOff);
    while (p < target) {
      const std::uint64_t prev = dir_.cas_u64(self, 0, kDirPendingOff, p, target);
      if (prev == p) break;
      p = prev;
    }
    rl.pending = std::max(rl.pending, target);
    rl.comp_target = target;
    rl.comp_pos = 0;
  }
  const std::uint64_t bpr = cfg_.buckets_per_rank;
  const std::uint64_t per_shard = static_cast<std::uint64_t>(nranks_) * bpr;
  const std::uint64_t total = static_cast<std::uint64_t>(target) * per_shard;
  std::uint64_t migrated = 0;
  for (std::uint64_t pos = rl.comp_pos; pos < total; ++pos) {
    const auto s = static_cast<std::uint32_t>(pos / per_shard);
    const auto r = static_cast<std::uint32_t>((pos % per_shard) / bpr);
    const BucketLoc b{r, (pos % bpr) * 8};
    const std::uint64_t off = bucket_off(s, b);
  restart_bucket:
    Ref ref{table_.atomic_get_u64(self, r, off)};
    while (!ref.is_null()) {
      const DPtr e = ref.ptr();
      const std::uint64_t next = field(self, e, kNextOff);
      const std::uint64_t k = field(self, e, kKeyOff);
      if ((field(self, e, kGenOff) & kTagMask) != ref.tag()) goto restart_bucket;
      if (Ref{next}.marked()) {
        // In-progress erase/rehome by its owner: traverse past it.
        ref = Ref{next}.unmarked();
        continue;
      }
      const std::uint32_t home = home_shard(shard_hash(k), target);
      if (home != s) {
        DPtr moved;
        switch (migrate_entry(self, b, s, home, e, ref, next, k, &moved)) {
          case MigrateResult::kMoved:
            // Post-publish fence, the migration analogue of the insert
            // fence: a concurrent pass with a higher target (directory grew
            // mid-pass) publishes its pending count before scanning, so if
            // it already swept home(h, target)'s bucket -- missing the copy
            // we just published -- this directory re-read observes its P
            // and rehomes the copy before it can fall outside the candidate
            // set {home(h, m) : m in [C, S]} when that pass advances C.
            ensure_covered(self, k, shard_hash(k), b, moved, target);
            ++migrated;
            if (budget != 0 && migrated >= budget) {
              rl.comp_pos = pos;  // resume this bucket next call
              return migrated;
            }
            goto restart_bucket;
          case MigrateResult::kRaced:
            goto restart_bucket;
          case MigrateResult::kNoSpace:
            rl.comp_pos = pos;  // heap full: pause; C stays unadvanced
            return migrated;
        }
      }
      ref = Ref{next};
    }
    rl.comp_pos = pos + 1;
  }
  // Full scan done: advance the clean count (monotone CAS) and retire the
  // pass. Readers now compute a single candidate for every key placed under
  // counts up to `target`.
  std::uint64_t c = dir_.atomic_get_u64(self, 0, kDirCleanOff);
  while (c < target) {
    const std::uint64_t prev = dir_.cas_u64(self, 0, kDirCleanOff, c, target);
    if (prev == c) break;
    c = prev;
  }
  rl.clean = std::max(rl.clean, target);
  rl.comp_target = kNoPass;
  rl.comp_pos = 0;
  return migrated;
}

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

std::uint64_t DistributedHashTable::live_entries(rma::Rank& self, std::uint32_t rank) {
  // Sum the per-shard live counters (each maintained by FAA at publish /
  // unlink time) so the count stays exact across shard growth and migration.
  const std::uint32_t shards = refresh_shards(self);
  std::uint64_t sum = 0;
  for (std::uint32_t s = 0; s < shards; ++s)
    sum += heap_.atomic_get_u64(self, rank, ctrl_off(s) + kLiveCountOff);
  return sum;
}

std::uint64_t DistributedHashTable::debug_copies(rma::Rank& self, std::uint64_t key) {
  const BucketLoc b = locate(key);
  const std::uint32_t shards = refresh_shards(self);
  std::uint64_t copies = 0;
  for (std::uint32_t s = 0; s < shards; ++s) {
    Ref ref{table_.atomic_get_u64(self, b.rank, bucket_off(s, b))};
    while (!ref.is_null()) {
      const DPtr e = ref.ptr();
      const std::uint64_t next = field(self, e, kNextOff);
      const std::uint64_t k = field(self, e, kKeyOff);
      const bool valid = (field(self, e, kGenOff) & kTagMask) == ref.tag();
      if (valid && !Ref{next}.marked() && k == key) ++copies;
      if (!valid) break;  // chain mutated under the scan; report what we saw
      ref = Ref{next}.unmarked();
    }
  }
  return copies;
}

// ---------------------------------------------------------------------------
// Checkpoint / recovery support
// ---------------------------------------------------------------------------

void DistributedHashTable::serialize_rank(int r, std::vector<std::byte>& out) {
  // Committed-segment counts can differ between the windows only transiently
  // inside grow(); at a checkpoint barrier the larger count is the truth.
  const auto shards = static_cast<std::uint32_t>(
      std::max(table_.committed_segments(), heap_.committed_segments()));
  const auto* sp = reinterpret_cast<const std::byte*>(&shards);
  out.insert(out.end(), sp, sp + 4);
  for (std::uint32_t s = 0; s < shards; ++s) {
    std::byte* tb = table_.local_base(r, s);
    out.insert(out.end(), tb, tb + table_seg_);
    std::byte* hb = heap_.local_base(r, s);
    out.insert(out.end(), hb, hb + heap_seg_);
  }
  if (r == 0) {
    std::byte* db = dir_.local_base(0);
    out.insert(out.end(), db, db + kDirBytes);  // counts + epoch + stamp
  }
}

bool DistributedHashTable::restore_rank(rma::Rank& self, int r,
                                        std::span<const std::byte> in) {
  if (in.size() < 4) return false;
  std::uint32_t shards;
  std::memcpy(&shards, in.data(), 4);
  in = in.subspan(4);
  if (shards == 0 || shards > cfg_.max_shards) return false;
  if (table_.ensure_segments(self, shards) < shards ||
      heap_.ensure_segments(self, shards) < shards)
    return false;
  for (std::uint32_t s = 0; s < shards; ++s) {
    if (in.size() < table_seg_ + heap_seg_) return false;
    std::memcpy(table_.local_base(r, s), in.data(), table_seg_);
    in = in.subspan(table_seg_);
    std::memcpy(heap_.local_base(r, s), in.data(), heap_seg_);
    in = in.subspan(heap_seg_);
  }
  if (r == 0) {
    if (in.size() < kDirBytes) return false;
    std::memcpy(dir_.local_base(0), in.data(), kDirBytes);
    in = in.subspan(kDirBytes);
  }
  return in.empty();
}

}  // namespace gdi::dht
