#include "block/block_store.hpp"

#include <cstring>

namespace gdi::block {

std::shared_ptr<BlockStore> BlockStore::create(rma::Rank& self,
                                               const BlockStoreConfig& cfg) {
  return self.collective_make<BlockStore>(
      [&] { return std::make_shared<BlockStore>(self.nranks(), cfg); });
}

BlockStore::BlockStore(int nranks, const BlockStoreConfig& cfg)
    : cfg_(cfg),
      data_(nranks, cfg.block_size * cfg.blocks_per_rank),
      usage_(nranks, cfg.blocks_per_rank * 8),
      system_(nranks, kLocksOffset + cfg.blocks_per_rank * 8) {
  assert(cfg.block_size >= 64 && cfg.block_size % 8 == 0);
  assert(cfg.blocks_per_rank >= 2);
  // Build each rank's free list: block 0 is reserved on every rank so that a
  // zero DPtr is never a valid block; blocks 1..N-1 start free.
  for (int r = 0; r < nranks; ++r) {
    auto* usage = reinterpret_cast<std::uint64_t*>(usage_.local_base(r));
    for (std::size_t i = 1; i + 1 < cfg.blocks_per_rank; ++i) usage[i] = i + 1;
    usage[cfg.blocks_per_rank - 1] = kNilIdx;
    auto* sys = reinterpret_cast<std::uint64_t*>(system_.local_base(r));
    sys[0] = cfg.blocks_per_rank > 1 ? 1 : kNilIdx;  // head: tag 0, first free idx
  }
}

DPtr BlockStore::acquire(rma::Rank& self, std::uint32_t target) {
  // Lock-free pop from the target's free list (paper Section 5.5).
  std::uint64_t head = system_.atomic_get_u64(self, target, kHeadOffset);
  for (;;) {
    const std::uint64_t idx = head & kIdxMask;
    const std::uint64_t tag = head >> 48;
    if (idx == kNilIdx) return DPtr{};  // pool exhausted on this rank
    const std::uint64_t next = usage_.atomic_get_u64(self, target, idx * 8);
    const std::uint64_t new_head = ((tag + 1) << 48) | (next & kIdxMask);
    const std::uint64_t old = system_.cas_u64(self, target, kHeadOffset, head, new_head);
    if (old == head) {
      (void)system_.faa_u64(self, target, kCountOffset, 1);
      return DPtr{target, idx * cfg_.block_size};
    }
    head = old;  // lost the race; retry with the freshly observed head
  }
}

void BlockStore::release(rma::Rank& self, DPtr blk) {
  assert(!blk.is_null());
  const std::uint32_t target = blk.rank();
  const std::uint64_t idx = block_index(blk);
  std::uint64_t head = system_.atomic_get_u64(self, target, kHeadOffset);
  for (;;) {
    const std::uint64_t tag = head >> 48;
    usage_.atomic_put_u64(self, target, idx * 8, head & kIdxMask);
    const std::uint64_t new_head = ((tag + 1) << 48) | idx;
    const std::uint64_t old = system_.cas_u64(self, target, kHeadOffset, head, new_head);
    if (old == head) {
      (void)system_.faa_u64(self, target, kCountOffset, -1);
      return;
    }
    head = old;
  }
}

std::uint64_t BlockStore::allocated_count(rma::Rank& self, std::uint32_t target) {
  return system_.atomic_get_u64(self, target, kCountOffset);
}

bool BlockStore::try_read_lock(rma::Rank& self, DPtr blk, std::uint64_t* word_out,
                               void* dst, std::span<const DPtr> tails) {
  const std::uint64_t off = lock_offset(block_index(blk));
  std::uint64_t prev = 0;
  const bool overlap = dst != nullptr && blk.rank() != static_cast<std::uint32_t>(self.id());
  assert(overlap || tails.empty());
  if (overlap) {
    (void)system_.faa_u64_nb(self, blk.rank(), off, 1, &prev);
    post_locked_get(self, blk, prev, dst, tails);
    (void)self.flush_all();
  } else {
    prev = system_.faa_u64(self, blk.rank(), off, 1);
  }
  if (write_locked(prev)) {
    // Visible writer: withdraw the increment and give up at once.
    (void)system_.faa_u64_nb(self, blk.rank(), off, -1);
    return false;
  }
  if (dst != nullptr && !overlap) read_block(self, blk, dst);
  if (word_out != nullptr) *word_out = prev;
  return true;
}

void BlockStore::post_locked_get(rma::Rank& self, DPtr blk, std::uint64_t faa_word,
                                 void* dst, std::span<const DPtr> tails) {
  if (write_locked(faa_word)) (void)data_.get_nb_discard(self, cfg_.block_size, blk.rank());
  else (void)data_.get_nb(self, dst, cfg_.block_size, blk);
  for (DPtr t : tails) {
    assert(t.rank() == blk.rank());
    (void)data_.get_nb_discard(self, cfg_.block_size, t.rank());
  }
}

void BlockStore::read_unlock(rma::Rank& self, DPtr blk) {
  const std::uint64_t off = lock_offset(block_index(blk));
  (void)system_.faa_u64(self, blk.rank(), off, -1);
}

void BlockStore::read_unlock_nb(rma::Rank& self, DPtr blk) {
  const std::uint64_t off = lock_offset(block_index(blk));
  (void)system_.faa_u64_nb(self, blk.rank(), off, -1);
}

std::vector<std::uint8_t> BlockStore::try_read_lock_many(
    rma::Rank& self, std::span<const DPtr> blks, std::vector<std::uint64_t>* words_out,
    std::span<void* const> dsts, std::span<const std::span<const DPtr>> tails) {
  assert(dsts.empty() || dsts.size() == blks.size());
  assert(tails.empty() || tails.size() == blks.size());
  std::vector<std::uint64_t> prev(blks.size(), 0);
  for (std::size_t i = 0; i < blks.size(); ++i) {
    const DPtr b = blks[i];
    (void)system_.faa_u64_nb(self, b.rank(), lock_offset(block_index(b)), 1, &prev[i]);
    if (!dsts.empty() && dsts[i] != nullptr)
      post_locked_get(self, b, prev[i], dsts[i],
                      tails.empty() ? std::span<const DPtr>{} : tails[i]);
  }
  if (!blks.empty()) (void)self.flush_all();
  std::vector<std::uint8_t> got(blks.size(), 0);
  for (std::size_t i = 0; i < blks.size(); ++i) {
    if (!write_locked(prev[i])) {
      got[i] = 1;
      continue;
    }
    // Writer present: withdraw (completes at the caller's next flush).
    const DPtr b = blks[i];
    (void)system_.faa_u64_nb(self, b.rank(), lock_offset(block_index(b)), -1);
  }
  if (words_out != nullptr) *words_out = std::move(prev);
  return got;
}

std::vector<std::uint8_t> BlockStore::try_write_lock_many(
    rma::Rank& self, std::span<const DPtr> blks, int attempts,
    std::span<const std::uint64_t> hints) {
  assert(hints.empty() || hints.size() == blks.size());
  std::vector<std::uint8_t> got(blks.size(), 0);
  struct Pending {
    std::size_t i;
    std::uint64_t expected;  ///< free word we bid on (hinted version up front,
                             ///< else learned from the first round's prev)
    std::uint64_t prev = 0;
  };
  std::vector<Pending> pend;
  pend.reserve(blks.size());
  for (std::size_t i = 0; i < blks.size(); ++i)
    pend.push_back({i, hints.empty() ? 0 : hints[i] & kVersionMask});
  for (int round = 0; round < attempts && !pend.empty(); ++round) {
    for (auto& p : pend) {
      const DPtr b = blks[p.i];
      (void)system_.cas_u64_nb(self, b.rank(), lock_offset(block_index(b)), p.expected,
                               p.expected | kWriteBit, &p.prev);
    }
    (void)self.flush_all();
    std::vector<Pending> next;
    for (const auto& p : pend) {
      if (p.prev == p.expected) got[p.i] = 1;
      // Free at another version / momentarily held: bid on the free form of
      // the word we just observed next round.
      else next.push_back({p.i, version_of(p.prev)});
    }
    pend = std::move(next);
  }
  return got;
}

bool BlockStore::try_write_lock(rma::Rank& self, DPtr blk,
                                std::uint64_t version_hint) {
  const std::uint64_t off = lock_offset(block_index(blk));
  const std::uint64_t bid = version_hint & kVersionMask;
  const std::uint64_t prev = system_.cas_u64(self, blk.rank(), off, bid,
                                             bid | kWriteBit);
  if (prev == bid) return true;  // fresh block / correct hint: one CAS
  if ((prev & (kWriteBit | kReadMask)) != 0) return false;  // held
  // Free at another version: one more CAS applies the learned version.
  return system_.cas_u64(self, blk.rank(), off, prev, prev | kWriteBit) == prev;
}

bool BlockStore::try_upgrade_lock(rma::Rank& self, DPtr blk, std::uint64_t acq_word) {
  const std::uint64_t v = version_of(acq_word);
  return system_.cas_u64(self, blk.rank(), lock_offset(block_index(blk)), v | 1,
                         v | kWriteBit) == (v | 1);
}

std::vector<std::uint8_t> BlockStore::try_upgrade_many(
    rma::Rank& self, std::span<const DPtr> blks, int attempts,
    std::span<const std::uint64_t> acq_words) {
  assert(acq_words.empty() || acq_words.size() == blks.size());
  std::vector<std::uint8_t> got(blks.size(), 0);
  struct Pending {
    std::size_t i;
    std::uint64_t expected;  ///< sole-reader word we bid on
    std::uint64_t prev = 0;
  };
  std::vector<Pending> pend;
  pend.reserve(blks.size());
  for (std::size_t i = 0; i < blks.size(); ++i)
    pend.push_back({i, (acq_words.empty() ? 0 : version_of(acq_words[i])) | 1});
  for (int round = 0; round < attempts && !pend.empty(); ++round) {
    for (auto& p : pend) {
      const DPtr b = blks[p.i];
      (void)system_.cas_u64_nb(self, b.rank(), lock_offset(block_index(b)), p.expected,
                               (p.expected - 1) | kWriteBit, &p.prev);
    }
    (void)self.flush_all();
    std::vector<Pending> next;
    for (const auto& p : pend) {
      if (p.prev == p.expected) {
        got[p.i] = 1;
      } else if ((p.prev & kWriteBit) == 0) {
        // Other readers still present (or, without acq_words, a version we
        // had not seen): keep bidding on the sole-reader form; they may
        // drain within `attempts`.
        next.push_back({p.i, version_of(p.prev) | 1});
      }
      // A raced-in writer is impossible while we hold a read lock; a write
      // bit here means protocol abuse, give up like try_upgrade_lock would.
    }
    pend = std::move(next);
  }
  return got;
}

// Both plain unlock flavors are the fetch flavor with the result dropped:
// one copy of the release + wrap-repair protocol to keep in lockstep.
void BlockStore::write_unlock(rma::Rank& self, DPtr blk) {
  (void)write_unlock_fetch(self, blk, /*nonblocking=*/false);
}

void BlockStore::write_unlock_nb(rma::Rank& self, DPtr blk) {
  (void)write_unlock_fetch(self, blk, /*nonblocking=*/true);
}

std::uint64_t BlockStore::write_unlock_fetch(rma::Rank& self, DPtr blk,
                                             bool nonblocking) {
  const std::uint64_t off = lock_offset(block_index(blk));
  // +1 version, -write_bit in one FAA: releases the lock and publishes "the
  // bytes behind this word changed" to every cached copy in the system.
  std::uint64_t prev;
  if (nonblocking) {
    (void)system_.faa_fetch_u64_nb(self, blk.rank(), off,
                                   static_cast<std::int64_t>(kWriteUnlockDelta),
                                   &prev);
  } else {
    prev = system_.faa_u64(self, blk.rank(), off,
                           static_cast<std::int64_t>(kWriteUnlockDelta));
  }
  if (version_of(prev) == kVersionMask) [[unlikely]] {
    // Version wrap: the increment's carry landed in the write bit, so the
    // word now reads as write-locked by nobody. Only withdrawing readers can
    // have touched it since (their pending -1s must still land on a zero
    // count), so clear just the bit -- one extra atomic every 2^31 releases
    // of one block. The published version is 0.
    const auto clear = static_cast<std::int64_t>(-kWriteBit);
    if (nonblocking) (void)system_.faa_u64_nb(self, blk.rank(), off, clear);
    else (void)system_.faa_u64(self, blk.rank(), off, clear);
    return 0;
  }
  return version_of(prev) + (std::uint64_t{1} << kVersionShift);
}

void BlockStore::peek_lock_words(rma::Rank& self, std::span<const DPtr> blks,
                                 std::span<std::uint64_t> out, bool batched) {
  assert(out.size() == blks.size());
  if (batched && blks.size() > 1) {
    for (std::size_t i = 0; i < blks.size(); ++i) {
      const DPtr b = blks[i];
      (void)system_.atomic_get_u64_nb(self, b.rank(), lock_offset(block_index(b)),
                                      &out[i]);
    }
    (void)self.flush_all();
    return;
  }
  for (std::size_t i = 0; i < blks.size(); ++i) {
    const DPtr b = blks[i];
    out[i] = system_.atomic_get_u64(self, b.rank(), lock_offset(block_index(b)));
  }
}

std::uint64_t BlockStore::lock_word(rma::Rank& self, DPtr blk) {
  return system_.atomic_get_u64(self, blk.rank(), lock_offset(block_index(blk)));
}

void BlockStore::poke_lock_word(rma::Rank& self, DPtr blk, std::uint64_t word) {
  system_.atomic_put_u64(self, blk.rank(), lock_offset(block_index(blk)), word);
}

namespace {
void dump_region(std::byte* base, std::size_t n, std::vector<std::byte>& out) {
  std::uint64_t len = n;
  const auto* lp = reinterpret_cast<const std::byte*>(&len);
  out.insert(out.end(), lp, lp + 8);
  out.insert(out.end(), base, base + n);
}
bool load_region(std::byte* base, std::size_t n, std::span<const std::byte>& in) {
  if (in.size() < 8) return false;
  std::uint64_t len;
  std::memcpy(&len, in.data(), 8);
  in = in.subspan(8);
  if (len != n || in.size() < n) return false;
  std::memcpy(base, in.data(), n);
  in = in.subspan(n);
  return true;
}
}  // namespace

void BlockStore::serialize_rank(int r, std::vector<std::byte>& out) {
  dump_region(data_.local_base(r), cfg_.block_size * cfg_.blocks_per_rank, out);
  dump_region(usage_.local_base(r), cfg_.blocks_per_rank * 8, out);
  dump_region(system_.local_base(r), kLocksOffset + cfg_.blocks_per_rank * 8, out);
}

bool BlockStore::restore_rank(int r, std::span<const std::byte> in) {
  return load_region(data_.local_base(r), cfg_.block_size * cfg_.blocks_per_rank, in) &&
         load_region(usage_.local_base(r), cfg_.blocks_per_rank * 8, in) &&
         load_region(system_.local_base(r), kLocksOffset + cfg_.blocks_per_rank * 8,
                     in) &&
         in.empty();
}

}  // namespace gdi::block
