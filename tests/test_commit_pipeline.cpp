// Tests for the PR 5 write hot path: the cross-transaction group-commit
// pipeline (src/gdi/commit_pipeline.*), shared-cache write-through
// (write_unlock_fetch + re-stamp), the 2^31 version-wrap carry repair, the
// byte-accounted shared cache, and the erase-epoch-validated translation
// memo for bare translates.
//
// Invariants pinned here:
//  * the wrap repair: a write_unlock (plain and fetch-flavored) of a block
//    at version 2^31-1 leaves a clean zero word, not a stuck write bit;
//  * epoch lifecycle: exactly one flush per closed epoch on a pure update
//    stream, and each of the three close conditions (txn cap, byte budget,
//    max delay) fires;
//  * zero stale/torn reads under concurrent group-committing writers with
//    write-through on -- the multi-writer stress of the acceptance criteria;
//  * write-through keeps a rank's own write set warm (read-after-own-write
//    hits) and never resurrects aborted bytes;
//  * byte-based FIFO bounding of the shared cache (entries charged their
//    assembled-holder size);
//  * bare translate_vertex_id memo hits skip the DHT walk under a matching
//    erase epoch and fall back (correctly) after deletes and re-creates.
//
// NOTE: inside Runtime::run all assertions must be EXPECT_* (non-fatal);
// a fatal ASSERT would return from one rank's lambda and deadlock the team.
#include <gtest/gtest.h>

#include <atomic>

#include "gdi/gdi.hpp"

namespace gdi {
namespace {

DatabaseConfig make_cfg(bool pipeline, bool write_through,
                        std::size_t epoch_txns = 8) {
  DatabaseConfig c;
  c.block.block_size = 512;
  c.block.blocks_per_rank = 8192;
  c.dht.entries_per_rank = 4096;
  c.dht.buckets_per_rank = 512;
  c.shared_cache = true;
  c.scache_write_through = write_through;
  c.commit_pipeline = pipeline;
  c.commit_epoch_txns = epoch_txns;
  return c;
}

// ---------------------------------------------------------------------------
// 2^31 version-wrap carry repair
// ---------------------------------------------------------------------------

TEST(VersionWrap, WriteUnlockRepairsCarryIntoWriteBit) {
  using BS = block::BlockStore;
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, make_cfg(false, false));
    auto& blocks = db->blocks();
    const DPtr blk = blocks.acquire(self, 0);
    EXPECT_FALSE(blk.is_null());

    // Drive the word to the last representable version, free, no readers.
    blocks.poke_lock_word(self, blk, BS::kVersionMask);
    EXPECT_TRUE(blocks.try_write_lock(self, blk));
    EXPECT_EQ(blocks.lock_word(self, blk), BS::kVersionMask | BS::kWriteBit);
    // Without the repair, the FAA's version carry would land in the write
    // bit and the block would read as write-locked by nobody, forever.
    blocks.write_unlock(self, blk);
    EXPECT_EQ(blocks.lock_word(self, blk), 0u);
    // The repaired word is a fully functional fresh word.
    EXPECT_TRUE(blocks.try_read_lock(self, blk));
    blocks.read_unlock(self, blk);

    // A failed reader's increment, not yet withdrawn, rides through the
    // unlock: the repair clears only the carried bit, and the withdrawal
    // (an FAA(-1), like read_unlock) then lands on a zero count.
    blocks.poke_lock_word(self, blk, BS::kVersionMask | BS::kWriteBit | 1);
    blocks.write_unlock(self, blk);
    EXPECT_EQ(blocks.lock_word(self, blk), 1u);
    blocks.read_unlock(self, blk);
    EXPECT_EQ(blocks.lock_word(self, blk), 0u);
  });
}

TEST(VersionWrap, WriteUnlockFetchRepairsAndReportsVersionZero) {
  using BS = block::BlockStore;
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, make_cfg(false, false));
    auto& blocks = db->blocks();
    const DPtr blk = blocks.acquire(self, 0);

    // Non-wrap case first: the fetched post-unlock version is prev + 1.
    blocks.poke_lock_word(self, blk, std::uint64_t{5} << BS::kVersionShift);
    EXPECT_TRUE(blocks.try_write_lock(self, blk));
    EXPECT_EQ(blocks.write_unlock_fetch(self, blk, /*nonblocking=*/false),
              std::uint64_t{6} << BS::kVersionShift);
    EXPECT_EQ(blocks.lock_word(self, blk), std::uint64_t{6} << BS::kVersionShift);

    // Wrap case: repair publishes a zero word and reports version 0 -- the
    // version the next validator will actually observe.
    blocks.poke_lock_word(self, blk, BS::kVersionMask);
    EXPECT_TRUE(blocks.try_write_lock(self, blk));
    EXPECT_EQ(blocks.write_unlock_fetch(self, blk, /*nonblocking=*/false), 0u);
    EXPECT_EQ(blocks.lock_word(self, blk), 0u);

    // Nonblocking flavor, wrap case: same result once issued (in-process the
    // atomic executes eagerly; the flush only charges the cost model).
    blocks.poke_lock_word(self, blk, BS::kVersionMask);
    EXPECT_TRUE(blocks.try_write_lock(self, blk));
    EXPECT_EQ(blocks.write_unlock_fetch(self, blk, /*nonblocking=*/true), 0u);
    (void)self.flush_all();
    EXPECT_EQ(blocks.lock_word(self, blk), 0u);
  });
}

// ---------------------------------------------------------------------------
// Epoch lifecycle: one flush per epoch, and all three close conditions
// ---------------------------------------------------------------------------

TEST(CommitPipeline, OneFlushPerEpochOnUpdateStream) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, make_cfg(true, true, /*epoch_txns=*/8));
    const std::uint32_t pt = *db->create_ptype(
        self, PropertyType{.name = "p", .dtype = Datatype::kInt64});
    DPtr vid;
    {
      Transaction txn(db, self, TxnMode::kWrite);
      auto v = txn.create_vertex(1);
      EXPECT_TRUE(v.ok());
      EXPECT_EQ(txn.update_property(*v, pt, PropValue{std::int64_t{0}}), Status::kOk);
      EXPECT_EQ(txn.commit(), Status::kOk);  // publishes -> not deferred
      vid = v->vid;
    }
    const std::uint64_t flushes_before = self.counters().flushes;
    // 24 keeps the holder under three blocks (repeated updates accumulate
    // property tombstones until a reshape): singleton tail reads stay
    // blocking, so the epoch-close flushes are the only completion points.
    constexpr std::uint64_t kTxns = 24;
    for (std::uint64_t i = 1; i <= kTxns; ++i) {
      Transaction txn(db, self, TxnMode::kWrite);
      EXPECT_EQ(txn.update_property(VertexHandle{vid}, pt,
                                    PropValue{static_cast<std::int64_t>(i)}),
                Status::kOk);
      EXPECT_EQ(txn.commit(), Status::kOk);
    }
    // The flush count is exactly the closed-epoch count: <= 1 flush/epoch.
    EXPECT_EQ(self.counters().flushes - flushes_before, kTxns / 8);
    EXPECT_EQ(self.counters().gc_epochs, kTxns / 8);
    EXPECT_EQ(self.counters().gc_enrolled, kTxns);
    // The update stream's reads are its own prior writes: the rank's write
    // set stayed warm through write-through (no cold refetch of own rows).
    EXPECT_GT(self.counters().scache_restamps, 0u);
  });
}

TEST(CommitPipeline, ByteBudgetAndDelayCloseEpochs) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    // Byte budget: each update writes back one 512B block; a budget of one
    // block closes every epoch at its first enrollment.
    DatabaseConfig c1 = make_cfg(true, false, /*epoch_txns=*/1000);
    c1.commit_epoch_bytes = 512;
    auto db1 = Database::create(self, c1);
    const std::uint32_t pt1 = *db1->create_ptype(
        self, PropertyType{.name = "p", .dtype = Datatype::kInt64});
    DPtr v1;
    {
      Transaction txn(db1, self, TxnMode::kWrite);
      auto v = txn.create_vertex(1);
      EXPECT_EQ(txn.update_property(*v, pt1, PropValue{std::int64_t{0}}), Status::kOk);
      EXPECT_EQ(txn.commit(), Status::kOk);
      v1 = v->vid;
    }
    const std::uint64_t epochs_before = self.counters().gc_epochs;
    for (int i = 0; i < 5; ++i) {
      Transaction txn(db1, self, TxnMode::kWrite);
      EXPECT_EQ(txn.update_property(VertexHandle{v1}, pt1,
                                    PropValue{static_cast<std::int64_t>(i)}),
                Status::kOk);
      EXPECT_EQ(txn.commit(), Status::kOk);
    }
    EXPECT_EQ(self.counters().gc_epochs - epochs_before, 5u);
  });
}

TEST(CommitPipeline, MaxDelayClosesEpochs) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    DatabaseConfig c = make_cfg(true, false, /*epoch_txns=*/1000);
    c.commit_max_delay_ns = 1000.0;
    auto db = Database::create(self, c);
    const std::uint32_t pt = *db->create_ptype(
        self, PropertyType{.name = "p", .dtype = Datatype::kInt64});
    DPtr vid;
    {
      Transaction txn(db, self, TxnMode::kWrite);
      auto v = txn.create_vertex(1);
      EXPECT_EQ(txn.update_property(*v, pt, PropValue{std::int64_t{0}}), Status::kOk);
      EXPECT_EQ(txn.commit(), Status::kOk);
      vid = v->vid;
    }
    const std::uint64_t epochs_before = self.counters().gc_epochs;
    // Commits 2k and 2k+1 share an epoch: the first opens it (age 0), the
    // simulated clock then ages past the knob, the second closes it.
    for (int i = 0; i < 10; ++i) {
      Transaction txn(db, self, TxnMode::kWrite);
      EXPECT_EQ(txn.update_property(VertexHandle{vid}, pt,
                                    PropValue{static_cast<std::int64_t>(i)}),
                Status::kOk);
      EXPECT_EQ(txn.commit(), Status::kOk);
      self.charge(2000.0);  // modeled idle time between commits
    }
    EXPECT_EQ(self.counters().gc_epochs - epochs_before, 5u);
  });
}

// ---------------------------------------------------------------------------
// Multi-writer group-commit stress: zero stale / torn reads
// ---------------------------------------------------------------------------

TEST(CommitPipeline, ConcurrentGroupCommittingWritersNeverYieldStaleOrTornReads) {
  // Ranks 0 and 1 are writers, each group-committing monotonically
  // increasing (a == b) property pairs to its own vertex through the
  // pipeline with write-through on; ranks 2 and 3 re-read both vertices
  // through kRead transactions. A stale serve (cache or window) would show
  // a regressing value; a torn one would show a != b. Writers and readers
  // contend on real locks, so conflicted transactions retry.
  rma::Runtime rt(4);
  constexpr std::int64_t kRounds = 150;
  std::atomic<int> writers_done{0};
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, make_cfg(true, true, /*epoch_txns=*/4));
    const std::uint32_t pa = *db->create_ptype(
        self, PropertyType{.name = "a", .dtype = Datatype::kInt64});
    const std::uint32_t pb = *db->create_ptype(
        self, PropertyType{.name = "b", .dtype = Datatype::kInt64});
    // App ids 0 and 1 land on ranks 0 and 1 (round-robin partitioning).
    if (self.id() < 2) {
      Transaction w(db, self, TxnMode::kWrite);
      auto v = w.create_vertex(static_cast<std::uint64_t>(self.id()));
      EXPECT_TRUE(v.ok());
      EXPECT_EQ(w.update_property(*v, pa, PropValue{std::int64_t{0}}), Status::kOk);
      EXPECT_EQ(w.update_property(*v, pb, PropValue{std::int64_t{0}}), Status::kOk);
      EXPECT_EQ(w.commit(), Status::kOk);
    }
    self.barrier();

    if (self.id() < 2) {
      const std::uint64_t my_id = static_cast<std::uint64_t>(self.id());
      for (std::int64_t i = 1; i <= kRounds;) {
        Transaction w(db, self, TxnMode::kWrite);
        auto vh = w.find_vertex(my_id);
        if (!vh.ok()) {
          w.abort();
          continue;  // a reader holds the lock; retry
        }
        if (!ok(w.update_property(*vh, pa, PropValue{i})) ||
            !ok(w.update_property(*vh, pb, PropValue{i})) || !ok(w.commit())) {
          continue;
        }
        ++i;
      }
      if (auto* cp = db->commit_pipeline(self)) cp->sync(self);
      writers_done.fetch_add(1);
    } else {
      std::int64_t last[2] = {0, 0};
      auto read_one = [&](std::uint64_t id) {
        Transaction r(db, self, TxnMode::kRead);
        auto vh = r.find_vertex(id);
        if (!vh.ok()) {
          r.abort();
          return false;  // writer holds the lock; retry
        }
        auto a = r.get_properties(*vh, pa);
        auto b = r.get_properties(*vh, pb);
        (void)r.commit();
        if (!a.ok() || !b.ok() || a->empty() || b->empty()) return false;
        const std::int64_t va = std::get<std::int64_t>((*a)[0]);
        const std::int64_t vb = std::get<std::int64_t>((*b)[0]);
        EXPECT_EQ(va, vb) << "torn read on vertex " << id;
        EXPECT_GE(va, last[id]) << "stale read on vertex " << id;
        last[id] = va;
        return true;
      };
      while (writers_done.load() < 2)
        for (std::uint64_t id = 0; id < 2; ++id) (void)read_one(id);
      // Writers finished and synced their epochs: an uncontended read must
      // now observe the final committed value -- anything less is a stale
      // serve surviving the stream.
      for (std::uint64_t id = 0; id < 2; ++id) {
        while (!read_one(id)) {
        }
        EXPECT_EQ(last[id], kRounds) << "final value lost on vertex " << id;
      }
    }
    self.barrier();
  });
}

// ---------------------------------------------------------------------------
// Write-through semantics
// ---------------------------------------------------------------------------

TEST(WriteThrough, OwnWriteSetStaysWarmAndAbortNeverRestamps) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, make_cfg(false, true));
    const std::uint32_t pt = *db->create_ptype(
        self, PropertyType{.name = "p", .dtype = Datatype::kInt64});
    DPtr vid;
    {
      Transaction txn(db, self, TxnMode::kWrite);
      auto v = txn.create_vertex(7);
      EXPECT_EQ(txn.update_property(*v, pt, PropValue{std::int64_t{10}}), Status::kOk);
      EXPECT_EQ(txn.commit(), Status::kOk);
      vid = v->vid;
    }
    // Creation restamped the entry: the first read hits and sees the bytes.
    const std::uint64_t hits0 = self.counters().scache_hits;
    {
      Transaction r(db, self, TxnMode::kRead);
      auto vh = r.associate_vertex(vid);
      EXPECT_TRUE(vh.ok());
      auto p = r.get_properties(*vh, pt);
      EXPECT_TRUE(p.ok());
      EXPECT_EQ(std::get<std::int64_t>((*p)[0]), 10);
      EXPECT_EQ(r.commit(), Status::kOk);
    }
    EXPECT_GT(self.counters().scache_hits, hits0) << "read-after-create missed";

    // Committed update: restamp keeps the row warm at the new bytes.
    {
      Transaction txn(db, self, TxnMode::kWrite);
      EXPECT_EQ(txn.update_property(VertexHandle{vid}, pt, PropValue{std::int64_t{11}}),
                Status::kOk);
      EXPECT_EQ(txn.commit(), Status::kOk);
    }
    const std::uint64_t hits1 = self.counters().scache_hits;
    {
      Transaction r(db, self, TxnMode::kRead);
      auto vh = r.associate_vertex(vid);
      EXPECT_TRUE(vh.ok());
      auto p = r.get_properties(*vh, pt);
      EXPECT_TRUE(p.ok());
      EXPECT_EQ(std::get<std::int64_t>((*p)[0]), 11);
      EXPECT_EQ(r.commit(), Status::kOk);
    }
    EXPECT_GT(self.counters().scache_hits, hits1) << "read-after-update missed";

    // Aborted update: the buffered bytes diverged from the window and must
    // not be stamped; the next read misses (version bumped by the unlock)
    // and fetches the real, committed bytes.
    {
      Transaction txn(db, self, TxnMode::kWrite);
      EXPECT_EQ(txn.update_property(VertexHandle{vid}, pt, PropValue{std::int64_t{99}}),
                Status::kOk);
      txn.abort();
    }
    {
      Transaction r(db, self, TxnMode::kRead);
      auto vh = r.associate_vertex(vid);
      EXPECT_TRUE(vh.ok());
      auto p = r.get_properties(*vh, pt);
      EXPECT_TRUE(p.ok());
      EXPECT_EQ(std::get<std::int64_t>((*p)[0]), 11) << "aborted bytes resurrected";
      EXPECT_EQ(r.commit(), Status::kOk);
    }
  });
}

// ---------------------------------------------------------------------------
// Byte-based shared-cache accounting
// ---------------------------------------------------------------------------

TEST(SharedCacheBytes, FifoEvictsByAssembledHolderSize) {
  cache::SharedBlockCache c(cache::SharedCacheConfig{.max_bytes = 2048});
  std::vector<std::byte> small(512);
  std::vector<std::byte> big(1024);
  auto key = [](std::uint64_t i) { return DPtr{0, i * 512}; };

  for (std::uint64_t i = 0; i < 4; ++i) c.insert(key(i), small, 1, false);
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(c.bytes(), 2048u);

  // A big entry displaces two FIFO-oldest small ones, not just one.
  c.insert(key(4), big, 1, false);
  EXPECT_EQ(c.bytes(), 2048u);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.find(key(0)), nullptr);
  EXPECT_EQ(c.find(key(1)), nullptr);
  EXPECT_NE(c.find(key(2)), nullptr);
  EXPECT_NE(c.find(key(4)), nullptr);

  // Refreshing an entry re-arms its FIFO slot and re-charges its new size.
  c.insert(key(2), big, 2, false);
  EXPECT_LE(c.bytes(), 2048u);
  EXPECT_NE(c.find(key(2)), nullptr);
  EXPECT_EQ(c.find(key(2))->version, 2u);

  // Erase refunds bytes.
  const std::size_t before = c.bytes();
  EXPECT_TRUE(c.erase(key(2)));
  EXPECT_EQ(c.bytes(), before - 1024);

  // An entry larger than the whole budget is never retained -- and never
  // admitted either: the resident hot set must survive one cold supernode.
  const std::size_t survivors = c.size();
  std::vector<std::byte> huge(4096);
  c.insert(key(9), huge, 1, false);
  EXPECT_EQ(c.find(key(9)), nullptr);
  EXPECT_EQ(c.size(), survivors) << "oversized insert wiped the cache";
  EXPECT_NE(c.find(key(4)), nullptr);
  EXPECT_LE(c.bytes(), 2048u);
}

TEST(SharedCacheBytes, TranslationMemoSurvivesForgetReteachCycles) {
  cache::SharedBlockCache c(
      cache::SharedCacheConfig{.max_bytes = 1 << 20, .max_translations = 4});
  // Epoch-mismatch churn: forget + re-teach one hot key many times (each
  // cycle arms a fresh FIFO slot, leaving the old one stale).
  for (std::uint64_t i = 0; i < 100; ++i) {
    c.remember_translation(1, DPtr{0, 512}, i);
    c.forget_translation(1);
  }
  c.remember_translation(1, DPtr{0, 512}, 100);
  for (std::uint64_t k = 2; k <= 4; ++k)
    c.remember_translation(k, DPtr{0, k * 512}, 0);
  // The stale slots from the churn must not evict the live re-taught memo.
  EXPECT_NE(c.find_translation(1), nullptr);
  // Real FIFO order still applies: the oldest *live* memo goes first.
  c.remember_translation(5, DPtr{0, 5 * 512}, 0);
  EXPECT_EQ(c.find_translation(1), nullptr);
  EXPECT_NE(c.find_translation(2), nullptr);
  EXPECT_NE(c.find_translation(5), nullptr);
}

// ---------------------------------------------------------------------------
// Erase-epoch-validated translation memo (bare translates)
// ---------------------------------------------------------------------------

TEST(TranslateMemo, BareTranslateHitsUnderMatchingEpochAndFallsBackAfterErase) {
  rma::Runtime rt(2);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, make_cfg(false, false));
    if (self.id() == 0) {
      Transaction txn(db, self, TxnMode::kWrite);
      EXPECT_TRUE(txn.create_vertex(42).ok());
      EXPECT_EQ(txn.commit(), Status::kOk);
    }
    self.barrier();

    // First bare translate: walks the DHT, teaches the memo.
    DPtr first;
    {
      Transaction txn(db, self, TxnMode::kRead);
      auto r = txn.translate_vertex_id(42);
      EXPECT_TRUE(r.ok());
      first = *r;
      txn.abort();
    }
    // Second: memo + epoch check, no walk.
    const std::uint64_t hits0 = self.counters().xlate_hits;
    {
      Transaction txn(db, self, TxnMode::kRead);
      auto r = txn.translate_vertex_id(42);
      EXPECT_TRUE(r.ok());
      EXPECT_EQ(*r, first);
      txn.abort();
    }
    EXPECT_EQ(self.counters().xlate_hits, hits0 + 1);

    // Batched flavor validates through the same epoch read.
    {
      Transaction txn(db, self, TxnMode::kRead);
      const std::uint64_t ids[] = {42};
      auto r = txn.translate_vertex_ids(ids);
      EXPECT_TRUE(r.ok());
      EXPECT_EQ((*r)[0], first);
      txn.abort();
    }
    EXPECT_GT(self.counters().xlate_hits, hits0 + 1);
    self.barrier();

    // Delete: the erase bumps the epoch; every rank's memo is refuted.
    if (self.id() == 0) {
      Transaction txn(db, self, TxnMode::kWrite);
      auto vh = txn.find_vertex(42);
      EXPECT_TRUE(vh.ok());
      EXPECT_EQ(txn.delete_vertex(*vh), Status::kOk);
      EXPECT_EQ(txn.commit(), Status::kOk);
    }
    self.barrier();
    {
      const std::uint64_t fb0 = self.counters().xlate_fallbacks;
      Transaction txn(db, self, TxnMode::kRead);
      auto r = txn.translate_vertex_id(42);
      EXPECT_EQ(r.status(), Status::kNotFound);
      EXPECT_EQ(self.counters().xlate_fallbacks, fb0 + 1);
      txn.abort();
    }
    self.barrier();

    // Re-create (possibly at a recycled or different block): the forgotten
    // memo re-learns the fresh translation from the walk.
    DPtr second;
    if (self.id() == 0) {
      Transaction txn(db, self, TxnMode::kWrite);
      auto v = txn.create_vertex(42);
      EXPECT_TRUE(v.ok());
      EXPECT_EQ(txn.commit(), Status::kOk);
      second = v->vid;
    }
    self.barrier();
    {
      Transaction txn(db, self, TxnMode::kRead);
      auto r = txn.translate_vertex_id(42);
      EXPECT_TRUE(r.ok());
      if (self.id() == 0) EXPECT_EQ(*r, second);
      // The result must agree with a fresh find() (ground truth).
      auto vh = txn.find_vertex(42);
      EXPECT_TRUE(vh.ok());
      EXPECT_EQ(*r, vh->vid);
      txn.abort();
    }
    self.barrier();
  });
}

}  // namespace
}  // namespace gdi
