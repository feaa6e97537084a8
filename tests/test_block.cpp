// Unit tests: BGDL block store -- lock-free acquire/release (tagged
// free-list), pool exhaustion, cross-rank allocation, data access, and the
// single-word reader/writer locks.
#include <gtest/gtest.h>

#include <set>
#include <unordered_set>
#include <vector>

#include "block/block_store.hpp"

namespace gdi::block {
namespace {

BlockStoreConfig small_cfg(std::size_t blocks = 16, std::size_t bs = 256) {
  return BlockStoreConfig{bs, blocks};
}

TEST(BlockStore, AcquireReturnsDistinctAlignedBlocks) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto bs = BlockStore::create(self, small_cfg());
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 15; ++i) {  // block 0 reserved: 15 usable of 16
      const DPtr p = bs->acquire(self, 0);
      EXPECT_FALSE(p.is_null());
      EXPECT_EQ(p.offset() % bs->block_size(), 0u);
      EXPECT_NE(p.offset(), 0u) << "block 0 must stay reserved";
      EXPECT_TRUE(seen.insert(p.raw()).second) << "duplicate allocation";
    }
    EXPECT_TRUE(bs->acquire(self, 0).is_null()) << "pool must be exhausted";
  });
}

TEST(BlockStore, ReleaseMakesBlockReusable) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto bs = BlockStore::create(self, small_cfg(4));
    const DPtr a = bs->acquire(self, 0);
    const DPtr b = bs->acquire(self, 0);
    const DPtr c = bs->acquire(self, 0);
    EXPECT_TRUE(bs->acquire(self, 0).is_null());
    bs->release(self, b);
    const DPtr d = bs->acquire(self, 0);
    EXPECT_EQ(d, b);  // LIFO free list returns the freed block
    (void)a;
    (void)c;
  });
}

TEST(BlockStore, AllocatedCountTracks) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto bs = BlockStore::create(self, small_cfg());
    EXPECT_EQ(bs->allocated_count(self, 0), 0u);
    const DPtr a = bs->acquire(self, 0);
    const DPtr b = bs->acquire(self, 0);
    EXPECT_EQ(bs->allocated_count(self, 0), 2u);
    bs->release(self, a);
    EXPECT_EQ(bs->allocated_count(self, 0), 1u);
    bs->release(self, b);
    EXPECT_EQ(bs->allocated_count(self, 0), 0u);
  });
}

TEST(BlockStore, RemoteAcquireAndDataRoundtrip) {
  rma::Runtime rt(3);
  rt.run([&](rma::Rank& self) {
    auto bs = BlockStore::create(self, small_cfg(32));
    if (self.id() == 0) {
      // Rank 0 allocates a block on rank 2, writes, reads back.
      const DPtr p = bs->acquire(self, 2);
      EXPECT_FALSE(p.is_null());
      EXPECT_EQ(p.rank(), 2u);
      std::vector<std::byte> out(bs->block_size());
      for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = static_cast<std::byte>(i & 0xFF);
      bs->write_block(self, p, out.data());
      std::vector<std::byte> in(bs->block_size());
      bs->read_block(self, p, in.data());
      EXPECT_EQ(in, out);
      // Sub-block access.
      std::uint64_t word = 0xABCD;
      bs->write(self, p, 16, &word, 8);
      std::uint64_t got = 0;
      bs->read(self, p, 16, &got, 8);
      EXPECT_EQ(got, 0xABCDu);
      bs->release(self, p);
    }
    self.barrier();
  });
}

class BlockConcurrency : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, BlockConcurrency, ::testing::Values(2, 4, 8));

TEST_P(BlockConcurrency, ConcurrentAcquireYieldsUniqueBlocks) {
  const int P = GetParam();
  rma::Runtime rt(P);
  constexpr int kPerRank = 50;
  std::vector<std::vector<std::uint64_t>> got(static_cast<std::size_t>(P));
  rt.run([&](rma::Rank& self) {
    auto bs = BlockStore::create(self, small_cfg(1024));
    auto& mine = got[static_cast<std::size_t>(self.id())];
    // All ranks hammer rank 0's pool.
    for (int i = 0; i < kPerRank; ++i) {
      const DPtr p = bs->acquire(self, 0);
      EXPECT_FALSE(p.is_null());
      mine.push_back(p.raw());
    }
    self.barrier();
    EXPECT_EQ(bs->allocated_count(self, 0),
              static_cast<std::uint64_t>(P) * kPerRank);
    self.barrier();
    for (auto raw : mine) bs->release(self, DPtr{raw});
    self.barrier();
    EXPECT_EQ(bs->allocated_count(self, 0), 0u);
  });
  std::unordered_set<std::uint64_t> all;
  for (const auto& v : got)
    for (auto raw : v) EXPECT_TRUE(all.insert(raw).second) << "double allocation";
}

TEST_P(BlockConcurrency, AcquireReleaseChurnNoCorruption) {
  const int P = GetParam();
  rma::Runtime rt(P);
  rt.run([&](rma::Rank& self) {
    // Tiny pool + heavy churn exercises the ABA-tagged head.
    auto bs = BlockStore::create(self, small_cfg(8));
    for (int round = 0; round < 300; ++round) {
      const DPtr p = bs->acquire(self, 0);
      if (!p.is_null()) {
        std::uint64_t v = p.raw();
        bs->write(self, p, 0, &v, 8);
        std::uint64_t got = 0;
        bs->read(self, p, 0, &got, 8);
        EXPECT_EQ(got, v);
        bs->release(self, p);
      }
    }
    self.barrier();
    EXPECT_EQ(bs->allocated_count(self, 0), 0u);
  });
}

TEST(RwLock, MultipleReadersSharedAccess) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto bs = BlockStore::create(self, small_cfg());
    const DPtr p = bs->acquire(self, 0);
    EXPECT_TRUE(bs->try_read_lock(self, p));
    EXPECT_TRUE(bs->try_read_lock(self, p));
    EXPECT_TRUE(bs->try_read_lock(self, p));
    EXPECT_EQ(bs->lock_word(self, p), 3u);
    EXPECT_FALSE(bs->try_write_lock(self, p)) << "readers block writers";
    bs->read_unlock(self, p);
    bs->read_unlock(self, p);
    bs->read_unlock(self, p);
    EXPECT_EQ(bs->lock_word(self, p), 0u);
  });
}

TEST(RwLock, WriterExcludesEveryone) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto bs = BlockStore::create(self, small_cfg());
    const DPtr p = bs->acquire(self, 0);
    EXPECT_TRUE(bs->try_write_lock(self, p));
    EXPECT_FALSE(bs->try_write_lock(self, p));
    EXPECT_FALSE(bs->try_read_lock(self, p));
    EXPECT_EQ(bs->lock_word(self, p), BlockStore::kWriteBit);
    bs->write_unlock(self, p);
    EXPECT_TRUE(bs->try_read_lock(self, p));
    bs->read_unlock(self, p);
  });
}

TEST(RwLock, UpgradeOnlyFromSoleReader) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto bs = BlockStore::create(self, small_cfg());
    const DPtr p = bs->acquire(self, 0);
    EXPECT_TRUE(bs->try_read_lock(self, p));
    EXPECT_TRUE(bs->try_read_lock(self, p));
    EXPECT_FALSE(bs->try_upgrade_lock(self, p)) << "two readers: no upgrade";
    bs->read_unlock(self, p);
    EXPECT_TRUE(bs->try_upgrade_lock(self, p)) << "sole reader upgrades";
    EXPECT_EQ(bs->lock_word(self, p), BlockStore::kWriteBit);
    bs->write_unlock(self, p);
  });
}

// Blocks whose lock words carry version 1: each written (locked and
// released) once, so no acquisition can assume the fresh-block word 0.
std::vector<DPtr> written_blocks(BlockStore& bs, rma::Rank& self, int n) {
  std::vector<DPtr> blks;
  for (int i = 0; i < n; ++i) {
    blks.push_back(bs.acquire(self, 0));
    EXPECT_TRUE(bs.try_write_lock(self, blks.back()));
    bs.write_unlock(self, blks.back());
  }
  return blks;
}

constexpr std::uint64_t kVersion1 = std::uint64_t{1} << BlockStore::kVersionShift;

TEST(RwLock, SoleReaderUpgradeOfWrittenBlockIsOneCas) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto bs = BlockStore::create(self, small_cfg());
    const DPtr p = written_blocks(*bs, self, 1)[0];
    std::uint64_t word = 0;
    EXPECT_TRUE(bs->try_read_lock(self, p, &word));
    EXPECT_EQ(word, kVersion1) << "the FAA displaced the free version-1 word";
    self.reset_counters();
    EXPECT_TRUE(bs->try_upgrade_lock(self, p, word));
    EXPECT_EQ(self.counters().atomics, 1u) << "the acquisition word's version is the bid";
    EXPECT_EQ(bs->lock_word(self, p), kVersion1 | BlockStore::kWriteBit);
    bs->write_unlock(self, p);
  });
}

TEST(RwLock, ReadLockManyOnWrittenBlocksIsOneFaaRound) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto bs = BlockStore::create(self, small_cfg());
    const std::vector<DPtr> blks = written_blocks(*bs, self, 8);
    self.reset_counters();
    std::vector<std::uint64_t> words;
    const auto got = bs->try_read_lock_many(self, blks, &words);
    EXPECT_EQ(self.counters().atomics, 8u);
    EXPECT_EQ(self.counters().flushes, 1u);
    ASSERT_EQ(words.size(), blks.size());
    for (std::size_t i = 0; i < blks.size(); ++i) {
      EXPECT_EQ(got[i], 1);
      EXPECT_EQ(words[i], kVersion1);
      EXPECT_EQ(bs->lock_word(self, blks[i]), kVersion1 | 1);
      bs->read_unlock(self, blks[i]);
    }
  });
}

TEST(RwLock, ReadLockManyWithdrawsFromWriteLockedWord) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto bs = BlockStore::create(self, small_cfg());
    const std::vector<DPtr> blks = written_blocks(*bs, self, 3);
    EXPECT_TRUE(bs->try_write_lock(self, blks[1], kVersion1));
    const auto got = bs->try_read_lock_many(self, blks);
    EXPECT_EQ(got, (std::vector<std::uint8_t>{1, 0, 1}));
    (void)self.flush_all();  // completes the withdrawal
    EXPECT_EQ(bs->lock_word(self, blks[1]), kVersion1 | BlockStore::kWriteBit);
    bs->write_unlock(self, blks[1]);
    EXPECT_EQ(bs->lock_word(self, blks[1]), 2 * kVersion1);
    bs->read_unlock(self, blks[0]);
    bs->read_unlock(self, blks[2]);
  });
}

TEST(RwLock, ReadLockManyCarriesBlockGetsAndDropsDeniedBytes) {
  // Each read lock posts its block GET in the FAA round: one flush for the
  // whole set, every GET counted, and only granted words' bytes copied.
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto bs = BlockStore::create(self, small_cfg());
    const std::vector<DPtr> blks = written_blocks(*bs, self, 3);
    const std::size_t B = bs->block_size();
    for (std::size_t i = 0; i < blks.size(); ++i) {
      const std::vector<std::byte> fill(B, std::byte(0x10 + i));
      bs->write_block(self, blks[i], fill.data());
    }
    EXPECT_TRUE(bs->try_write_lock(self, blks[1], kVersion1));
    const std::uint64_t held = bs->lock_word(self, blks[1]);
    std::vector<std::vector<std::byte>> bufs(3, std::vector<std::byte>(B, std::byte{0xAB}));
    std::vector<void*> dsts{bufs[0].data(), bufs[1].data(), bufs[2].data()};
    self.reset_counters();
    std::vector<std::uint64_t> words;
    const auto got = bs->try_read_lock_many(self, blks, &words, dsts);
    EXPECT_EQ(got, (std::vector<std::uint8_t>{1, 0, 1}));
    EXPECT_EQ(self.counters().gets, 3u) << "the denied word's GET was posted too";
    EXPECT_EQ(self.counters().bytes_get, 3 * B);
    EXPECT_EQ(self.counters().flushes, 1u);
    EXPECT_EQ(self.counters().atomics, 4u) << "3 FAAs + 1 withdrawal";
    EXPECT_EQ(bufs[0], std::vector<std::byte>(B, std::byte{0x10}));
    EXPECT_EQ(bufs[1], std::vector<std::byte>(B, std::byte{0xAB})) << "denied: untouched";
    EXPECT_EQ(bufs[2], std::vector<std::byte>(B, std::byte{0x12}));
    (void)self.flush_all();  // completes the withdrawal
    EXPECT_EQ(bs->lock_word(self, blks[1]), held) << "withdrawal restores the word";
    bs->write_unlock(self, blks[1]);
    bs->read_unlock(self, blks[0]);
    bs->read_unlock(self, blks[2]);
  });
}

TEST(RwLock, RemoteReadLockWithBlockIsOneRound) {
  rma::Runtime rt(2);
  rt.run([&](rma::Rank& self) {
    auto bs = BlockStore::create(self, small_cfg());
    DPtr p;
    if (self.id() == 1) {
      p = bs->acquire(self, 1);
      const std::vector<std::byte> fill(bs->block_size(), std::byte{0x5C});
      bs->write_block(self, p, fill.data());
    }
    p = DPtr{self.broadcast(p.raw(), 1)};
    if (self.id() == 0) {
      std::vector<std::byte> buf(bs->block_size());
      self.reset_counters();
      std::uint64_t word = 1;
      EXPECT_TRUE(bs->try_read_lock(self, p, &word, buf.data()));
      EXPECT_EQ(word, 0u);
      EXPECT_EQ(self.counters().atomics, 1u);
      EXPECT_EQ(self.counters().gets, 1u);
      EXPECT_EQ(self.counters().flushes, 1u);
      EXPECT_EQ(buf, std::vector<std::byte>(bs->block_size(), std::byte{0x5C}));
      bs->read_unlock(self, p);
      // Denied: the GET is paid, the buffer is left alone, the word restored.
      EXPECT_TRUE(bs->try_write_lock(self, p));
      const std::vector<std::byte> before(bs->block_size(), std::byte{0xAB});
      buf = before;
      self.reset_counters();
      EXPECT_FALSE(bs->try_read_lock(self, p, nullptr, buf.data()));
      EXPECT_EQ(self.counters().gets, 1u);
      EXPECT_EQ(buf, before);
      (void)self.flush_all();
      EXPECT_EQ(bs->lock_word(self, p), BlockStore::kWriteBit);
      bs->write_unlock(self, p);
    }
    self.barrier();
  });
}

TEST_P(BlockConcurrency, WriteLockMutualExclusion) {
  const int P = GetParam();
  rma::Runtime rt(P);
  std::atomic<int> in_critical{0};
  std::atomic<int> max_seen{0};
  std::atomic<int> acquisitions{0};
  rt.run([&](rma::Rank& self) {
    auto bs = BlockStore::create(self, small_cfg());
    const DPtr p = self.broadcast(self.id() == 0 ? bs->acquire(self, 0) : DPtr{}, 0);
    for (int i = 0; i < 200; ++i) {
      if (bs->try_write_lock(self, p)) {
        const int now = ++in_critical;
        int prev = max_seen.load();
        while (prev < now && !max_seen.compare_exchange_weak(prev, now)) {
        }
        ++acquisitions;
        --in_critical;
        bs->write_unlock(self, p);
      }
    }
    self.barrier();
  });
  EXPECT_EQ(max_seen.load(), 1) << "two writers inside the critical section";
  EXPECT_GT(acquisitions.load(), 0);
}

TEST_P(BlockConcurrency, ReadersAndWriterNeverCoexist) {
  const int P = GetParam();
  rma::Runtime rt(P);
  std::atomic<int> readers{0};
  std::atomic<int> writers{0};
  std::atomic<bool> violation{false};
  rt.run([&](rma::Rank& self) {
    auto bs = BlockStore::create(self, small_cfg());
    const DPtr p = self.broadcast(self.id() == 0 ? bs->acquire(self, 0) : DPtr{}, 0);
    for (int i = 0; i < 300; ++i) {
      if (self.id() % 2 == 0) {
        if (bs->try_read_lock(self, p)) {
          ++readers;
          if (writers.load() != 0) violation = true;
          --readers;
          bs->read_unlock(self, p);
        }
      } else {
        if (bs->try_write_lock(self, p)) {
          ++writers;
          if (readers.load() != 0 || writers.load() != 1) violation = true;
          --writers;
          bs->write_unlock(self, p);
        }
      }
    }
    self.barrier();
  });
  EXPECT_FALSE(violation.load());
}

}  // namespace
}  // namespace gdi::block
