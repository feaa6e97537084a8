// Performance-model tests: the paper supports "nearly any function ... with a
// theoretical performance analysis" (Section 5.9). These tests pin the
// communication complexity of key routines by asserting on the RMA op
// counters -- O(1)-work claims become exact op-count checks.
#include <gtest/gtest.h>

#include "gdi/gdi.hpp"

namespace gdi {
namespace {

DatabaseConfig cfg_with_block(std::size_t bs) {
  DatabaseConfig c;
  c.block.block_size = bs;
  c.block.blocks_per_rank = 4096;
  c.dht.entries_per_rank = 1024;
  c.dht.buckets_per_rank = 256;
  return c;
}

TEST(PerfModel, OneBlockVertexFetchIsOneGet) {
  // "One only needs a single remote operation to fetch the data of a vertex
  // that fits in one block" (Section 5.5 design-choice box).
  rma::Runtime rt(2, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, cfg_with_block(512));
    if (self.id() == 0) {
      {
        Transaction w(db, self, TxnMode::kWrite);
        (void)w.create_vertex(1);  // owner rank 1: remote from rank 0
        (void)w.commit();
      }
      Transaction r(db, self, TxnMode::kReadShared);
      auto vid = r.translate_vertex_id(1);
      ASSERT_TRUE(vid.ok());
      self.reset_counters();
      auto vh = r.associate_vertex(*vid);
      ASSERT_TRUE(vh.ok());
      EXPECT_EQ(self.counters().gets, 1u) << "exactly one GET for one block";
      EXPECT_EQ(self.counters().bytes_get, 512u);
      // Cached: further access costs nothing.
      self.reset_counters();
      (void)r.labels_of(*vh);
      EXPECT_EQ(self.counters().gets, 0u);
    }
    self.barrier();
  });
}

TEST(PerfModel, MultiBlockVertexFetchCostsBlockCountGets) {
  rma::Runtime rt(1, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, cfg_with_block(256));
    std::uint32_t nblocks = 0;
    {
      Transaction w(db, self, TxnMode::kWrite);
      auto hub = *w.create_vertex(0);
      for (std::uint64_t i = 1; i <= 50; ++i) {
        auto v = *w.create_vertex(i);
        (void)w.create_edge(hub, v, layout::Dir::kOut);
      }
      (void)w.commit();
    }
    {
      // Learn the block count from a first fetch.
      Transaction r(db, self, TxnMode::kReadShared);
      auto vid = *r.translate_vertex_id(0);
      std::uint64_t header[6];
      db->blocks().read(self, vid, 0, header, sizeof(header));
      std::uint32_t nb;
      std::memcpy(&nb, reinterpret_cast<std::byte*>(header) + 12, 4);
      nblocks = nb;
      ASSERT_GT(nblocks, 1u) << "test requires a multi-block holder";
      self.reset_counters();
      auto vh = r.associate_vertex(vid);
      ASSERT_TRUE(vh.ok());
      EXPECT_EQ(self.counters().gets, nblocks)
          << "fetch = 1 primary GET + (num_blocks-1) continuation GETs";
    }
  });
}

TEST(PerfModel, DhtLookupMissOnEmptyBucketIsOneAtomic) {
  rma::Runtime rt(1, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    // Fixed table (max_shards=1): a miss is exactly one AGET of the head.
    dht::DistributedHashTable t(1, dht::DhtConfig{1024, 128, 1, 1});
    self.reset_counters();
    EXPECT_EQ(t.lookup(self, 12345), std::nullopt);
    EXPECT_EQ(self.counters().atomics, 1u) << "one AGET of the bucket head";
    EXPECT_EQ(self.counters().gets, 0u);

    // Growable table: a miss additionally confirms the shard directory has
    // not advanced -- four directory words (shard count, clean count,
    // pending-clean count, migration stamp) read in ONE overlapped flush
    // round, the steady-state price of elasticity. Still one probe round.
    dht::DistributedHashTable g(1, dht::DhtConfig{1024, 128, 1, 8});
    self.reset_counters();
    EXPECT_EQ(g.lookup(self, 12345), std::nullopt);
    EXPECT_EQ(self.counters().atomics, 5u)
        << "bucket-head AGET + one overlapped shard-directory confirm round";
    EXPECT_EQ(self.counters().gets, 0u);
    EXPECT_EQ(self.counters().batches, 1u)
        << "the directory confirm is a single completion round";
  });
}

TEST(PerfModel, DhtLookupHitCostIsChainPosition) {
  rma::Runtime rt(1, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    // Single bucket: key k sits at chain position (n-1-k) from the head.
    dht::DistributedHashTable t(1, dht::DhtConfig{1, 128, 1});
    for (std::uint64_t k = 0; k < 8; ++k) ASSERT_TRUE(t.insert(self, k, k));
    self.reset_counters();
    EXPECT_TRUE(t.lookup(self, 7).has_value());  // head of chain
    const auto head_cost = self.counters().atomics;
    self.reset_counters();
    EXPECT_TRUE(t.lookup(self, 0).has_value());  // tail of chain
    const auto tail_cost = self.counters().atomics;
    EXPECT_GT(tail_cost, head_cost);
    EXPECT_GE(head_cost, 2u);  // bucket head + >=1 entry field reads
  });
}

TEST(PerfModel, CommitWritesOnlyDirtyBlocks) {
  rma::Runtime rt(1, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, cfg_with_block(256));
    PropertyType pd{.name = "p", .dtype = Datatype::kInt64};
    const std::uint32_t pt = *db->create_ptype(self, pd);
    {
      Transaction w(db, self, TxnMode::kWrite);
      auto hub = *w.create_vertex(0);
      for (std::uint64_t i = 1; i <= 50; ++i) {
        auto v = *w.create_vertex(i);
        (void)w.create_edge(hub, v, layout::Dir::kOut);
      }
      (void)w.commit();
    }
    // Update one property on the (multi-block) hub: write-back must touch a
    // bounded dirty range, not the whole holder.
    Transaction w(db, self, TxnMode::kWrite);
    auto vh = *w.find_vertex(0);
    std::uint64_t fetch_gets = self.counters().gets;
    ASSERT_EQ(w.update_property(vh, pt, PropValue{std::int64_t{9}}), Status::kOk);
    self.reset_counters();
    ASSERT_EQ(w.commit(), Status::kOk);
    EXPECT_LT(self.counters().puts, fetch_gets)
        << "dirty write-back must be narrower than the full holder";
    EXPECT_GE(self.counters().puts, 2u)
        << "header block + property block are both dirty";
  });
}

TEST(PerfModel, CollectiveCostScalesLogarithmically) {
  double t2 = 0, t8 = 0;
  for (int P : {2, 8}) {
    rma::Runtime rt(P, rma::NetParams::xc50());
    rt.run([&](rma::Rank& self) {
      self.reset_clock();
      self.barrier();
      if (self.id() == 0) (P == 2 ? t2 : t8) = self.sim_time_ns();
    });
  }
  EXPECT_NEAR(t8 / t2, 3.0, 0.01) << "barrier cost ~ ceil(log2 P) stages";
}

TEST(PerfModel, ReadSharedScanHasNoAtomics) {
  // The paper's optimized read-only transactions take no locks: a kReadShared
  // scan must issue zero atomics (no lock words touched).
  rma::Runtime rt(1, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, cfg_with_block(512));
    {
      Transaction w(db, self, TxnMode::kWrite);
      for (std::uint64_t i = 0; i < 16; ++i) (void)w.create_vertex(i);
      (void)w.commit();
    }
    Transaction r(db, self, TxnMode::kReadShared);
    std::vector<DPtr> vids;
    for (std::uint64_t i = 0; i < 16; ++i) vids.push_back(*r.translate_vertex_id(i));
    self.reset_counters();
    for (DPtr vid : vids) {
      auto vh = r.associate_vertex(vid);
      ASSERT_TRUE(vh.ok());
      (void)r.labels_of(*vh);
    }
    EXPECT_EQ(self.counters().atomics, 0u);
    (void)r.commit();
  });
}

TEST(PerfModel, ReadLockedScanUsesOneAtomicPerVertex) {
  rma::Runtime rt(1, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, cfg_with_block(512));
    {
      Transaction w(db, self, TxnMode::kWrite);
      for (std::uint64_t i = 0; i < 8; ++i) (void)w.create_vertex(i);
      (void)w.commit();
    }
    Transaction r(db, self, TxnMode::kRead);
    std::vector<DPtr> vids;
    for (std::uint64_t i = 0; i < 8; ++i) vids.push_back(*r.translate_vertex_id(i));
    self.reset_counters();
    for (DPtr vid : vids) ASSERT_TRUE(r.associate_vertex(vid).ok());
    // Uncontended read lock on a written block: one FAA per vertex.
    EXPECT_EQ(self.counters().atomics, 8u);
    (void)r.commit();
  });
}

TEST(PerfModel, BlockAcquireUncontendedIsThreeAtomics) {
  // acquireBlock = head AGET + next AGET + CAS (+1 FAA bookkeeping).
  rma::Runtime rt(1, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    block::BlockStore bs(1, block::BlockStoreConfig{256, 64});
    self.reset_counters();
    const DPtr p = bs.acquire(self, 0);
    ASSERT_FALSE(p.is_null());
    EXPECT_EQ(self.counters().atomics, 4u);
  });
}

TEST(PerfModel, BatchedFrontierFetchCheaperThanSequential) {
  // Tentpole charge rule: an overlapped batch of k one-sided reads costs
  //   ceil(k/Q) * max(alpha) + sum(beta*bytes) + alpha_flush
  // which must undercut the blocking sum(alpha + beta*bytes) for any
  // frontier deeper than a couple of ops.
  rma::Runtime rt(2, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    auto win = rma::Window::create(self, 1 << 16);
    if (self.id() == 0) {
      constexpr int kFrontier = 48;
      std::vector<std::byte> buf(kFrontier * 512);
      self.reset_clock();
      for (int i = 0; i < kFrontier; ++i)
        win->get(self, buf.data() + i * 512, 512, 1, static_cast<std::uint64_t>(i) * 512);
      const double sequential = self.sim_time_ns();
      self.reset_clock();
      for (int i = 0; i < kFrontier; ++i)
        (void)win->get_nb(self, buf.data() + i * 512, 512, 1,
                          static_cast<std::uint64_t>(i) * 512);
      (void)self.flush_all();
      const double batched = self.sim_time_ns();
      EXPECT_LT(batched, sequential) << "batched < sequential must always hold here";
      EXPECT_LT(batched, sequential / 4.0)
          << "a 48-deep frontier should amortize most of its latency";
    }
    self.barrier();
  });
}

// --- one round per lock step (read lock + primary GET, paired upgrades) -----

TEST(PerfModel, RemoteSingletonReadLockCarriesItsPrimaryGet) {
  // A read lock on a remote holder posts the primary GET behind its FAA:
  // one overlapped round and one flush instead of FAA, then GET.
  rma::Runtime rt(2, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, cfg_with_block(512));
    if (self.id() == 0) {
      {
        Transaction w(db, self, TxnMode::kWrite);
        (void)w.create_vertex(1);  // owner rank 1: remote from rank 0
        (void)w.commit();
      }
      Transaction r(db, self, TxnMode::kRead);
      const DPtr vid = *r.translate_vertex_id(1);
      self.reset_counters();
      ASSERT_TRUE(r.associate_vertex(vid).ok());
      EXPECT_EQ(self.counters().atomics, 1u) << "one FAA";
      EXPECT_EQ(self.counters().gets, 1u) << "one primary GET";
      EXPECT_EQ(self.counters().bytes_get, 512u);
      EXPECT_EQ(self.counters().flushes, 1u) << "both in one flushed round";
      (void)r.commit();
    }
    self.barrier();
  });
}

TEST(PerfModel, RemoteMultiBlockReadLockAddsOnlyTheTailRound) {
  rma::Runtime rt(2, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, cfg_with_block(256));
    if (self.id() == 0) {
      {
        Transaction w(db, self, TxnMode::kWrite);
        auto hub = *w.create_vertex(1);  // owner rank 1: remote from rank 0
        for (std::uint64_t i = 2; i <= 12; i += 2)
          (void)w.create_edge(hub, *w.create_vertex(i), layout::Dir::kOut);
        (void)w.commit();
      }
      Transaction r(db, self, TxnMode::kRead);
      const DPtr vid = *r.translate_vertex_id(1);
      std::uint32_t nb = 0;
      db->blocks().read(self, vid, 12, &nb, 4);
      ASSERT_EQ(nb, 2u) << "test requires a two-block holder";
      self.reset_counters();
      ASSERT_TRUE(r.associate_vertex(vid).ok());
      EXPECT_EQ(self.counters().atomics, 1u);
      EXPECT_EQ(self.counters().gets, 2u) << "primary with the lock, then the tail";
      EXPECT_EQ(self.counters().flushes, 1u) << "the lone tail GET stays blocking";
      (void)r.commit();
    }
    self.barrier();
  });
}

TEST(PerfModel, LocalSingletonReadLockStaysBlocking) {
  // A local FAA then a local GET undercuts one overlapped round plus a fence.
  rma::Runtime rt(1, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, cfg_with_block(512));
    {
      Transaction w(db, self, TxnMode::kWrite);
      (void)w.create_vertex(0);
      (void)w.commit();
    }
    Transaction r(db, self, TxnMode::kRead);
    const DPtr vid = *r.translate_vertex_id(0);
    self.reset_counters();
    ASSERT_TRUE(r.associate_vertex(vid).ok());
    EXPECT_EQ(self.counters().atomics, 1u);
    EXPECT_EQ(self.counters().gets, 1u);
    EXPECT_EQ(self.counters().flushes, 0u);
    (void)r.commit();
  });
}

TEST(PerfModel, ReadBatchOfUncachedHoldersIsOneFlush) {
  // k uncached single-block holders: k FAAs and k primary GETs share one
  // flushed round; no second primary round follows.
  constexpr std::uint64_t kHolders = 6;
  rma::Runtime rt(2, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, cfg_with_block(512));
    if (self.id() == 0) {
      {
        Transaction w(db, self, TxnMode::kWrite);
        for (std::uint64_t i = 0; i < kHolders; ++i) (void)w.create_vertex(i);
        (void)w.commit();
      }
      Transaction r(db, self, TxnMode::kRead);
      std::vector<DPtr> vids;
      for (std::uint64_t i = 0; i < kHolders; ++i) vids.push_back(*r.translate_vertex_id(i));
      self.reset_counters();
      BatchScope scope = r.batch();
      std::vector<Future<VertexHandle>> futs;
      for (DPtr v : vids) futs.push_back(scope.associate(v));
      ASSERT_EQ(scope.execute(), Status::kOk);
      for (const auto& f : futs) EXPECT_TRUE(f.ok());
      EXPECT_EQ(self.counters().atomics, kHolders);
      EXPECT_EQ(self.counters().gets, kHolders);
      EXPECT_EQ(self.counters().flushes, 1u);
      (void)r.commit();
    }
    self.barrier();
  });
}

TEST(PerfModel, CreateEdgeUpgradesBothEndpointsInOneRound) {
  rma::Runtime rt(2, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, cfg_with_block(512));
    if (self.id() == 0) {
      {
        Transaction w(db, self, TxnMode::kWrite);
        (void)w.create_vertex(0);
        (void)w.create_vertex(1);
        (void)w.commit();
      }
      Transaction w(db, self, TxnMode::kWrite);
      auto a = w.find_vertex(0);
      auto b = w.find_vertex(1);
      ASSERT_TRUE(a.ok() && b.ok());
      self.reset_counters();
      ASSERT_TRUE(w.create_edge(*a, *b, layout::Dir::kOut).ok());
      EXPECT_EQ(self.counters().atomics, 2u) << "one upgrade CAS per endpoint";
      EXPECT_EQ(self.counters().flushes, 1u) << "both CASes in one round";
      EXPECT_EQ(self.counters().gets, 0u);
      EXPECT_EQ(w.commit(), Status::kOk);
    }
    self.barrier();
  });
}

// --- one round per holder read (block-table memo) ---------------------------

/// 256-byte blocks and a shared cache too small to keep any multi-block
/// holder: every read of one goes to the wire, with the block-table memo
/// (bounded by the same derived count) still in play.
DatabaseConfig memo_cfg() {
  DatabaseConfig c = cfg_with_block(256);
  c.shared_cache = true;
  c.shared_cache_bytes = 256;
  return c;
}

/// kRead find of `app_id` in a fresh transaction: its op counters and
/// simulated time.
std::pair<rma::OpCounters, double> find_cost(rma::Rank& self,
                                             const std::shared_ptr<Database>& db,
                                             std::uint64_t app_id) {
  Transaction r(db, self, TxnMode::kRead);
  self.reset_counters();
  const double t0 = self.sim_time_ns();
  EXPECT_TRUE(r.find_vertex(app_id).ok());
  const double dt = self.sim_time_ns() - t0;
  const rma::OpCounters k = self.counters();
  EXPECT_EQ(r.commit(), Status::kOk);
  return {k, dt};
}

TEST(PerfModel, RemoteTwoBlockReadLockCarriesMemoizedTail) {
  rma::Runtime rt(2, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, memo_cfg());
    // ASSERTs return from the inner lambda only: rank 1 still meets rank 0
    // at the barrier.
    if (self.id() == 0) [&] {
      {
        Transaction w(db, self, TxnMode::kWrite);
        auto hub = *w.create_vertex(1);  // owner rank 1: remote from rank 0
        for (std::uint64_t i = 2; i <= 12; i += 2)
          (void)w.create_edge(hub, *w.create_vertex(i), layout::Dir::kOut);
        ASSERT_EQ(w.commit(), Status::kOk);  // the writeback memoizes the table
      }
      (void)find_cost(self, db, 1);  // teaches the translation memo
      Transaction probe(db, self, TxnMode::kRead);
      const DPtr vid = *probe.translate_vertex_id(1);
      (void)probe.commit();
      std::uint32_t nb = 0;
      db->blocks().read(self, vid, 12, &nb, 4);
      ASSERT_EQ(nb, 2u) << "test requires a two-block holder";
      ASSERT_EQ(db->shared_cache(self)->find_block_table(vid).size(), 1u);

      const auto [warm, warm_ns] = find_cost(self, db, 1);
      EXPECT_EQ(warm.atomics, 1u) << "one FAA, no DHT walk";
      EXPECT_EQ(warm.gets, 2u);
      EXPECT_EQ(warm.nb_gets, 2u) << "primary and tail both ride the lock round";
      EXPECT_EQ(warm.flushes, 1u);
      EXPECT_EQ(warm.tail_spec_used, 1u);
      EXPECT_EQ(warm.tail_spec_wasted, 0u);
      EXPECT_EQ(warm.cache_misses, 2u) << "a used speculative block crossed the wire";
      EXPECT_EQ(warm.cache_hits, 0u);

      db->shared_cache(self)->remember_block_table(vid, {});  // cold memo
      const auto [cold, cold_ns] = find_cost(self, db, 1);
      EXPECT_EQ(cold.atomics, 1u);
      EXPECT_EQ(cold.gets, 2u);
      EXPECT_EQ(cold.nb_gets, 1u) << "the tail is a second, blocking round";
      EXPECT_EQ(cold.flushes, 1u);
      EXPECT_EQ(cold.tail_spec_used, 0u);
      EXPECT_EQ(cold.tail_spec_wasted, 0u);
      EXPECT_LT(warm_ns, cold_ns);
      EXPECT_EQ(warm.bytes_get, cold.bytes_get);
    }();
    self.barrier();
  });
}

TEST(PerfModel, SpilledContinuationBlockIsNeverSpeculated) {
  // A tail on another rank than its primary could be read before the FAA
  // lands: it keeps the second round, and the memo never names it.
  rma::Runtime rt(2, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, memo_cfg());
    // ASSERTs return from the inner lambda only: rank 1 still meets rank 0
    // at the barrier.
    if (self.id() == 0) [&] {
      {
        Transaction w(db, self, TxnMode::kWrite);
        (void)w.create_vertex(1);  // owner rank 1
        for (std::uint64_t i = 2; i <= 12; i += 2) (void)w.create_vertex(i);  // rank 0
        ASSERT_EQ(w.commit(), Status::kOk);
      }
      // Fill rank 1's pool, so the hub's growth spills to rank 0.
      std::vector<DPtr> hog;
      for (DPtr b = db->blocks().acquire(self, 1); !b.is_null();
           b = db->blocks().acquire(self, 1))
        hog.push_back(b);
      {
        Transaction w(db, self, TxnMode::kWrite);
        auto hub = *w.find_vertex(1);
        for (std::uint64_t i = 2; i <= 12; i += 2)
          ASSERT_TRUE(w.create_edge(hub, *w.find_vertex(i), layout::Dir::kOut).ok());
        ASSERT_EQ(w.commit(), Status::kOk);
      }
      Transaction probe(db, self, TxnMode::kRead);
      const DPtr vid = *probe.translate_vertex_id(1);
      (void)probe.commit();
      std::vector<std::byte> primary(db->blocks().block_size());
      db->blocks().read_block(self, vid, primary.data());
      const layout::VertexView view(primary);
      ASSERT_EQ(view.num_blocks(), 2u);
      ASSERT_EQ(view.block_addr(1).rank(), 0u) << "test requires a spilled tail";
      EXPECT_TRUE(db->shared_cache(self)->find_block_table(vid).empty());

      (void)find_cost(self, db, 1);  // materialized: the memo stays empty
      EXPECT_TRUE(db->shared_cache(self)->find_block_table(vid).empty());
      const auto [k, ns] = find_cost(self, db, 1);
      EXPECT_EQ(k.gets, 2u);
      EXPECT_EQ(k.nb_gets, 1u) << "only the primary rides the lock round";
      EXPECT_EQ(k.tail_spec_used + k.tail_spec_wasted, 0u);
    }();
    self.barrier();
  });
}

TEST(PerfModel, SerialReadPathOpCountsArePinned) {
  // batched_reads = false is the paper-fidelity path and the denominator of
  // the batched speedups: a fixed read-then-write stream must keep exactly
  // these op counts.
  rma::Runtime rt(2, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    DatabaseConfig c = cfg_with_block(256);
    c.batched_reads = false;
    auto db = Database::create(self, c);
    if (self.id() == 0) {
      {
        Transaction w(db, self, TxnMode::kWrite);
        auto hub = *w.create_vertex(0);
        for (std::uint64_t i = 1; i < 24; ++i)
          (void)w.create_edge(hub, *w.create_vertex(i), layout::Dir::kOut);
        ASSERT_EQ(w.commit(), Status::kOk);
      }
      self.reset_counters();
      {
        Transaction r(db, self, TxnMode::kRead);
        for (std::uint64_t i = 0; i < 8; ++i) ASSERT_TRUE(r.find_vertex(i).ok());
        ASSERT_TRUE(r.edges_of(*r.find_vertex(0), DirFilter::kAll).ok());
        ASSERT_EQ(r.commit(), Status::kOk);
      }
      {
        Transaction w(db, self, TxnMode::kWrite);
        auto a = w.find_vertex(3);
        auto b = w.find_vertex(4);
        ASSERT_TRUE(a.ok() && b.ok());
        ASSERT_TRUE(w.create_edge(*a, *b, layout::Dir::kOut).ok());
        ASSERT_TRUE(w.create_edge(*a, *w.find_vertex(0), layout::Dir::kIn).ok());
        ASSERT_EQ(w.commit(), Status::kOk);
      }
      // Recorded before read locks carried their primary GETs; the serial
      // path must not notice that change.
      const auto& k = self.counters();
      EXPECT_EQ(k.gets, 17u);
      EXPECT_EQ(k.bytes_get, 4352u);
      EXPECT_EQ(k.puts, 4u);
      EXPECT_EQ(k.bytes_put, 1024u);
      EXPECT_EQ(k.atomics, 85u);
      EXPECT_EQ(k.flushes, 3u);
      EXPECT_EQ(k.remote_ops, 23u);
    }
    self.barrier();
  });
}

TEST(PerfModel, RemoteOpsDominateAtHighRankCounts) {
  // With round-robin sharding, a fraction ~ (P-1)/P of holder fetches is
  // remote: the cost model must reflect that (used by Fig. 4 analyses).
  for (int P : {2, 4}) {
    rma::Runtime rt(P, rma::NetParams::xc40());
    rt.run([&](rma::Rank& self) {
      auto db = Database::create(self, cfg_with_block(512));
      {
        Transaction w(db, self, TxnMode::kWrite, TxnScope::kCollective);
        for (std::uint64_t i = static_cast<std::uint64_t>(self.id()); i < 64;
             i += static_cast<std::uint64_t>(P))
          (void)w.create_vertex(i);
        (void)w.commit();
      }
      if (self.id() == 0) {
        Transaction r(db, self, TxnMode::kReadShared);
        self.reset_counters();
        for (std::uint64_t i = 0; i < 64; ++i) (void)r.find_vertex(i);
        const double remote_frac =
            static_cast<double>(self.counters().remote_ops) /
            static_cast<double>(self.counters().total_ops());
        EXPECT_NEAR(remote_frac, static_cast<double>(P - 1) / P, 0.25);
      }
      self.barrier();
    });
  }
}

}  // namespace
}  // namespace gdi
