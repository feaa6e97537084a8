// Tests for the shared version-validated block cache (src/cache/) and the
// batched heavy-edge fetch path (Transaction::fetch_batch over edge holders).
//
// Invariants pinned here:
//  * zero stale reads: a concurrent writer's commit bumps the lock-word
//    version, so a later reader either misses the cache or sees bytes proven
//    current -- hammered by a writer/reader pair under ASan/UBSan in CI;
//  * lock-free (kReadShared) fills follow the seqlock bracket: a fill racing
//    a writer is discarded, never stamped with a current version;
//  * hit/miss/validation/invalidation counters behave as documented;
//  * the translation memo never changes find() results: stale memos fall
//    back to the DHT (deleted and delete+recreate cases);
//  * batched constraint-filtered edges_of returns byte-for-byte what the
//    serial (batched_reads=false) path returns;
//  * BlockStore::try_upgrade_many keeps sole-reader semantics, and the
//    BatchScope read-then-write re-touch path commits correctly through it.
//
// NOTE: inside Runtime::run all assertions must be EXPECT_* (non-fatal);
// a fatal ASSERT would return from one rank's lambda and deadlock the team.
#include <gtest/gtest.h>

#include <atomic>

#include "cache/shared_cache.hpp"
#include "gdi/gdi.hpp"

namespace gdi {
namespace {

DatabaseConfig make_cfg(bool shared, std::size_t bytes = 4096 * 512) {
  DatabaseConfig c;
  c.block.block_size = 512;
  c.block.blocks_per_rank = 8192;
  c.dht.entries_per_rank = 4096;
  c.dht.buckets_per_rank = 512;
  c.shared_cache = shared;
  c.shared_cache_bytes = bytes;
  return c;
}

// ---------------------------------------------------------------------------
// Coherence: version bump => miss, never a stale serve
// ---------------------------------------------------------------------------

TEST(SharedCache, ConcurrentWriterNeverYieldsStaleOrTornReads) {
  // Rank 0 commits monotonically increasing values to two properties of one
  // vertex (same holder, atomic commit); rank 1 re-reads it through kRead
  // transactions with the shared cache on. Any stale cache serve would show
  // a regressing value; any torn serve would show the two properties
  // disagreeing. Both must be impossible: the writer's unlock bumps the
  // version the reader's lock CAS observes.
  rma::Runtime rt(2);
  constexpr std::int64_t kRounds = 200;
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, make_cfg(true));
    PropertyType pd{.name = "a", .dtype = Datatype::kInt64};
    PropertyType pd2{.name = "b", .dtype = Datatype::kInt64};
    const std::uint32_t pa = *db->create_ptype(self, pd);
    const std::uint32_t pb = *db->create_ptype(self, pd2);
    if (self.id() == 0) {
      Transaction w(db, self, TxnMode::kWrite);
      auto v = w.create_vertex(7);
      EXPECT_TRUE(v.ok());
      EXPECT_EQ(w.update_property(*v, pa, PropValue{std::int64_t{0}}), Status::kOk);
      EXPECT_EQ(w.update_property(*v, pb, PropValue{std::int64_t{0}}), Status::kOk);
      EXPECT_EQ(w.commit(), Status::kOk);
    }
    self.barrier();

    if (self.id() == 0) {
      for (std::int64_t i = 1; i <= kRounds;) {
        Transaction w(db, self, TxnMode::kWrite);
        auto vh = w.find_vertex(7);
        if (!vh.ok()) {
          w.abort();
          continue;  // reader holds the lock; retry
        }
        if (!ok(w.update_property(*vh, pa, PropValue{i})) ||
            !ok(w.update_property(*vh, pb, PropValue{i})) ||
            !ok(w.commit())) {
          continue;
        }
        ++i;
      }
    } else {
      std::int64_t last_seen = 0;
      bool violation = false;
      while (last_seen < kRounds && !violation) {
        Transaction r(db, self, TxnMode::kRead);
        auto vh = r.find_vertex(7);
        if (!vh.ok()) {
          r.abort();
          continue;  // writer holds the lock; retry
        }
        auto a = r.get_properties(*vh, pa);
        auto b = r.get_properties(*vh, pb);
        if (a.ok() && b.ok() && !a->empty() && !b->empty()) {
          const auto va = std::get<std::int64_t>((*a)[0]);
          const auto vb = std::get<std::int64_t>((*b)[0]);
          if (va != vb) violation = true;         // torn: cache mixed versions
          else if (va < last_seen) violation = true;  // stale: value regressed
          else last_seen = va;
        }
        (void)r.commit();
      }
      EXPECT_FALSE(violation) << "shared cache served stale or torn holder bytes";
      EXPECT_EQ(last_seen, kRounds);
    }
    self.barrier();
  });
}

TEST(SharedCache, ReadSharedFillsSurviveWriterButNeverGoStale) {
  // kReadShared scans fill the cache lock-free under the seqlock bracket
  // while rank 0 keeps writing. Afterwards (writer quiesced) a kRead pass
  // must observe the final values -- a torn or stale fill that survived with
  // a current version stamp would surface here.
  rma::Runtime rt(2);
  constexpr std::int64_t kRounds = 100;
  constexpr std::uint64_t kN = 16;
  std::atomic<bool> done{false};  // outside run(): shared across rank threads
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, make_cfg(true));
    PropertyType pd{.name = "a", .dtype = Datatype::kInt64};
    const std::uint32_t pt = *db->create_ptype(self, pd);
    {
      Transaction w(db, self, TxnMode::kWrite, TxnScope::kCollective);
      if (self.id() == 0) {
        for (std::uint64_t i = 0; i < kN; ++i) {
          auto v = w.create_vertex(i);
          EXPECT_TRUE(v.ok());
          EXPECT_EQ(w.update_property(*v, pt, PropValue{std::int64_t{0}}), Status::kOk);
        }
      }
      EXPECT_EQ(w.commit(), Status::kOk);
    }
    self.barrier();

    if (self.id() == 0) {
      for (std::int64_t i = 1; i <= kRounds;) {
        Transaction w(db, self, TxnMode::kWrite);
        auto vh = w.find_vertex(static_cast<std::uint64_t>(i) % kN);
        if (vh.ok() && ok(w.update_property(*vh, pt, PropValue{i})) &&
            ok(w.commit())) {
          ++i;
        }
      }
      done.store(true);
    } else {
      // Lock-free scans while the writer runs: results may be transiently
      // inconsistent (kReadShared's documented contract) -- the test only
      // requires that no *fill* outlives its validity.
      while (!done.load()) {
        Transaction r(db, self, TxnMode::kReadShared);
        std::vector<DPtr> vids;
        for (std::uint64_t i = 0; i < kN; ++i) {
          auto vid = r.translate_vertex_id(i);
          if (vid.ok()) vids.push_back(*vid);
        }
        r.prefetch_vertices(vids);
        for (DPtr v : vids) (void)r.associate_vertex(v);
        (void)r.commit();
      }
    }
    self.barrier();
    // Writer quiesced: every kRead access must see the final committed state.
    {
      Transaction r(db, self, TxnMode::kRead);
      for (std::int64_t i = kRounds - static_cast<std::int64_t>(kN) + 1; i <= kRounds;
           ++i) {
        if (i <= 0) continue;
        auto vh = r.find_vertex(static_cast<std::uint64_t>(i) % kN);
        EXPECT_TRUE(vh.ok());
        if (!vh.ok()) continue;
        auto p = r.get_properties(*vh, pt);
        EXPECT_TRUE(p.ok());
        if (p.ok() && !p->empty())
          EXPECT_EQ(std::get<std::int64_t>((*p)[0]), i) << "stale fill survived";
      }
      EXPECT_EQ(r.commit(), Status::kOk);
    }
    self.barrier();
  });
}

// ---------------------------------------------------------------------------
// Counters and validation mechanics
// ---------------------------------------------------------------------------

TEST(SharedCache, HitSkipsBlockFetchAndWriteInvalidates) {
  rma::Runtime rt(1, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, make_cfg(true));
    PropertyType pd{.name = "a", .dtype = Datatype::kInt64};
    const std::uint32_t pt = *db->create_ptype(self, pd);
    DPtr vid;
    {
      Transaction w(db, self, TxnMode::kWrite);
      auto v = w.create_vertex(1);
      EXPECT_TRUE(v.ok());
      vid = v->vid;
      EXPECT_EQ(w.commit(), Status::kOk);
    }
    {
      // First kRead fetch: a shared-cache miss that fills the entry.
      Transaction r(db, self, TxnMode::kRead);
      self.reset_counters();
      EXPECT_TRUE(r.associate_vertex(vid).ok());
      EXPECT_EQ(self.counters().scache_misses, 1u);
      EXPECT_EQ(self.counters().scache_hits, 0u);
      EXPECT_EQ(self.counters().gets, 1u);
      EXPECT_EQ(r.commit(), Status::kOk);
    }
    {
      // Second transaction: the lock CAS validates the entry for free and
      // the holder's block fetch disappears.
      Transaction r(db, self, TxnMode::kRead);
      self.reset_counters();
      EXPECT_TRUE(r.associate_vertex(vid).ok());
      EXPECT_EQ(self.counters().scache_hits, 1u);
      EXPECT_GE(self.counters().scache_validations, 1u);
      EXPECT_EQ(self.counters().gets, 0u) << "hit must skip the block fetch";
      EXPECT_EQ(r.commit(), Status::kOk);
    }
    {
      // A write to the vertex invalidates; the version bump makes any copy
      // unservable even before the local erase.
      Transaction w(db, self, TxnMode::kWrite);
      auto vh = w.find_vertex(1);
      EXPECT_TRUE(vh.ok());
      self.reset_counters();
      EXPECT_EQ(w.update_property(*vh, pt, PropValue{std::int64_t{9}}), Status::kOk);
      EXPECT_EQ(w.commit(), Status::kOk);
    }
    {
      Transaction r(db, self, TxnMode::kRead);
      self.reset_counters();
      auto vh = r.associate_vertex(vid);
      EXPECT_TRUE(vh.ok());
      EXPECT_EQ(self.counters().scache_hits, 0u) << "version bumped: must re-fetch";
      EXPECT_EQ(self.counters().scache_misses, 1u);
      auto p = r.get_properties(*vh, pt);
      EXPECT_TRUE(p.ok());
      EXPECT_EQ(std::get<std::int64_t>((*p)[0]), 9);
      EXPECT_EQ(r.commit(), Status::kOk);
    }
  });
}

TEST(SharedCache, OffMeansNoCounterTrafficAndIdenticalResults) {
  rma::Runtime rt(1, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, make_cfg(false));
    {
      Transaction w(db, self, TxnMode::kWrite);
      EXPECT_TRUE(w.create_vertex(1).ok());
      EXPECT_EQ(w.commit(), Status::kOk);
    }
    self.reset_counters();
    for (int i = 0; i < 3; ++i) {
      Transaction r(db, self, TxnMode::kRead);
      EXPECT_TRUE(r.find_vertex(1).ok());
      EXPECT_EQ(r.commit(), Status::kOk);
    }
    EXPECT_EQ(self.counters().scache_hits, 0u);
    EXPECT_EQ(self.counters().scache_misses, 0u);
    EXPECT_EQ(self.counters().scache_validations, 0u);
    EXPECT_EQ(self.counters().scache_invalidations, 0u);
  });
}

// ---------------------------------------------------------------------------
// Translation memo: stale entries fall back to the DHT
// ---------------------------------------------------------------------------

TEST(SharedCache, TranslationMemoSurvivesDeleteAndRecreate) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, make_cfg(true));
    {
      Transaction w(db, self, TxnMode::kWrite);
      EXPECT_TRUE(w.create_vertex(42).ok());
      EXPECT_EQ(w.commit(), Status::kOk);
    }
    {
      // Teach the memo.
      Transaction r(db, self, TxnMode::kRead);
      EXPECT_TRUE(r.find_vertex(42).ok());
      EXPECT_EQ(r.commit(), Status::kOk);
    }
    {
      // Delete: the memo is now stale; find must report kNotFound, not a
      // recycled block's bytes.
      Transaction w(db, self, TxnMode::kWrite);
      auto vh = w.find_vertex(42);
      EXPECT_TRUE(vh.ok());
      EXPECT_EQ(w.delete_vertex(*vh), Status::kOk);
      EXPECT_EQ(w.commit(), Status::kOk);
    }
    {
      Transaction r(db, self, TxnMode::kRead);
      EXPECT_EQ(r.find_vertex(42).status(), Status::kNotFound);
      EXPECT_EQ(r.commit(), Status::kOk);
    }
    {
      // Recreate under the same app id (the holder may or may not land on
      // the old block); find must resolve the *new* vertex via DHT fallback.
      Transaction w(db, self, TxnMode::kWrite);
      EXPECT_TRUE(w.create_vertex(42).ok());
      EXPECT_EQ(w.commit(), Status::kOk);
    }
    {
      Transaction r(db, self, TxnMode::kRead);
      auto vh = r.find_vertex(42);
      EXPECT_TRUE(vh.ok());
      auto id = r.app_id_of(*vh);
      EXPECT_TRUE(id.ok());
      EXPECT_EQ(*id, 42u);
      EXPECT_EQ(r.commit(), Status::kOk);
    }
  });
}

// ---------------------------------------------------------------------------
// Batched heavy-edge fetch: parity + cost
// ---------------------------------------------------------------------------

/// Collective: star graph with heavy labeled edges around vertex 0.
std::pair<std::uint32_t, std::uint32_t> build_heavy_star(
    const std::shared_ptr<Database>& db, rma::Rank& self, std::uint64_t spokes) {
  PropertyType pd{.name = "w",
                  .dtype = Datatype::kInt64,
                  .etype = EntityType::kEdge};
  const std::uint32_t pt = *db->create_ptype(self, pd);
  const std::uint32_t label = 3;
  Transaction w(db, self, TxnMode::kWrite, TxnScope::kCollective);
  if (self.id() == 0) {
    auto hub = w.create_vertex(0);
    EXPECT_TRUE(hub.ok());
    for (std::uint64_t i = 1; i <= spokes; ++i) {
      auto v = w.create_vertex(i);
      EXPECT_TRUE(v.ok());
      auto e = w.create_heavy_edge(*hub, *v, layout::Dir::kOut);
      EXPECT_TRUE(e.ok());
      // Alternate labels so the constraint filters half the edges.
      EXPECT_EQ(w.add_edge_label(*e, i % 2 == 0 ? label : label + 1), Status::kOk);
      EXPECT_EQ(w.add_edge_property(*e, pt, PropValue{std::int64_t(i * 13)}),
                Status::kOk);
    }
  }
  EXPECT_EQ(w.commit(), Status::kOk);
  self.barrier();
  return {pt, label};
}

TEST(EdgeBatch, ConstraintFilteredEdgesOfMatchesSerialByteForByte) {
  rma::Runtime rt(2, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    DatabaseConfig serial_cfg = make_cfg(false);
    serial_cfg.batched_reads = false;
    auto db_serial = Database::create(self, serial_cfg);
    auto db_batched = Database::create(self, make_cfg(true));
    const auto [pt_s, label_s] = build_heavy_star(db_serial, self, 24);
    const auto [pt_b, label_b] = build_heavy_star(db_batched, self, 24);
    EXPECT_EQ(label_s, label_b);
    if (self.id() == 1) {  // remote from the hub's owner (rank 0)
      const Constraint cn = Constraint::with_label(label_s);
      auto digest = [&](const std::shared_ptr<Database>& db, std::uint32_t pt) {
        std::vector<std::uint64_t> out;
        Transaction r(db, self, TxnMode::kRead);
        auto vh = r.find_vertex(0);
        EXPECT_TRUE(vh.ok());
        auto edges = r.edges_of(*vh, DirFilter::kOut, &cn);
        EXPECT_TRUE(edges.ok());
        for (const auto& e : *edges) {
          out.push_back(e.neighbor.raw() != 0);
          out.push_back(e.heavy.raw() != 0);
          auto props = r.get_edge_properties(EdgeHandle{e.heavy}, pt);
          EXPECT_TRUE(props.ok());
          for (const auto& p : *props)
            out.push_back(static_cast<std::uint64_t>(std::get<std::int64_t>(p)));
        }
        EXPECT_EQ(r.commit(), Status::kOk);
        return out;
      };
      const auto serial = digest(db_serial, pt_s);
      const auto batched = digest(db_batched, pt_b);
      EXPECT_EQ(serial.size(), batched.size());
      EXPECT_EQ(serial, batched)
          << "batched heavy-edge path must match the serial path byte-for-byte";
      EXPECT_EQ(serial.size(), 3u * 12u) << "constraint selects half the spokes";
    }
    self.barrier();
  });
}

TEST(EdgeBatch, BatchedHeavyFetchCostsFewerRounds) {
  rma::Runtime rt(2, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    auto db_serial = Database::create(self, [&] {
      DatabaseConfig c = make_cfg(false);
      c.batched_reads = false;
      return c;
    }());
    auto db_batched = Database::create(self, make_cfg(false));
    const auto star_s = build_heavy_star(db_serial, self, 24);
    const auto star_b = build_heavy_star(db_batched, self, 24);
    (void)star_s;
    if (self.id() == 1) {
      const Constraint cn = Constraint::with_label(star_b.second);
      auto cost = [&](const std::shared_ptr<Database>& db) {
        Transaction r(db, self, TxnMode::kRead);
        auto vh = r.find_vertex(0);
        EXPECT_TRUE(vh.ok());
        self.reset_clock();
        auto edges = r.edges_of(*vh, DirFilter::kOut, &cn);
        EXPECT_TRUE(edges.ok());
        const double t = self.sim_time_ns();
        EXPECT_EQ(r.commit(), Status::kOk);
        return t;
      };
      const double serial = cost(db_serial);
      const double batched = cost(db_batched);
      EXPECT_LT(batched, serial / 2.0)
          << "24 heavy holders must overlap their lock+fetch rounds";
      EXPECT_GE(self.counters().edge_batches, 1u);
      EXPECT_GE(self.counters().edge_batch_items, 24u);
    }
    self.barrier();
  });
}

TEST(EdgeBatch, AsyncEdgeOpsAndPrefetchRoundTrip) {
  rma::Runtime rt(2, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, make_cfg(true));
    const auto [pt, label] = build_heavy_star(db, self, 8);
    (void)label;
    if (self.id() == 1) {
      Transaction r(db, self, TxnMode::kRead);
      auto vh = r.find_vertex(0);
      EXPECT_TRUE(vh.ok());
      auto edges = r.edges_of(*vh, DirFilter::kOut);
      EXPECT_TRUE(edges.ok());
      std::vector<DPtr> eids;
      for (const auto& e : *edges)
        if (!e.heavy.is_null()) eids.push_back(e.heavy);
      EXPECT_EQ(eids.size(), 8u);
      r.prefetch_edges(eids);
      BatchScope scope = r.batch();
      std::vector<Future<EdgeHandle>> handles;
      std::vector<Future<std::vector<PropValue>>> props;
      for (DPtr e : eids) {
        handles.push_back(scope.associate_edge(e));
        props.push_back(scope.get_edge_properties(e, pt));
      }
      auto bad = scope.associate_edge(DPtr{});
      EXPECT_EQ(scope.execute(), Status::kOk);
      for (auto& h : handles) EXPECT_TRUE(h.ok());
      for (auto& p : props) {
        EXPECT_TRUE(p.ok());
        EXPECT_EQ(p->size(), 1u);
      }
      EXPECT_EQ(bad.status(), Status::kInvalidArgument);
      EXPECT_EQ(r.commit(), Status::kOk);
    }
    self.barrier();
  });
}

// ---------------------------------------------------------------------------
// Batched write-lock upgrades
// ---------------------------------------------------------------------------

TEST(UpgradeMany, SoleReaderSemanticsPerWord) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    block::BlockStore bs(1, block::BlockStoreConfig{256, 64});
    std::vector<DPtr> blks;
    for (int i = 0; i < 4; ++i) blks.push_back(bs.acquire(self, 0));
    // Cycle every word once so versions are nonzero (the learned-expected
    // CAS path).
    for (DPtr b : blks) {
      EXPECT_TRUE(bs.try_write_lock(self, b));
      bs.write_unlock(self, b);
    }
    for (DPtr b : blks) EXPECT_TRUE(bs.try_read_lock(self, b));
    (void)bs.try_read_lock(self, blks[2]);  // second reader blocks upgrade
    auto got = bs.try_upgrade_many(self, blks, 4);
    EXPECT_EQ(got[0], 1);
    EXPECT_EQ(got[1], 1);
    EXPECT_EQ(got[2], 0) << "two readers: no upgrade";
    EXPECT_EQ(got[3], 1);
    for (std::size_t i = 0; i < blks.size(); ++i) {
      const auto word = bs.lock_word(self, blks[i]);
      if (got[i]) {
        EXPECT_TRUE(block::BlockStore::write_locked(word));
        bs.write_unlock(self, blks[i]);
      }
    }
    bs.read_unlock(self, blks[2]);
    bs.read_unlock(self, blks[2]);
  });
}

TEST(UpgradeMany, BatchScopeReadThenWriteReTouchCommits) {
  // The satellite's target shape: a batch reads a set of vertices, then a
  // later batch writes them -- the re-touch upgrades all read locks in
  // overlapped CAS rounds and the commit publishes every write.
  rma::Runtime rt(2, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, make_cfg(true));
    PropertyType pd{.name = "a", .dtype = Datatype::kInt64};
    const std::uint32_t pt = *db->create_ptype(self, pd);
    constexpr std::uint64_t kN = 12;
    {
      Transaction w(db, self, TxnMode::kWrite, TxnScope::kCollective);
      if (self.id() == 0)
        for (std::uint64_t i = 0; i < kN; ++i) EXPECT_TRUE(w.create_vertex(i).ok());
      EXPECT_EQ(w.commit(), Status::kOk);
    }
    self.barrier();
    if (self.id() == 0) {
      Transaction txn(db, self, TxnMode::kWrite);
      BatchScope reads = txn.batch();
      std::vector<Future<VertexHandle>> hs;
      for (std::uint64_t i = 0; i < kN; ++i) hs.push_back(reads.find(i));
      EXPECT_EQ(reads.execute(), Status::kOk);
      // Re-touch with write intent: all kN read locks upgrade in one batch.
      BatchScope writes = txn.batch();
      std::vector<Future<std::monostate>> ws;
      for (std::uint64_t i = 0; i < kN; ++i)
        ws.push_back(writes.set_property(*hs[i], pt,
                                         PropValue{static_cast<std::int64_t>(i + 5)}));
      EXPECT_EQ(writes.execute(), Status::kOk);
      for (auto& wf : ws) EXPECT_TRUE(wf.ok());
      EXPECT_EQ(txn.commit(), Status::kOk);
    }
    self.barrier();
    {
      Transaction r(db, self, TxnMode::kRead);
      for (std::uint64_t i = 0; i < kN; ++i) {
        auto vh = r.find_vertex(i);
        EXPECT_TRUE(vh.ok());
        auto p = r.get_properties(*vh, pt);
        EXPECT_TRUE(p.ok());
        EXPECT_EQ(std::get<std::int64_t>((*p)[0]), static_cast<std::int64_t>(i + 5));
      }
      EXPECT_EQ(r.commit(), Status::kOk);
    }
    self.barrier();
  });
}

// ---------------------------------------------------------------------------
// 2Q admission (DatabaseConfig::scache_policy = k2Q): scan resistance
// ---------------------------------------------------------------------------

namespace q2 {

cache::SharedCacheConfig q2_cfg(cache::ScachePolicy policy) {
  cache::SharedCacheConfig cfg;
  cfg.max_bytes = 64 * 100;  // 100 uniform 64-byte holders
  cfg.policy = policy;
  cfg.probation_fraction = 0.25;
  return cfg;
}

constexpr std::size_t kHolder = 64;
const std::vector<std::byte> kBuf(kHolder);

DPtr hot_key(std::size_t i) { return DPtr(0, 0x1000 + kHolder * i); }
DPtr scan_key(std::size_t k) { return DPtr(1, kHolder * (k + 1)); }

}  // namespace q2

TEST(ScachePolicy2Q, TwiceTouchedHotSetSurvivesScanFlood) {
  using namespace q2;
  cache::SharedBlockCache c(q2_cfg(cache::ScachePolicy::k2Q));
  // Hot set: filled once (probation) then validated-hit once (promoted).
  constexpr std::size_t kHot = 8;
  for (std::size_t i = 0; i < kHot; ++i) c.insert(hot_key(i), kBuf, 1, false);
  for (std::size_t i = 0; i < kHot; ++i) {
    EXPECT_TRUE(c.find(hot_key(i))->probation);
    c.note_hit(hot_key(i));
    EXPECT_FALSE(c.find(hot_key(i))->probation);
  }
  // Scan: 5x the whole byte budget, every holder referenced exactly once.
  for (std::size_t k = 0; k < 500; ++k) c.insert(scan_key(k), kBuf, 1, false);
  // One-touch traffic churned only the probationary share; the resident hot
  // set is untouched and the budget held.
  for (std::size_t i = 0; i < kHot; ++i)
    EXPECT_NE(c.find(hot_key(i)), nullptr) << "hot holder " << i << " evicted";
  EXPECT_LE(c.bytes(), c.max_bytes());
  // Equilibrium under the flood: every byte that is not the promoted hot set
  // is probationary scan traffic -- the residents were never drafted to pay.
  EXPECT_EQ(c.probation_bytes(), c.bytes() - kHot * kHolder);
}

TEST(ScachePolicy2Q, FifoAdmissionIsScanVulnerableByConstruction) {
  using namespace q2;
  // The exact same reference string under kFifo: the scan washes the hot set
  // out -- this is the anti-baseline that motivates k2Q (and pins that the
  // default policy still behaves exactly as before).
  cache::SharedBlockCache c(q2_cfg(cache::ScachePolicy::kFifo));
  constexpr std::size_t kHot = 8;
  for (std::size_t i = 0; i < kHot; ++i) c.insert(hot_key(i), kBuf, 1, false);
  for (std::size_t i = 0; i < kHot; ++i) {
    EXPECT_FALSE(c.find(hot_key(i))->probation);  // kFifo: nothing probates
    c.note_hit(hot_key(i));                       // and hits are not feedback
  }
  for (std::size_t k = 0; k < 500; ++k) c.insert(scan_key(k), kBuf, 1, false);
  for (std::size_t i = 0; i < kHot; ++i)
    EXPECT_EQ(c.find(hot_key(i)), nullptr) << "FIFO should have evicted " << i;
  EXPECT_LE(c.bytes(), c.max_bytes());
  EXPECT_EQ(c.probation_bytes(), 0u);
}

TEST(ScachePolicy2Q, RefreshOfLiveEntryCountsAsSecondTouch) {
  using namespace q2;
  cache::SharedBlockCache c(q2_cfg(cache::ScachePolicy::k2Q));
  c.insert(hot_key(0), kBuf, 1, false);
  EXPECT_TRUE(c.find(hot_key(0))->probation);
  // A re-fill of a live key (e.g. revalidation after a version bump) is a
  // second reference: it promotes, same as a validated hit.
  c.insert(hot_key(0), kBuf, 2, false);
  EXPECT_FALSE(c.find(hot_key(0))->probation);
  EXPECT_EQ(c.find(hot_key(0))->version, 2u);
  EXPECT_EQ(c.bytes(), kHolder);
  EXPECT_EQ(c.probation_bytes(), 0u);
}

TEST(ScachePolicy2Q, NoteHitNeverMovesOrEvictsEntries) {
  using namespace q2;
  // note_hit is called while the transaction may still hold the Entry
  // pointer it validated (scache_lookup returns it), so promotion must not
  // insert, evict, or rehash -- pointer stability is part of the contract.
  cache::SharedBlockCache c(q2_cfg(cache::ScachePolicy::k2Q));
  for (std::size_t i = 0; i < 32; ++i) c.insert(hot_key(i), kBuf, 1, false);
  const auto* before = c.find(hot_key(7));
  const std::size_t bytes_before = c.bytes();
  c.note_hit(hot_key(7));
  EXPECT_EQ(c.find(hot_key(7)), before);
  EXPECT_EQ(c.bytes(), bytes_before);
  EXPECT_EQ(c.size(), 32u);
  c.note_hit(hot_key(7));  // idempotent on a resident entry
  EXPECT_EQ(c.find(hot_key(7)), before);
  EXPECT_FALSE(c.find(hot_key(7))->probation);
}

TEST(ScachePolicy2Q, EndToEndHotReadsSurviveScanWith2Q) {
  // Through the full stack: hot vertices read twice (promoted), then a scan
  // over a large cold range, then the hot set again -- under k2Q the second
  // hot pass still hits the shared cache; the translation memo and results
  // are identical either way.
  for (const auto policy : {cache::ScachePolicy::kFifo, cache::ScachePolicy::k2Q}) {
    rma::Runtime rt(1);
    rt.run([&](rma::Rank& self) {
      DatabaseConfig cfg = make_cfg(true, /*bytes=*/512 * 24);  // ~24 holders
      cfg.scache_policy = policy;
      auto db = Database::create(self, cfg);
      PropertyType pd{.name = "v", .dtype = Datatype::kInt64};
      const std::uint32_t pt = *db->create_ptype(self, pd);
      constexpr std::uint64_t kN = 256;
      for (std::uint64_t i = 0; i < kN; ++i) {
        Transaction w(db, self, TxnMode::kWrite);
        auto vh = w.create_vertex(i);
        EXPECT_TRUE(vh.ok());
        w.update_property(*vh, pt, PropValue{static_cast<std::int64_t>(i)});
        EXPECT_EQ(w.commit(), Status::kOk);
      }
      const auto hot_pass = [&] {
        Transaction r(db, self, TxnMode::kRead);
        for (std::uint64_t i = 0; i < 8; ++i) {
          auto vh = r.find_vertex(i);
          EXPECT_TRUE(vh.ok());
          auto p = r.get_properties(*vh, pt);
          EXPECT_TRUE(p.ok());
          EXPECT_EQ(std::get<std::int64_t>((*p)[0]), static_cast<std::int64_t>(i));
        }
        EXPECT_EQ(r.commit(), Status::kOk);
      };
      hot_pass();  // fill
      hot_pass();  // second touch: k2Q promotes
      {
        Transaction scan(db, self, TxnMode::kRead);
        for (std::uint64_t i = 8; i < kN; ++i) {
          auto vh = scan.find_vertex(i);
          EXPECT_TRUE(vh.ok());
        }
        EXPECT_EQ(scan.commit(), Status::kOk);
      }
      const auto c0 = self.counters();
      hot_pass();  // after the scan: does the hot set still hit?
      const auto d = self.counters().delta(c0);
      if (policy == cache::ScachePolicy::k2Q) {
        EXPECT_GE(d.scache_hits, 8u) << "2Q hot set should survive the scan";
      }
      // (kFifo makes no survival promise -- the scan legitimately evicts.)
      EXPECT_EQ(d.scache_invalidations, 0u);
    });
  }
}

}  // namespace
}  // namespace gdi
