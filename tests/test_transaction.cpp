// Integration tests: GDI transactions -- ACID semantics, CRUD on vertices,
// edges, labels, properties; visibility, abort/rollback, conflicts,
// collective transactions, indexes, and holder growth across blocks.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <optional>
#include <set>
#include <thread>
#include <type_traits>

#include "gdi/gdi.hpp"

namespace gdi {
namespace {

using layout::Dir;

DatabaseConfig test_db(std::size_t block_size = 256, std::size_t blocks = 2048) {
  DatabaseConfig cfg;
  cfg.block.block_size = block_size;
  cfg.block.blocks_per_rank = blocks;
  cfg.dht.buckets_per_rank = 128;
  cfg.dht.entries_per_rank = 2048;
  cfg.index_capacity_per_rank = 1024;
  return cfg;
}

struct Meta {
  std::uint32_t person = 0, car = 0, knows = 0;
  std::uint32_t age = 0, name = 0, multi = 0;
};

Meta make_meta(rma::Rank& self, const std::shared_ptr<Database>& db) {
  Meta m;
  m.person = *db->create_label(self, "Person");
  m.car = *db->create_label(self, "Car");
  m.knows = *db->create_label(self, "KNOWS");
  PropertyType age{.name = "age", .dtype = Datatype::kInt64,
                   .mult = Multiplicity::kSingle};
  PropertyType name{.name = "name", .dtype = Datatype::kString};
  PropertyType multi{.name = "multi", .dtype = Datatype::kInt64,
                     .mult = Multiplicity::kMultiple};
  m.age = *db->create_ptype(self, age);
  m.name = *db->create_ptype(self, name);
  m.multi = *db->create_ptype(self, multi);
  return m;
}

/// find-or-fail returning the handle (assumes success).
VertexHandle txn_find(Transaction& txn, std::uint64_t id) {
  auto v = txn.find_vertex(id);
  EXPECT_TRUE(v.ok()) << "find_vertex(" << id << ")";
  return v.ok() ? *v : VertexHandle{};
}

TEST(Txn, CreateCommitVisible) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, test_db());
    const Meta m = make_meta(self, db);
    {
      Transaction txn(db, self, TxnMode::kWrite);
      auto v = txn.create_vertex(100);
      EXPECT_TRUE(v.ok());
      EXPECT_EQ(txn.add_label(*v, m.person), Status::kOk);
      EXPECT_EQ(txn.add_property(*v, m.age, PropValue{std::int64_t{33}}), Status::kOk);
      EXPECT_EQ(txn.commit(), Status::kOk);
    }
    {
      Transaction txn(db, self, TxnMode::kRead);
      auto v = txn.find_vertex(100);
      EXPECT_TRUE(v.ok());
      auto labels = txn.labels_of(*v);
      EXPECT_TRUE(labels.ok());
      EXPECT_EQ(*labels, (std::vector<std::uint32_t>{m.person}));
      auto age = txn.get_properties(*v, m.age);
      EXPECT_TRUE(age.ok());
      ASSERT_EQ(age->size(), 1u);
      EXPECT_EQ(std::get<std::int64_t>((*age)[0]), 33);
      EXPECT_EQ(*txn.app_id_of(*v), 100u);
      EXPECT_EQ(txn.commit(), Status::kOk);
    }
  });
}

TEST(Txn, AbortRollsBackEverything) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, test_db());
    const Meta m = make_meta(self, db);
    const std::uint64_t blocks_before = db->blocks().allocated_count(self, 0);
    {
      Transaction txn(db, self, TxnMode::kWrite);
      auto v = txn.create_vertex(1);
      EXPECT_TRUE(v.ok());
      (void)txn.add_label(*v, m.person);
      txn.abort();
    }
    EXPECT_EQ(db->blocks().allocated_count(self, 0), blocks_before)
        << "aborted create must release its blocks";
    Transaction txn(db, self, TxnMode::kRead);
    EXPECT_EQ(txn.find_vertex(1).status(), Status::kNotFound);
  });
}

TEST(Txn, DestructorAbortsUncommitted) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, test_db());
    {
      Transaction txn(db, self, TxnMode::kWrite);
      (void)txn.create_vertex(7);
      // no commit: dtor aborts
    }
    Transaction txn(db, self, TxnMode::kRead);
    EXPECT_EQ(txn.find_vertex(7).status(), Status::kNotFound);
  });
}

TEST(Txn, DuplicateAppIdRejected) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, test_db());
    {
      Transaction txn(db, self, TxnMode::kWrite);
      EXPECT_TRUE(txn.create_vertex(5).ok());
      EXPECT_EQ(txn.create_vertex(5).status(), Status::kAlreadyExists)
          << "duplicate within one transaction";
      EXPECT_EQ(txn.commit(), Status::kOk);
    }
    Transaction txn(db, self, TxnMode::kWrite);
    EXPECT_EQ(txn.create_vertex(5).status(), Status::kAlreadyExists)
        << "duplicate across transactions";
    txn.abort();
  });
}

TEST(Txn, ReadOnlyRejectsWrites) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, test_db());
    const Meta m = make_meta(self, db);
    {
      Transaction txn(db, self, TxnMode::kWrite);
      (void)txn.create_vertex(1);
      (void)txn.commit();
    }
    Transaction txn(db, self, TxnMode::kRead);
    auto v = txn.find_vertex(1);
    EXPECT_TRUE(v.ok());
    const Status s = txn.add_label(*v, m.person);
    EXPECT_EQ(s, Status::kTxnReadOnly);
    EXPECT_TRUE(is_transaction_critical(s));
    EXPECT_TRUE(txn.failed()) << "write in read txn dooms the transaction";
    txn.abort();
  });
}

TEST(Txn, UpdateAndRemoveProperties) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, test_db());
    const Meta m = make_meta(self, db);
    Transaction w(db, self, TxnMode::kWrite);
    auto v = w.create_vertex(1);
    EXPECT_EQ(w.add_property(*v, m.age, PropValue{std::int64_t{10}}), Status::kOk);
    // kSingle multiplicity: second add is a constraint violation.
    EXPECT_EQ(w.add_property(*v, m.age, PropValue{std::int64_t{11}}),
              Status::kConstraintViolated);
    EXPECT_EQ(w.update_property(*v, m.age, PropValue{std::int64_t{12}}), Status::kOk);
    // kMultiple: several entries allowed.
    EXPECT_EQ(w.add_property(*v, m.multi, PropValue{std::int64_t{1}}), Status::kOk);
    EXPECT_EQ(w.add_property(*v, m.multi, PropValue{std::int64_t{2}}), Status::kOk);
    EXPECT_EQ(w.commit(), Status::kOk);

    {
      Transaction r(db, self, TxnMode::kRead);
      auto h = txn_find(r, 1);
      auto age = r.get_properties(h, m.age);
      EXPECT_EQ(std::get<std::int64_t>((*age)[0]), 12);
      auto multi = r.get_properties(h, m.multi);
      EXPECT_EQ(multi->size(), 2u);
      auto pts = r.ptypes_of(h);
      EXPECT_EQ(pts->size(), 2u);
      EXPECT_EQ(r.commit(), Status::kOk);  // release read locks before writing
    }

    Transaction w2(db, self, TxnMode::kWrite);
    auto h2 = txn_find(w2, 1);
    EXPECT_EQ(w2.remove_properties(h2, m.multi), Status::kOk);
    EXPECT_EQ(w2.remove_properties(h2, m.multi), Status::kNotFound);
    EXPECT_EQ(w2.commit(), Status::kOk);
  });
}

TEST(Txn, StringProperties) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, test_db());
    const Meta m = make_meta(self, db);
    Transaction w(db, self, TxnMode::kWrite);
    auto v = w.create_vertex(1);
    EXPECT_EQ(w.add_property(*v, m.name, PropValue{std::string("Maciej")}), Status::kOk);
    EXPECT_EQ(w.commit(), Status::kOk);
    Transaction r(db, self, TxnMode::kRead);
    auto got = r.get_properties(txn_find(r, 1), m.name);
    EXPECT_EQ(std::get<std::string>((*got)[0]), "Maciej");
  });
}

TEST(Txn, EdgesDirectedAndUndirected) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, test_db());
    const Meta m = make_meta(self, db);
    Transaction w(db, self, TxnMode::kWrite);
    auto a = *w.create_vertex(1);
    auto b = *w.create_vertex(2);
    auto c = *w.create_vertex(3);
    EXPECT_TRUE(w.create_edge(a, b, Dir::kOut, m.knows).ok());
    EXPECT_TRUE(w.create_edge(a, c, Dir::kUndirected).ok());
    EXPECT_EQ(w.commit(), Status::kOk);

    Transaction r(db, self, TxnMode::kRead);
    auto ha = txn_find(r, 1);
    auto hb = txn_find(r, 2);
    auto hc = txn_find(r, 3);
    EXPECT_EQ(*r.count_edges(ha, DirFilter::kOut), 1u);
    EXPECT_EQ(*r.count_edges(ha, DirFilter::kUndirected), 1u);
    EXPECT_EQ(*r.count_edges(ha, DirFilter::kAll), 2u);
    EXPECT_EQ(*r.count_edges(hb, DirFilter::kIn), 1u) << "mirror record";
    EXPECT_EQ(*r.count_edges(hb, DirFilter::kOut), 0u);
    EXPECT_EQ(*r.count_edges(hc, DirFilter::kUndirected), 1u);
    EXPECT_EQ(*r.count_edges(ha, DirFilter::kOutgoing), 2u);
    EXPECT_EQ(*r.count_edges(ha, DirFilter::kIncoming), 1u);

    auto edges = r.edges_of(ha, DirFilter::kOut);
    ASSERT_EQ(edges->size(), 1u);
    EXPECT_EQ((*edges)[0].label_id, m.knows);
    EXPECT_EQ((*edges)[0].neighbor, hb.vid);
  });
}

TEST(Txn, EdgeConstraintFiltering) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, test_db());
    const Meta m = make_meta(self, db);
    Transaction w(db, self, TxnMode::kWrite);
    auto a = *w.create_vertex(1);
    auto b = *w.create_vertex(2);
    auto c = *w.create_vertex(3);
    (void)w.create_edge(a, b, Dir::kOut, m.knows);
    (void)w.create_edge(a, c, Dir::kOut, m.person /* different label */);
    EXPECT_EQ(w.commit(), Status::kOk);

    Transaction r(db, self, TxnMode::kRead);
    auto ha = txn_find(r, 1);
    const Constraint knows = Constraint::with_label(m.knows);
    auto nbrs = r.neighbors_of(ha, DirFilter::kOut, &knows);
    ASSERT_EQ(nbrs->size(), 1u);
    EXPECT_EQ((*nbrs)[0], txn_find(r, 2).vid);
  });
}

TEST(Txn, DeleteEdgeRemovesMirror) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, test_db());
    const Meta m = make_meta(self, db);
    Transaction w(db, self, TxnMode::kWrite);
    auto a = *w.create_vertex(1);
    auto b = *w.create_vertex(2);
    auto uid = w.create_edge(a, b, Dir::kOut, m.knows);
    EXPECT_TRUE(uid.ok());
    EXPECT_EQ(w.commit(), Status::kOk);

    Transaction w2(db, self, TxnMode::kWrite);
    auto ha = txn_find(w2, 1);
    auto edges = w2.edges_of(ha, DirFilter::kOut);
    ASSERT_EQ(edges->size(), 1u);
    EXPECT_EQ(w2.delete_edge(ha, (*edges)[0].uid), Status::kOk);
    EXPECT_EQ(w2.commit(), Status::kOk);

    Transaction r(db, self, TxnMode::kRead);
    EXPECT_EQ(*r.count_edges(txn_find(r, 1), DirFilter::kAll), 0u);
    EXPECT_EQ(*r.count_edges(txn_find(r, 2), DirFilter::kAll), 0u)
        << "mirror must be gone";
  });
}

TEST(Txn, DeleteVertexCleansNeighborsAndIndex) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, test_db());
    const Meta m = make_meta(self, db);
    Transaction w(db, self, TxnMode::kWrite);
    auto a = *w.create_vertex(1);
    auto b = *w.create_vertex(2);
    auto c = *w.create_vertex(3);
    (void)w.create_edge(a, b, Dir::kOut, m.knows);
    (void)w.create_edge(c, a, Dir::kOut, m.knows);
    (void)w.create_edge(a, a, Dir::kUndirected);  // self loop
    EXPECT_EQ(w.commit(), Status::kOk);

    Transaction d(db, self, TxnMode::kWrite);
    EXPECT_EQ(d.delete_vertex(txn_find(d, 1)), Status::kOk);
    EXPECT_EQ(d.commit(), Status::kOk);

    Transaction r(db, self, TxnMode::kRead);
    EXPECT_EQ(r.find_vertex(1).status(), Status::kNotFound);
    EXPECT_EQ(r.translate_vertex_id(1).status(), Status::kNotFound)
        << "DHT entry removed";
    EXPECT_EQ(*r.count_edges(txn_find(r, 2), DirFilter::kAll), 0u);
    EXPECT_EQ(*r.count_edges(txn_find(r, 3), DirFilter::kAll), 0u);
  });
}

TEST(Txn, SelfLoopSemantics) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, test_db());
    (void)make_meta(self, db);
    Transaction w(db, self, TxnMode::kWrite);
    auto a = *w.create_vertex(1);
    (void)w.create_edge(a, a, Dir::kOut);         // directed loop: out + in
    (void)w.create_edge(a, a, Dir::kUndirected);  // undirected loop: one record
    EXPECT_EQ(w.commit(), Status::kOk);
    Transaction r(db, self, TxnMode::kRead);
    auto h = txn_find(r, 1);
    EXPECT_EQ(*r.count_edges(h, DirFilter::kOut), 1u);
    EXPECT_EQ(*r.count_edges(h, DirFilter::kIn), 1u);
    EXPECT_EQ(*r.count_edges(h, DirFilter::kUndirected), 1u);
    EXPECT_EQ(*r.count_edges(h, DirFilter::kAll), 3u);
  });
}

TEST(Txn, HolderGrowsAcrossBlocks) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    // 256-byte blocks: ~100 edges require many continuation blocks.
    auto db = Database::create(self, test_db(256, 4096));
    (void)make_meta(self, db);
    Transaction w(db, self, TxnMode::kWrite);
    auto hub = *w.create_vertex(0);
    for (std::uint64_t i = 1; i <= 100; ++i) {
      auto v = *w.create_vertex(i);
      EXPECT_TRUE(w.create_edge(hub, v, Dir::kOut).ok()) << i;
    }
    EXPECT_EQ(w.commit(), Status::kOk);

    Transaction r(db, self, TxnMode::kRead);
    auto h = txn_find(r, 0);
    EXPECT_EQ(*r.count_edges(h, DirFilter::kOut), 100u);
    auto edges = r.edges_of(h, DirFilter::kOut);
    std::set<std::uint64_t> seen;
    for (const auto& e : *edges) {
      auto id = r.peek_app_id(e.neighbor);
      seen.insert(*id);
    }
    EXPECT_EQ(seen.size(), 100u);
  });
}

TEST(Txn, LargePropertySpansBlocks) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, test_db(256, 1024));
    PropertyType blob{.name = "blob", .dtype = Datatype::kBytes};
    const std::uint32_t pt = *db->create_ptype(self, blob);
    std::vector<std::byte> payload(1500);
    for (std::size_t i = 0; i < payload.size(); ++i)
      payload[i] = static_cast<std::byte>(i % 251);
    {
      Transaction w(db, self, TxnMode::kWrite);
      auto v = *w.create_vertex(1);
      EXPECT_EQ(w.add_property(v, pt, PropValue{payload}), Status::kOk);
      EXPECT_EQ(w.commit(), Status::kOk);
    }
    Transaction r(db, self, TxnMode::kRead);
    auto got = r.get_properties(txn_find(r, 1), pt);
    ASSERT_EQ(got->size(), 1u);
    EXPECT_EQ(std::get<std::vector<std::byte>>((*got)[0]), payload);
  });
}

TEST(Txn, WriteConflictAbortsSecondTxn) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, test_db());
    const Meta m = make_meta(self, db);
    {
      Transaction w(db, self, TxnMode::kWrite);
      (void)w.create_vertex(1);
      (void)w.commit();
    }
    Transaction t1(db, self, TxnMode::kWrite);
    auto v1 = txn_find(t1, 1);
    EXPECT_EQ(t1.add_label(v1, m.person), Status::kOk);  // holds write lock
    {
      Transaction t2(db, self, TxnMode::kWrite);
      auto v2 = t2.find_vertex(1);
      EXPECT_FALSE(v2.ok());
      EXPECT_EQ(v2.status(), Status::kTxnConflict);
      EXPECT_TRUE(t2.failed());
      EXPECT_EQ(t2.commit(), Status::kTxnConflict);
    }
    EXPECT_EQ(t1.commit(), Status::kOk) << "first txn unaffected";
    Transaction r(db, self, TxnMode::kRead);
    EXPECT_EQ(r.labels_of(txn_find(r, 1))->size(), 1u);
  });
}

TEST(Txn, ReadBatchDeniedByWriterLeavesNoCachedBytes) {
  // A read batch posts each uncached holder's primary GET with its lock FAA.
  // A write-locked word denies its op: kTxnConflict, the GET paid but its
  // bytes dropped (no per-transaction or shared-cache entry), the word
  // restored exactly by the withdrawal.
  rma::Runtime rt(2);
  rt.run([&](rma::Rank& self) {
    DatabaseConfig cfg = test_db();
    cfg.shared_cache = true;
    auto db = Database::create(self, cfg);
    if (self.id() == 0) {
      {
        Transaction w(db, self, TxnMode::kWrite);
        for (std::uint64_t i = 0; i < 4; ++i) (void)w.create_vertex(i);
        ASSERT_EQ(w.commit(), Status::kOk);
      }
      auto& blocks = db->blocks();
      auto* sc = db->shared_cache(self);
      ASSERT_NE(sc, nullptr);
      std::vector<DPtr> vids;
      {
        Transaction t(db, self, TxnMode::kRead);
        for (std::uint64_t i = 0; i < 4; ++i) vids.push_back(*t.translate_vertex_id(i));
        (void)t.commit();
      }
      const auto write_lock = [&](DPtr v) {
        const std::uint64_t free_word = blocks.lock_word(self, v);
        EXPECT_TRUE(blocks.try_write_lock(self, v, free_word));
        return blocks.lock_word(self, v);
      };

      // Required ops: the denied one reports kTxnConflict and dooms the txn.
      {
        const std::uint64_t held = write_lock(vids[1]);
        Transaction r(db, self, TxnMode::kRead);
        BatchScope scope = r.batch();
        auto f0 = scope.associate(vids[0]);
        auto f1 = scope.associate(vids[1]);
        self.reset_counters();
        EXPECT_EQ(scope.execute(), Status::kTxnConflict);
        EXPECT_EQ(f1.status(), Status::kTxnConflict);
        EXPECT_EQ(self.counters().gets, 2u) << "the denied op's GET is in the batch";
        EXPECT_EQ(self.counters().flushes, 1u);
        (void)self.flush_all();
        EXPECT_EQ(blocks.lock_word(self, vids[1]), held);
        EXPECT_EQ(sc->find(vids[1]), nullptr) << "no shared-cache entry from dropped bytes";
        EXPECT_NE(sc->find(vids[0]), nullptr) << "the granted op still fills";
        EXPECT_EQ(r.commit(), Status::kTxnConflict);
        blocks.write_unlock(self, vids[1]);
      }

      // Hints: the denied one leaves no per-transaction block either -- a
      // later associate in the same transaction reads the holder afresh.
      {
        const std::uint64_t held = write_lock(vids[3]);
        Transaction r(db, self, TxnMode::kRead);
        self.reset_counters();
        r.prefetch_vertices(std::vector<DPtr>{vids[2], vids[3]});
        EXPECT_EQ(self.counters().gets, 2u);
        EXPECT_EQ(self.counters().flushes, 1u);
        (void)self.flush_all();
        EXPECT_EQ(blocks.lock_word(self, vids[3]), held);
        EXPECT_EQ(sc->find(vids[3]), nullptr);
        blocks.write_unlock(self, vids[3]);
        self.reset_counters();
        ASSERT_TRUE(r.associate_vertex(vids[3]).ok());
        EXPECT_EQ(self.counters().gets, 1u);
        EXPECT_EQ(self.counters().cache_hits, 0u) << "no stale block-cache entry";
        EXPECT_EQ(self.counters().cache_misses, 1u);
        EXPECT_EQ(r.commit(), Status::kOk);
      }
    }
    self.barrier();
  });
}

TEST(Txn, ReadersShareButBlockWriters) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, test_db());
    const Meta m = make_meta(self, db);
    {
      Transaction w(db, self, TxnMode::kWrite);
      (void)w.create_vertex(1);
      (void)w.commit();
    }
    Transaction r1(db, self, TxnMode::kRead);
    Transaction r2(db, self, TxnMode::kRead);
    EXPECT_TRUE(r1.find_vertex(1).ok());
    EXPECT_TRUE(r2.find_vertex(1).ok()) << "readers share";
    Transaction w(db, self, TxnMode::kWrite);
    auto v = w.find_vertex(1);  // read lock is fine alongside other readers
    EXPECT_TRUE(v.ok());
    EXPECT_EQ(w.update_property(v.ok() ? *v : VertexHandle{}, m.age,
                                PropValue{std::int64_t{1}}),
              Status::kTxnConflict)
        << "upgrade blocked by concurrent readers";
    w.abort();
  });
}

TEST(Txn, HeavyEdgeLabelsAndProperties) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, test_db());
    const Meta m = make_meta(self, db);
    PropertyType weight{.name = "weight", .dtype = Datatype::kDouble,
                        .etype = EntityType::kEdge};
    const std::uint32_t wt = *db->create_ptype(self, weight);
    {
      Transaction w(db, self, TxnMode::kWrite);
      auto a = *w.create_vertex(1);
      auto b = *w.create_vertex(2);
      auto e = w.create_heavy_edge(a, b, Dir::kOut);
      EXPECT_TRUE(e.ok());
      EXPECT_EQ(w.add_edge_label(*e, m.knows), Status::kOk);
      EXPECT_EQ(w.add_edge_label(*e, m.person), Status::kOk);
      EXPECT_EQ(w.add_edge_property(*e, wt, PropValue{2.5}), Status::kOk);
      EXPECT_EQ(w.commit(), Status::kOk);
    }
    Transaction r(db, self, TxnMode::kRead);
    auto ha = txn_find(r, 1);
    auto edges = r.edges_of(ha, DirFilter::kOut);
    ASSERT_EQ(edges->size(), 1u);
    ASSERT_FALSE((*edges)[0].heavy.is_null());
    auto eh = r.associate_edge((*edges)[0].heavy);
    EXPECT_TRUE(eh.ok());
    auto labels = r.edge_labels_of(*eh);
    EXPECT_EQ(labels->size(), 2u);
    auto props = r.get_edge_properties(*eh, wt);
    EXPECT_DOUBLE_EQ(std::get<double>((*props)[0]), 2.5);
    auto ends = r.edge_endpoints(*eh);
    EXPECT_EQ(ends->first, ha.vid);
    // Constraint on heavy edges consults the holder labels.
    const Constraint knows = Constraint::with_label(m.knows);
    auto filtered = r.edges_of(ha, DirFilter::kOut, &knows);
    EXPECT_EQ(filtered->size(), 1u);
    const Constraint car = Constraint::with_label(m.car);
    EXPECT_EQ(r.edges_of(ha, DirFilter::kOut, &car)->size(), 0u);
  });
}

TEST(Txn, HeavyEdgeDeletedWithEdge) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, test_db());
    (void)make_meta(self, db);
    DPtr heavy;
    {
      Transaction w(db, self, TxnMode::kWrite);
      auto a = *w.create_vertex(1);
      auto b = *w.create_vertex(2);
      (void)w.create_heavy_edge(a, b, Dir::kOut);
      (void)w.commit();
    }
    {
      Transaction w(db, self, TxnMode::kWrite);
      auto ha = txn_find(w, 1);
      auto edges = w.edges_of(ha, DirFilter::kOut);
      heavy = (*edges)[0].heavy;
      EXPECT_EQ(w.delete_edge(ha, (*edges)[0].uid), Status::kOk);
      EXPECT_EQ(w.commit(), Status::kOk);
    }
    Transaction r(db, self, TxnMode::kRead);
    EXPECT_EQ(r.associate_edge(heavy).status(), Status::kNotFound);
  });
}

TEST(Txn, IndexReflectsCreatesLabelsAndDeletes) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, test_db());
    const Meta m = make_meta(self, db);
    auto idx = db->create_index(self, IndexDef{{m.person}, {}});
    {
      Transaction w(db, self, TxnMode::kWrite);
      auto a = *w.create_vertex(1);
      (void)w.add_label(a, m.person);
      auto b = *w.create_vertex(2);
      (void)w.add_label(b, m.car);
      (void)w.create_vertex(3);  // no label
      (void)w.commit();
    }
    {
      Transaction r(db, self, TxnMode::kRead);
      auto people = r.local_index_vertices(*idx);
      EXPECT_EQ(people->size(), 1u);
    }
    {  // labeling later also enters the index
      Transaction w(db, self, TxnMode::kWrite);
      (void)w.add_label(txn_find(w, 3), m.person);
      (void)w.commit();
    }
    {
      Transaction r(db, self, TxnMode::kRead);
      EXPECT_EQ(r.local_index_vertices(*idx)->size(), 2u);
    }
    {  // deletion drops the vertex from query results (stale entry filtered)
      Transaction w(db, self, TxnMode::kWrite);
      (void)w.delete_vertex(txn_find(w, 1));
      (void)w.commit();
    }
    {
      Transaction r(db, self, TxnMode::kRead);
      EXPECT_EQ(r.local_index_vertices(*idx)->size(), 1u);
    }
  });
}

TEST(Txn, IndexWithConstraintAndPtypeCondition) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, test_db());
    const Meta m = make_meta(self, db);
    auto idx = db->create_index(self, IndexDef{{m.person}, {m.age}});
    {
      Transaction w(db, self, TxnMode::kWrite);
      for (std::uint64_t i = 0; i < 10; ++i) {
        auto v = *w.create_vertex(i);
        (void)w.add_label(v, m.person);
        if (i < 8) (void)w.add_property(v, m.age, PropValue{static_cast<std::int64_t>(i * 10)});
      }
      (void)w.commit();
    }
    Transaction r(db, self, TxnMode::kRead);
    EXPECT_EQ(r.local_index_vertices(*idx)->size(), 8u)
        << "index requires the age ptype";
    Constraint adults;
    adults.add_subconstraint().where(m.age, CmpOp::kGt, Datatype::kInt64,
                                     PropValue{std::int64_t{30}});
    EXPECT_EQ(r.local_index_vertices(*idx, &adults)->size(), 4u);  // 40,50,60,70
  });
}

TEST(Txn, CollectiveCreateAndCrossRankEdges) {
  rma::Runtime rt(4);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, test_db());
    const Meta m = make_meta(self, db);
    {
      // Each rank creates its own vertices collectively.
      Transaction txn(db, self, TxnMode::kWrite, TxnScope::kCollective);
      for (std::uint64_t i = static_cast<std::uint64_t>(self.id()); i < 16; i += 4) {
        auto v = txn.create_vertex(i);
        EXPECT_TRUE(v.ok());
        (void)txn.add_label(*v, m.person);
      }
      EXPECT_EQ(txn.commit(), Status::kOk);
    }
    {
      // Rank 0 connects vertices that live on different ranks.
      if (self.id() == 0) {
        Transaction txn(db, self, TxnMode::kWrite);
        for (std::uint64_t i = 0; i + 1 < 16; ++i) {
          auto a = txn.find_vertex(i);
          auto b = txn.find_vertex(i + 1);
          EXPECT_TRUE(a.ok());
          EXPECT_TRUE(b.ok());
          if (a.ok() && b.ok()) EXPECT_TRUE(txn.create_edge(*a, *b, Dir::kOut).ok());
        }
        EXPECT_EQ(txn.commit(), Status::kOk);
      }
      self.barrier();
    }
    {
      // Every rank sees the chain.
      Transaction txn(db, self, TxnMode::kRead);
      auto v = txn.find_vertex(5);
      EXPECT_TRUE(v.ok());
      EXPECT_EQ(*txn.count_edges(*v, DirFilter::kOut), 1u);
      EXPECT_EQ(*txn.count_edges(*v, DirFilter::kIn), 1u);
    }
    self.barrier();
  });
}

TEST(Txn, CollectiveCommitAbortsAllOnOneFailure) {
  rma::Runtime rt(2);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, test_db());
    (void)make_meta(self, db);
    {
      Transaction w(db, self, TxnMode::kWrite, TxnScope::kCollective);
      if (self.id() == 0) (void)w.create_vertex(100);
      EXPECT_EQ(w.commit(), Status::kOk);
    }
    // Rank 1 write-locks vertex 100 with a local txn; the collective txn's
    // rank-0 access then conflicts; agreement must abort BOTH ranks' parts.
    if (self.id() == 1) {
      Transaction blocker(db, self, TxnMode::kWrite);
      auto v = blocker.find_vertex(100);
      EXPECT_TRUE(v.ok());
      (void)blocker.update_property(*v, 16, PropValue{std::int64_t{0}});
      self.barrier();  // (A) blocker holds the lock now
      {
        Transaction c(db, self, TxnMode::kWrite, TxnScope::kCollective);
        auto mine = c.create_vertex(201);  // would succeed locally
        EXPECT_TRUE(mine.ok());
        EXPECT_NE(c.commit(), Status::kOk) << "peer failure aborts everyone";
      }
      blocker.abort();
    } else {
      self.barrier();  // (A)
      {
        Transaction c(db, self, TxnMode::kWrite, TxnScope::kCollective);
        auto v = c.find_vertex(100);
        EXPECT_EQ(v.status(), Status::kTxnConflict);
        EXPECT_NE(c.commit(), Status::kOk);
      }
    }
    self.barrier();
    // Neither 201 nor any change to 100 is visible.
    Transaction r(db, self, TxnMode::kRead);
    EXPECT_EQ(r.find_vertex(201).status(), Status::kNotFound);
    self.barrier();
  });
}

TEST(Txn, BlocksReclaimedAfterDelete) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, test_db(256, 512));
    (void)make_meta(self, db);
    const std::uint64_t before = db->blocks().allocated_count(self, 0);
    {
      Transaction w(db, self, TxnMode::kWrite);
      auto hub = *w.create_vertex(0);
      for (std::uint64_t i = 1; i <= 40; ++i) {
        auto v = *w.create_vertex(i);
        (void)w.create_edge(hub, v, Dir::kOut);
      }
      (void)w.commit();
    }
    EXPECT_GT(db->blocks().allocated_count(self, 0), before);
    {
      Transaction w(db, self, TxnMode::kWrite);
      for (std::uint64_t i = 0; i <= 40; ++i)
        EXPECT_EQ(w.delete_vertex(txn_find(w, i)), Status::kOk) << i;
      EXPECT_EQ(w.commit(), Status::kOk);
    }
    EXPECT_EQ(db->blocks().allocated_count(self, 0), before)
        << "all holder blocks must be recycled";
  });
}

TEST(Txn, MalformedBlockBehindStaleDptrIsNotFound) {
  // A stale DPtr can land on a reused block whose valid bit is set by chance;
  // its other header words are then arbitrary. The holder fetch and the
  // batched block-cache fill must both read such a header as "no holder"
  // instead of walking it: here capacities whose 32-bit byte sum wraps to a
  // small size (0x20000000 * 8 and 0xFFFFFFFC + 7 both wrap to 0), a block
  // count whose continuation addresses are wild, and prop_used past
  // prop_capacity.
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, test_db());
    const auto m = make_meta(self, db);
    // With an index every fetched vertex holder has its labels evaluated.
    (void)db->create_index(self, IndexDef{{m.person}, {}});
    std::vector<DPtr> vids;
    {
      Transaction w(db, self, TxnMode::kWrite);
      for (std::uint64_t id = 1; id <= 4; ++id) {
        auto v = *w.create_vertex(id);
        EXPECT_EQ(w.add_label(v, m.person), Status::kOk);
        vids.push_back(v.vid);
      }
      EXPECT_EQ(w.commit(), Status::kOk);
    }
    const std::size_t B = db->blocks().block_size();
    auto plant = [&](DPtr blk, std::uint32_t num_blocks, std::uint32_t table_cap,
                     std::uint32_t prop_cap, std::uint32_t prop_used) {
      std::vector<std::byte> raw(B, std::byte{0xAB});  // wild block addresses
      auto put32 = [&](std::size_t off, std::uint32_t x) {
        std::memcpy(raw.data() + off, &x, sizeof x);
      };
      put32(8, 1);  // valid
      put32(12, num_blocks);
      put32(16, 0);  // edge slots
      put32(20, 0);  // edge capacity
      put32(24, prop_used);
      put32(28, prop_cap);
      put32(32, table_cap);
      db->blocks().write_block(self, blk, raw.data());
    };
    plant(vids[0], 1, 0x20000000u, 0xFFFFFFFCu, 0x100);
    plant(vids[1], 3, 0x20000000u, 0xFFFFFFFCu, 0x100);
    plant(vids[2], 1, 4, 16, 64);
    const std::vector<DPtr> planted(vids.begin(), vids.begin() + 3);
    for (TxnMode mode : {TxnMode::kReadShared, TxnMode::kRead}) {
      Transaction r(db, self, mode);
      r.prefetch_vertices(vids);  // the batched fill: >1 holder, cache on
      for (DPtr v : planted)
        EXPECT_EQ(r.associate_vertex(v).status(), Status::kNotFound) << v.to_string();
      auto ok = r.associate_vertex(vids[3]);
      EXPECT_TRUE(ok.ok());
      if (ok.ok()) EXPECT_EQ(r.labels_of(*ok)->size(), 1u);
      EXPECT_EQ(r.commit(), Status::kOk);
    }
  });
}

TEST(Txn, VolatileHandleInvalidAfterClose) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, test_db());
    (void)make_meta(self, db);
    {
      Transaction w(db, self, TxnMode::kWrite);
      (void)w.create_vertex(1);
      (void)w.commit();
    }
    Transaction r(db, self, TxnMode::kRead);
    auto v = txn_find(r, 1);
    EXPECT_EQ(r.commit(), Status::kOk);
    EXPECT_EQ(r.labels_of(v).status(), Status::kTxnAborted)
        << "ops after close must fail";
  });
}

// ---------------------------------------------------------------------------
// Vertex / heavy-edge holder parity
// ---------------------------------------------------------------------------
//
// Vertices and heavy edges share one holder layout and one lock/fetch/
// writeback protocol. Each kind below adapts the shared operations of its
// API so that one script drives both and checks every step of each.

struct VertexKind {
  using Handle = VertexHandle;
  static void setup(Transaction&) {}
  static Result<Handle> create(Transaction& t, std::uint64_t n) {
    return t.create_vertex(10 + n);
  }
  static Result<Handle> open(Transaction& t, DPtr id) { return t.associate_vertex(id); }
  static DPtr id(Handle h) { return h.vid; }
  static Status add_label(Transaction& t, Handle h, std::uint32_t l) {
    return t.add_label(h, l);
  }
  static Status remove_label(Transaction& t, Handle h, std::uint32_t l) {
    return t.remove_label(h, l);
  }
  static Result<std::vector<std::uint32_t>> labels(Transaction& t, Handle h) {
    return t.labels_of(h);
  }
  static Status add_property(Transaction& t, Handle h, std::uint32_t p, const PropValue& x) {
    return t.add_property(h, p, x);
  }
  static Status update_property(Transaction& t, Handle h, std::uint32_t p,
                                const PropValue& x) {
    return t.update_property(h, p, x);
  }
  static Result<std::vector<PropValue>> properties(Transaction& t, Handle h, std::uint32_t p) {
    return t.get_properties(h, p);
  }
  static Status erase(Transaction& t, Handle h) { return t.delete_vertex(h); }
};

struct EdgeKind {
  using Handle = EdgeHandle;
  /// Both endpoints exist before the holder under test, so their blocks do
  /// not count towards its blocks in use.
  static void setup(Transaction& t) {
    (void)t.create_vertex(1);
    (void)t.create_vertex(2);
  }
  static Result<Handle> create(Transaction& t, std::uint64_t) {
    auto a = t.find_vertex(1);
    auto b = t.find_vertex(2);
    if (!a.ok() || !b.ok()) return Status::kNotFound;
    return t.create_heavy_edge(*a, *b, Dir::kOut);
  }
  static Result<Handle> open(Transaction& t, DPtr id) { return t.associate_edge(id); }
  static DPtr id(Handle h) { return h.eid; }
  static Status add_label(Transaction& t, Handle h, std::uint32_t l) {
    return t.add_edge_label(h, l);
  }
  static Status remove_label(Transaction& t, Handle h, std::uint32_t l) {
    return t.remove_edge_label(h, l);
  }
  static Result<std::vector<std::uint32_t>> labels(Transaction& t, Handle h) {
    return t.edge_labels_of(h);
  }
  static Status add_property(Transaction& t, Handle h, std::uint32_t p, const PropValue& x) {
    return t.add_edge_property(h, p, x);
  }
  static Status update_property(Transaction& t, Handle h, std::uint32_t p,
                                const PropValue& x) {
    return t.update_edge_property(h, p, x);
  }
  static Result<std::vector<PropValue>> properties(Transaction& t, Handle h, std::uint32_t p) {
    return t.get_edge_properties(h, p);
  }
  /// Deletes the edge through its origin (the holder goes with it).
  static Status erase(Transaction& t, Handle h) {
    auto a = t.find_vertex(1);
    if (!a.ok()) return a.status();
    auto edges = t.edges_of(*a, DirFilter::kOut);
    if (!edges.ok()) return edges.status();
    for (const auto& e : *edges)
      if (e.heavy == h.eid) return t.delete_edge(*a, e.uid);
    return Status::kNotFound;
  }
};

std::vector<std::byte> pattern_bytes(std::size_t n) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::byte>(i % 251);
  return out;
}

/// Runs the shared holder script against one holder kind; returns the
/// holder's blocks in use after each committed step.
template <class Kind>
std::vector<std::uint64_t> holder_script() {
  std::vector<std::uint64_t> trace;
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, test_db(256, 1024));
    const Meta m = make_meta(self, db);
    PropertyType blob_t{.name = "blob", .dtype = Datatype::kBytes};
    const std::uint32_t blob = *db->create_ptype(self, blob_t);
    {
      Transaction w(db, self, TxnMode::kWrite);
      Kind::setup(w);
      EXPECT_EQ(w.commit(), Status::kOk);
    }
    const std::uint64_t base = db->blocks().allocated_count(self, 0);
    auto in_use = [&] { return db->blocks().allocated_count(self, 0) - base; };

    DPtr id;
    {
      Transaction w(db, self, TxnMode::kWrite);
      auto h = Kind::create(w, 1);
      EXPECT_TRUE(h.ok());
      if (h.ok()) id = Kind::id(*h);
      EXPECT_EQ(w.commit(), Status::kOk);
    }
    trace.push_back(in_use());

    // One write transaction per step, checked by a fresh reader afterwards.
    auto write = [&](auto&& body) {
      Transaction w(db, self, TxnMode::kWrite);
      auto h = Kind::open(w, id);
      EXPECT_TRUE(h.ok());
      if (h.ok()) body(w, *h);
      EXPECT_EQ(w.commit(), Status::kOk);
      trace.push_back(in_use());
    };
    auto read = [&](auto&& check) {
      Transaction r(db, self, TxnMode::kRead);
      auto h = Kind::open(r, id);
      EXPECT_TRUE(h.ok());
      if (h.ok()) check(r, *h);
      EXPECT_EQ(r.commit(), Status::kOk);
    };
    auto ints = [](const Result<std::vector<PropValue>>& r) {
      std::vector<std::int64_t> out;
      if (r.ok())
        for (const auto& x : *r) out.push_back(std::get<std::int64_t>(x));
      return out;
    };
    auto bytes = [](const Result<std::vector<PropValue>>& r) {
      std::vector<std::vector<std::byte>> out;
      if (r.ok())
        for (const auto& x : *r) out.push_back(std::get<std::vector<std::byte>>(x));
      return out;
    };
    using Labels = std::vector<std::uint32_t>;
    using Blobs = std::vector<std::vector<std::byte>>;

    read([&](Transaction& r, auto h) {
      EXPECT_EQ(*Kind::labels(r, h), Labels{});
      EXPECT_TRUE(ints(Kind::properties(r, h, m.age)).empty());
    });

    write([&](Transaction& w, auto h) {
      EXPECT_EQ(Kind::add_label(w, h, m.person), Status::kOk);
      EXPECT_EQ(Kind::add_label(w, h, m.knows), Status::kOk);
      EXPECT_EQ(Kind::add_label(w, h, m.person), Status::kAlreadyExists);
    });
    read([&](Transaction& r, auto h) {
      EXPECT_EQ(*Kind::labels(r, h), (Labels{m.person, m.knows}));
    });

    write([&](Transaction& w, auto h) {
      EXPECT_EQ(Kind::remove_label(w, h, m.person), Status::kOk);
      EXPECT_EQ(Kind::remove_label(w, h, m.person), Status::kNotFound);
    });
    read([&](Transaction& r, auto h) { EXPECT_EQ(*Kind::labels(r, h), Labels{m.knows}); });

    write([&](Transaction& w, auto h) {
      EXPECT_EQ(Kind::add_property(w, h, m.age, PropValue{std::int64_t{7}}), Status::kOk);
      EXPECT_EQ(Kind::add_property(w, h, m.age, PropValue{std::int64_t{8}}),
                Status::kConstraintViolated);  // kSingle
      EXPECT_EQ(Kind::update_property(w, h, m.age, PropValue{std::int64_t{9}}), Status::kOk);
    });
    read([&](Transaction& r, auto h) {
      EXPECT_EQ(ints(Kind::properties(r, h, m.age)), std::vector<std::int64_t>{9});
    });

    // Grow to a multi-block holder: the large property spills into
    // continuation blocks acquired at commit.
    const auto large = pattern_bytes(300);
    write([&](Transaction& w, auto h) {
      EXPECT_EQ(Kind::add_property(w, h, blob, PropValue{large}), Status::kOk);
    });
    read([&](Transaction& r, auto h) {
      EXPECT_EQ(bytes(Kind::properties(r, h, blob)), Blobs{large});
      EXPECT_EQ(ints(Kind::properties(r, h, m.age)), std::vector<std::int64_t>{9});
      EXPECT_EQ(*Kind::labels(r, h), Labels{m.knows});
    });

    // Shrink the payload back. The replaced entry is tombstoned, not
    // reclaimed, so the holder may grow once more and never gives blocks
    // back through this API.
    const auto small = pattern_bytes(8);
    write([&](Transaction& w, auto h) {
      EXPECT_EQ(Kind::update_property(w, h, blob, PropValue{small}), Status::kOk);
      EXPECT_EQ(Kind::update_property(w, h, m.age, PropValue{std::int64_t{10}}), Status::kOk);
    });
    read([&](Transaction& r, auto h) {
      EXPECT_EQ(bytes(Kind::properties(r, h, blob)), Blobs{small});
      EXPECT_EQ(ints(Kind::properties(r, h, m.age)), std::vector<std::int64_t>{10});
    });

    // A created-then-aborted holder returns its block.
    {
      Transaction w(db, self, TxnMode::kWrite);
      auto h = Kind::create(w, 2);
      EXPECT_TRUE(h.ok());
      if (h.ok()) {
        EXPECT_EQ(Kind::add_label(w, *h, m.car), Status::kOk);
        EXPECT_EQ(Kind::add_property(w, *h, blob, PropValue{large}), Status::kOk);
      }
      w.abort();
      trace.push_back(in_use());
    }
    read([&](Transaction& r, auto h) { EXPECT_EQ(*Kind::labels(r, h), Labels{m.knows}); });

    {
      Transaction w(db, self, TxnMode::kWrite);
      auto h = Kind::open(w, id);
      EXPECT_TRUE(h.ok());
      if (h.ok()) EXPECT_EQ(Kind::erase(w, *h), Status::kOk);
      EXPECT_EQ(w.commit(), Status::kOk);
      trace.push_back(in_use());
    }
    Transaction r(db, self, TxnMode::kRead);
    EXPECT_EQ(Kind::open(r, id).status(), Status::kNotFound);
  });
  return trace;
}

TEST(Txn, VertexAndHeavyEdgeHolderParity) {
  const auto vertex = holder_script<VertexKind>();
  const auto edge = holder_script<EdgeKind>();
  // Blocks in use after: create, label, unlabel, properties, grow, shrink
  // back, abort a created holder, delete. The layouts differ (a vertex also
  // reserves edge slots), so the growth steps differ by kind.
  EXPECT_EQ(vertex, (std::vector<std::uint64_t>{1, 1, 1, 1, 3, 4, 4, 0}));
  EXPECT_EQ(edge, (std::vector<std::uint64_t>{1, 1, 1, 1, 2, 4, 4, 0}));
}

/// A refused update must not remove the value it would have replaced.
template <class Kind>
void failed_update_keeps_old_value() {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, test_db(256, 1024));
    const Meta m = make_meta(self, db);
    DPtr id;
    {
      Transaction w(db, self, TxnMode::kWrite);
      Kind::setup(w);
      auto h = Kind::create(w, 1);
      EXPECT_TRUE(h.ok());
      if (h.ok()) {
        id = Kind::id(*h);
        EXPECT_EQ(Kind::add_property(w, *h, m.name, PropValue{std::string("old")}),
                  Status::kOk);
      }
      EXPECT_EQ(w.commit(), Status::kOk);
    }
    {
      Transaction w(db, self, TxnMode::kWrite);
      auto h = Kind::open(w, id);
      EXPECT_TRUE(h.ok());
      if (h.ok()) {
        // Far beyond what one holder's block table can address.
        EXPECT_EQ(Kind::update_property(w, *h, m.name, PropValue{std::string(20000, 'x')}),
                  Status::kNoSpace);
        auto now = Kind::properties(w, *h, m.name);
        EXPECT_TRUE(now.ok() && now->size() == 1u);
      }
      EXPECT_EQ(w.commit(), Status::kOk);
    }
    Transaction r(db, self, TxnMode::kRead);
    auto h = Kind::open(r, id);
    EXPECT_TRUE(h.ok());
    if (h.ok()) {
      auto got = Kind::properties(r, *h, m.name);
      EXPECT_TRUE(got.ok());
      if (got.ok()) EXPECT_EQ(*got, std::vector<PropValue>{PropValue{std::string("old")}});
    }
  });
}

TEST(Txn, FailedUpdateKeepsOldValue) {
  failed_update_keeps_old_value<VertexKind>();
  failed_update_keeps_old_value<EdgeKind>();
}

/// update_* applies the same entity-type and size checks as add_*.
template <class Kind>
void update_enforces_add_checks() {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, test_db());
    PropertyType lim{.name = "lim4", .dtype = Datatype::kString,
                     .stype = SizeType::kLimited, .max_size = 4};
    PropertyType fixed{.name = "fixed8", .dtype = Datatype::kBytes,
                       .stype = SizeType::kFixed, .max_size = 8};
    PropertyType vonly{.name = "vp", .dtype = Datatype::kInt64,
                       .etype = EntityType::kVertex};
    PropertyType eonly{.name = "ep", .dtype = Datatype::kInt64,
                       .etype = EntityType::kEdge};
    const auto pl = *db->create_ptype(self, lim);
    const auto pf = *db->create_ptype(self, fixed);
    const auto pv = *db->create_ptype(self, vonly);
    const auto pe = *db->create_ptype(self, eonly);
    const bool is_edge = std::is_same_v<Kind, EdgeKind>;
    Transaction w(db, self, TxnMode::kWrite);
    Kind::setup(w);
    auto h = Kind::create(w, 1);
    EXPECT_TRUE(h.ok());
    if (h.ok()) {
      EXPECT_EQ(Kind::update_property(w, *h, pl, PropValue{std::string("abc")}), Status::kOk);
      EXPECT_EQ(Kind::update_property(w, *h, pl, PropValue{std::string("abcdefgh")}),
                Status::kConstraintViolated);
      EXPECT_EQ(Kind::update_property(w, *h, pf, PropValue{std::vector<std::byte>(7)}),
                Status::kConstraintViolated);
      EXPECT_EQ(Kind::update_property(w, *h, pf, PropValue{std::vector<std::byte>(8)}),
                Status::kOk);
      EXPECT_EQ(Kind::update_property(w, *h, is_edge ? pv : pe, PropValue{std::int64_t{1}}),
                Status::kInvalidArgument);
      EXPECT_EQ(Kind::update_property(w, *h, is_edge ? pe : pv, PropValue{std::int64_t{1}}),
                Status::kOk);
      // The refused updates left the accepted values in place.
      EXPECT_EQ(*Kind::properties(w, *h, pl),
                std::vector<PropValue>{PropValue{std::string("abc")}});
    }
    EXPECT_EQ(w.commit(), Status::kOk);
  });
}

TEST(Txn, UpdateEnforcesAddChecks) {
  update_enforces_add_checks<VertexKind>();
  update_enforces_add_checks<EdgeKind>();
}

// --- block-table memo: speculative continuation GETs ------------------------

/// A shared cache too small to keep any multi-block holder, so every read of
/// one goes to the wire with the block-table memo in play.
DatabaseConfig memo_db() {
  DatabaseConfig cfg = test_db(256, 2048);
  cfg.shared_cache = true;
  cfg.shared_cache_bytes = 256;
  return cfg;
}

/// Out-neighbors of `app_id` as a set, or nullopt if the read failed.
std::optional<std::set<std::uint64_t>> out_neighbors(Transaction& r, std::uint64_t app_id) {
  auto v = r.find_vertex(app_id);
  if (!v.ok()) return std::nullopt;
  auto nbrs = r.neighbors_of(*v, DirFilter::kOut);
  if (!nbrs.ok()) return std::nullopt;
  std::set<std::uint64_t> out;
  for (DPtr n : *nbrs) out.insert(n.raw());
  return out;
}

TEST(Txn, StaleBlockTableMemoServesOnlyConfirmedBlocks) {
  // Rank 0 remembers a holder's continuation blocks; rank 1 then grows the
  // holder, and later deletes it and recycles its blocks into new holders.
  // Rank 0's reads must return what the window holds: a confirmed block is
  // used, a refuted one is never looked at and never enters the
  // per-transaction block cache.
  rma::Runtime rt(2);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, memo_db());
    constexpr std::uint64_t kHub = 101;  // lives on rank 1
    constexpr std::uint64_t kFresh[] = {103, 105, 107, 109};
    ASSERT_EQ(db->owner_rank(kHub), 1u);
    std::vector<DPtr> targets;  // app ids 2, 4, ..., 40, on rank 0
    const auto add_edges = [&](std::size_t lo, std::size_t hi) {
      Transaction w(db, self, TxnMode::kWrite);
      auto hub = w.find_vertex(kHub);
      EXPECT_TRUE(hub.ok());
      for (std::size_t i = lo; i < hi && hub.ok(); ++i)
        EXPECT_TRUE(w.create_edge(*hub, VertexHandle{targets[i]}, Dir::kOut).ok());
      EXPECT_EQ(w.commit(), Status::kOk);
    };
    const auto expect_first = [&](std::size_t n) {
      std::set<std::uint64_t> want;
      for (std::size_t i = 0; i < n; ++i) want.insert(targets[i].raw());
      return want;
    };
    if (self.id() == 1) {
      Transaction w(db, self, TxnMode::kWrite);
      EXPECT_TRUE(w.create_vertex(kHub).ok());
      for (std::uint64_t a = 2; a <= 40; a += 2) EXPECT_TRUE(w.create_vertex(a).ok());
      EXPECT_EQ(w.commit(), Status::kOk);
    }
    self.barrier();
    {
      Transaction r(db, self, TxnMode::kReadShared);
      for (std::uint64_t a = 2; a <= 40; a += 2) targets.push_back(*r.translate_vertex_id(a));
      (void)r.commit();
    }
    if (self.id() == 1) add_edges(0, 6);  // two blocks
    self.barrier();
    DPtr hub_vid;
    if (self.id() == 0) {
      Transaction r(db, self, TxnMode::kRead);
      EXPECT_EQ(out_neighbors(r, kHub), expect_first(6));
      hub_vid = *r.translate_vertex_id(kHub);
      EXPECT_EQ(r.commit(), Status::kOk);
      EXPECT_FALSE(db->shared_cache(self)->find_block_table(hub_vid).empty());
    }
    self.barrier();
    if (self.id() == 1) add_edges(6, 20);  // grows: the memo misses blocks
    self.barrier();
    if (self.id() == 0) {
      Transaction r(db, self, TxnMode::kRead);
      self.reset_counters();
      EXPECT_EQ(out_neighbors(r, kHub), expect_first(20));
      EXPECT_GT(self.counters().tail_spec_used, 0u) << "the remembered tail is still the hub's";
      EXPECT_EQ(self.counters().tail_spec_wasted, 0u);
      EXPECT_EQ(r.commit(), Status::kOk);
    }
    self.barrier();
    if (self.id() == 1) {
      // Delete the hub, then recreate holders on its freed blocks: the last
      // one lands on the hub's old primary with a one-block table.
      {
        Transaction w(db, self, TxnMode::kWrite);
        EXPECT_EQ(w.delete_vertex(txn_find(w, kHub)), Status::kOk);
        EXPECT_EQ(w.commit(), Status::kOk);
      }
      Transaction w(db, self, TxnMode::kWrite);
      for (std::uint64_t a : kFresh) EXPECT_TRUE(w.create_vertex(a).ok());
      EXPECT_TRUE(w.create_edge(txn_find(w, kFresh[3]), VertexHandle{targets[0]}, Dir::kOut).ok());
      EXPECT_EQ(w.commit(), Status::kOk);
    }
    self.barrier();
    if (self.id() == 0) {
      Transaction r(db, self, TxnMode::kRead);
      self.reset_counters();
      EXPECT_EQ(out_neighbors(r, kFresh[3]), expect_first(1));
      EXPECT_EQ(*r.translate_vertex_id(kFresh[3]), hub_vid)
          << "test requires the hub's primary to be recycled";
      EXPECT_EQ(self.counters().tail_spec_used, 0u);
      EXPECT_GT(self.counters().tail_spec_wasted, 0u) << "the stale memo was refuted";
      // The refuted blocks now hold the other fresh holders: reading them in
      // the same transaction must go to the wire, not to the block cache.
      for (int i = 0; i < 3; ++i) {
        const std::uint64_t hits = self.counters().cache_hits;
        EXPECT_EQ(out_neighbors(r, kFresh[i]), std::set<std::uint64_t>{});
        EXPECT_EQ(self.counters().cache_hits, hits) << kFresh[i];
      }
      EXPECT_EQ(r.commit(), Status::kOk);
    }
    self.barrier();
  });
}

TEST(Txn, ReadsStayConsistentWhileAnotherRankReshapesTheHolder) {
  // Rank 0 reads a holder in a loop while rank 1 grows it edge batch by edge
  // batch and, every few rounds, deletes and recreates it (its blocks go
  // back to the pool and come back in another order). Every read that
  // succeeds sees one committed state: the hub's `age` property counts its
  // out-edges, which go to the first `age` targets. After each of its
  // rounds the writer waits (boundedly) for the reader to start another
  // read, so reads interleave with every shape the holder takes instead of
  // bunching up while one thread is descheduled.
  rma::Runtime rt(2);
  std::atomic<bool> done{false};
  std::atomic<int> reads{0};
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, memo_db());
    const Meta m = make_meta(self, db);
    constexpr std::uint64_t kHub = 101;  // lives on rank 1
    constexpr std::size_t kTargets = 24;
    if (self.id() == 1) {
      Transaction w(db, self, TxnMode::kWrite);
      auto hub = w.create_vertex(kHub);
      EXPECT_TRUE(hub.ok());
      if (hub.ok()) (void)w.add_property(*hub, m.age, PropValue{std::int64_t{0}});
      for (std::uint64_t a = 2; a <= 2 * kTargets; a += 2) EXPECT_TRUE(w.create_vertex(a).ok());
      EXPECT_EQ(w.commit(), Status::kOk);
    }
    self.barrier();
    std::vector<DPtr> targets;
    {
      Transaction r(db, self, TxnMode::kReadShared);
      for (std::uint64_t a = 2; a <= 2 * kTargets; a += 2)
        targets.push_back(*r.translate_vertex_id(a));
      (void)r.commit();
    }
    self.barrier();
    if (self.id() == 1) {
      // Conflicts with the reader's locks are expected. A grow step is one
      // attempt (a failed one leaves the hub as it was); a delete or a
      // recreate is retried, boundedly, so a starved writer fails the test
      // instead of hanging the team.
      const auto await_a_read = [&] {
        const int seen = reads.load();
        for (int s = 0; s < 100000 && reads.load() == seen; ++s) std::this_thread::yield();
      };
      const auto retried = [](const auto& step) {
        for (int a = 0; a < 10000; ++a) {
          if (step()) return true;
          std::this_thread::yield();
        }
        return false;
      };
      std::int64_t n = 0;
      for (int round = 0; round < 60; ++round) {
        if (round % 8 == 7) {
          EXPECT_TRUE(retried([&] {
            Transaction w(db, self, TxnMode::kWrite);
            auto hub = w.find_vertex(kHub);
            return hub.ok() && w.delete_vertex(*hub) == Status::kOk &&
                   w.commit() == Status::kOk;
          })) << "delete, round " << round;
          EXPECT_TRUE(retried([&] {
            Transaction c(db, self, TxnMode::kWrite);
            auto fresh = c.create_vertex(kHub);
            return fresh.ok() &&
                   c.add_property(*fresh, m.age, PropValue{std::int64_t{0}}) == Status::kOk &&
                   c.commit() == Status::kOk;
          })) << "recreate, round " << round;
          n = 0;
        } else {
          Transaction w(db, self, TxnMode::kWrite);
          auto hub = w.find_vertex(kHub);
          const std::int64_t add = std::min<std::int64_t>(3, kTargets - n);
          bool wrote = hub.ok();  // not ok: the reader holds it
          for (std::int64_t i = 0; i < add && wrote; ++i)
            wrote = w.create_edge(*hub, VertexHandle{targets[n + i]}, Dir::kOut).ok();
          wrote = wrote && w.update_property(*hub, m.age, PropValue{n + add}) == Status::kOk;
          if (wrote && w.commit() == Status::kOk) n += add;
        }
        await_a_read();
      }
      done = true;
    } else {
      // One kRead of the hub: true iff it succeeded (and then it must match).
      const auto read_once = [&] {
        reads.fetch_add(1);
        Transaction r(db, self, TxnMode::kRead);
        auto hub = r.find_vertex(kHub);
        if (!hub.ok()) return false;  // a writer holds it, or it is being recreated
        auto age = r.get_properties(*hub, m.age);
        auto nbrs = r.neighbors_of(*hub, DirFilter::kOut);
        if (!age.ok() || !nbrs.ok() || age->size() != 1) return false;
        const auto n = static_cast<std::size_t>(std::get<std::int64_t>((*age)[0]));
        std::set<std::uint64_t> want;
        for (std::size_t i = 0; i < n && i < kTargets; ++i) want.insert(targets[i].raw());
        std::set<std::uint64_t> got;
        for (DPtr d : *nbrs) got.insert(d.raw());
        EXPECT_EQ(got, want) << "age " << n;
        EXPECT_EQ(nbrs->size(), n);
        return r.commit() == Status::kOk;
      };
      // How many reads land mid-churn, and how many of those take a
      // memoized tail, is up to the thread scheduler: only the quiescent
      // read is required to succeed.
      while (!done.load()) (void)read_once();
      EXPECT_TRUE(read_once()) << "a quiescent read must succeed";
    }
    self.barrier();
  });
}

class TxnConcurrent : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, TxnConcurrent, ::testing::Values(2, 4, 8));

TEST_P(TxnConcurrent, DisjointWritersAllSucceed) {
  const int P = GetParam();
  rma::Runtime rt(P);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, test_db(256, 4096));
    const Meta m = make_meta(self, db);
    constexpr std::uint64_t kPerRank = 30;
    const auto base = static_cast<std::uint64_t>(self.id()) * 1000;
    std::uint64_t committed = 0;
    for (std::uint64_t i = 0; i < kPerRank; ++i) {
      Transaction w(db, self, TxnMode::kWrite);
      auto v = w.create_vertex(base + i);
      EXPECT_TRUE(v.ok());
      (void)w.add_label(*v, m.person);
      (void)w.add_property(*v, m.age, PropValue{static_cast<std::int64_t>(i)});
      if (w.commit() == Status::kOk) ++committed;
    }
    EXPECT_EQ(committed, kPerRank) << "disjoint ids must never conflict";
    self.barrier();
    // Everyone verifies everyone's vertices.
    Transaction r(db, self, TxnMode::kReadShared);
    for (int peer = 0; peer < P; ++peer) {
      const auto pb = static_cast<std::uint64_t>(peer) * 1000;
      for (std::uint64_t i = 0; i < kPerRank; ++i) {
        auto v = r.find_vertex(pb + i);
        EXPECT_TRUE(v.ok()) << pb + i;
      }
    }
    self.barrier();
  });
}

TEST_P(TxnConcurrent, ContendedCounterUpdatesSerialize) {
  const int P = GetParam();
  rma::Runtime rt(P);
  std::atomic<std::uint64_t> success{0};
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, test_db());
    PropertyType cnt{.name = "cnt", .dtype = Datatype::kInt64,
                     .mult = Multiplicity::kSingle};
    const std::uint32_t pt = *db->create_ptype(self, cnt);
    if (self.id() == 0) {
      Transaction w(db, self, TxnMode::kWrite);
      auto v = *w.create_vertex(0);
      (void)w.add_property(v, pt, PropValue{std::int64_t{0}});
      (void)w.commit();
    }
    self.barrier();
    for (int i = 0; i < 40; ++i) {
      Transaction w(db, self, TxnMode::kWrite);
      auto v = w.find_vertex(0);
      if (!v.ok()) continue;  // conflict: txn doomed, try again
      auto cur = w.get_properties(*v, pt);
      if (!cur.ok() || cur->empty()) continue;
      const auto x = std::get<std::int64_t>((*cur)[0]);
      if (w.update_property(*v, pt, PropValue{x + 1}) != Status::kOk) continue;
      if (w.commit() == Status::kOk) success++;
    }
    self.barrier();
    // Serializability: the final counter equals the number of committed
    // increments (lost updates would make it smaller).
    Transaction r(db, self, TxnMode::kRead);
    auto v = r.find_vertex(0);
    EXPECT_TRUE(v.ok());
    if (v.ok()) {
      auto cur = r.get_properties(*v, pt);
      EXPECT_EQ(std::get<std::int64_t>((*cur)[0]),
                static_cast<std::int64_t>(success.load()));
    }
    self.barrier();
  });
  EXPECT_GT(success.load(), 0u);
}

}  // namespace
}  // namespace gdi
