// Additional API coverage and failure injection: property clearing, invalid
// handles, size-typed property constraints, pool exhaustion (OutOfMemory
// paths), index overflow behaviour, and entity-type restrictions.
#include <gtest/gtest.h>

#include "gdi/gdi.hpp"

namespace gdi {
namespace {

DatabaseConfig small_cfg(std::size_t blocks = 2048) {
  DatabaseConfig c;
  c.block.block_size = 256;
  c.block.blocks_per_rank = blocks;
  c.dht.entries_per_rank = 1024;
  return c;
}

TEST(ApiExtras, RemoveAllProperties) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, small_cfg());
    PropertyType a{.name = "a", .dtype = Datatype::kInt64,
                   .mult = Multiplicity::kMultiple};
    PropertyType b{.name = "b", .dtype = Datatype::kInt64};
    const auto pa = *db->create_ptype(self, a);
    const auto pb = *db->create_ptype(self, b);
    const auto lab = *db->create_label(self, "L");
    Transaction w(db, self, TxnMode::kWrite);
    auto v = *w.create_vertex(1);
    (void)w.add_label(v, lab);
    (void)w.add_property(v, pa, PropValue{std::int64_t{1}});
    (void)w.add_property(v, pa, PropValue{std::int64_t{2}});
    (void)w.add_property(v, pb, PropValue{std::int64_t{3}});
    EXPECT_EQ(w.remove_all_properties(v), Status::kOk);
    EXPECT_TRUE(w.ptypes_of(v)->empty());
    EXPECT_TRUE(w.get_properties(v, pa)->empty());
    // Labels survive a property wipe.
    EXPECT_EQ(*w.labels_of(v), (std::vector<std::uint32_t>{lab}));
    EXPECT_EQ(w.commit(), Status::kOk);
  });
}

TEST(ApiExtras, InvalidHandlesRejected) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, small_cfg());
    Transaction txn(db, self, TxnMode::kWrite);
    EXPECT_EQ(txn.labels_of(VertexHandle{}).status(), Status::kInvalidArgument);
    EXPECT_EQ(txn.associate_vertex(DPtr{}).status(), Status::kInvalidArgument);
    EXPECT_EQ(txn.associate_edge(DPtr{}).status(), Status::kInvalidArgument);
    // A dangling-but-shaped DPtr pointing at an unused block reads as invalid.
    const DPtr bogus(0, 512);
    EXPECT_EQ(txn.associate_vertex(bogus).status(), Status::kNotFound);
    txn.abort();
  });
}

TEST(ApiExtras, FixedAndLimitedSizeProperties) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, small_cfg());
    PropertyType fixed{.name = "fixed8",
                       .dtype = Datatype::kBytes,
                       .mult = Multiplicity::kMultiple,
                       .stype = SizeType::kFixed,
                       .max_size = 8};
    PropertyType limited{.name = "lim4",
                         .dtype = Datatype::kString,
                         .mult = Multiplicity::kMultiple,
                         .stype = SizeType::kLimited,
                         .max_size = 4};
    const auto pf = *db->create_ptype(self, fixed);
    const auto pl = *db->create_ptype(self, limited);
    Transaction w(db, self, TxnMode::kWrite);
    auto v = *w.create_vertex(1);
    EXPECT_EQ(w.add_property(v, pf, PropValue{std::vector<std::byte>(8)}), Status::kOk);
    EXPECT_EQ(w.add_property(v, pf, PropValue{std::vector<std::byte>(7)}),
              Status::kConstraintViolated);
    EXPECT_EQ(w.add_property(v, pl, PropValue{std::string("abc")}), Status::kOk);
    EXPECT_EQ(w.add_property(v, pl, PropValue{std::string("abcde")}),
              Status::kConstraintViolated);
    EXPECT_EQ(w.update_property(v, pf, PropValue{std::vector<std::byte>(7)}),
              Status::kConstraintViolated);
    EXPECT_EQ(w.update_property(v, pl, PropValue{std::string("abcdefgh")}),
              Status::kConstraintViolated);
    EXPECT_EQ(w.update_property(v, pl, PropValue{std::string("wxyz")}), Status::kOk);
    EXPECT_EQ(w.commit(), Status::kOk);
  });
}

TEST(ApiExtras, EntityTypeRestrictions) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, small_cfg());
    PropertyType vonly{.name = "vp", .dtype = Datatype::kInt64,
                       .etype = EntityType::kVertex,
                       .mult = Multiplicity::kMultiple};
    PropertyType eonly{.name = "ep", .dtype = Datatype::kInt64,
                       .etype = EntityType::kEdge,
                       .mult = Multiplicity::kMultiple};
    const auto pv = *db->create_ptype(self, vonly);
    const auto pe = *db->create_ptype(self, eonly);
    Transaction w(db, self, TxnMode::kWrite);
    auto a = *w.create_vertex(1);
    auto b = *w.create_vertex(2);
    auto e = *w.create_heavy_edge(a, b, layout::Dir::kOut);
    EXPECT_EQ(w.add_property(a, pe, PropValue{std::int64_t{1}}),
              Status::kInvalidArgument)
        << "edge-only ptype on a vertex";
    EXPECT_EQ(w.add_edge_property(e, pv, PropValue{std::int64_t{1}}),
              Status::kInvalidArgument)
        << "vertex-only ptype on an edge";
    EXPECT_EQ(w.add_property(a, pv, PropValue{std::int64_t{1}}), Status::kOk);
    EXPECT_EQ(w.add_edge_property(e, pe, PropValue{std::int64_t{1}}), Status::kOk);
    EXPECT_EQ(w.commit(), Status::kOk);
  });
}

TEST(ApiExtras, UnknownPtypeRejected) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, small_cfg());
    Transaction w(db, self, TxnMode::kWrite);
    auto v = *w.create_vertex(1);
    EXPECT_EQ(w.add_property(v, 999, PropValue{std::int64_t{1}}),
              Status::kInvalidArgument);
    EXPECT_EQ(w.get_properties(v, 999).status(), Status::kInvalidArgument);
    w.abort();
  });
}

TEST(ApiExtras, BlockPoolExhaustionIsTxnCritical) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, small_cfg(/*blocks=*/8));  // tiny pool
    Transaction w(db, self, TxnMode::kWrite);
    Status last = Status::kOk;
    for (std::uint64_t i = 0; i < 16; ++i) {
      auto v = w.create_vertex(i);
      if (!v.ok()) {
        last = v.status();
        break;
      }
    }
    EXPECT_EQ(last, Status::kOutOfMemory);
    EXPECT_TRUE(is_transaction_critical(last));
    EXPECT_TRUE(w.failed());
    w.abort();
    // All blocks returned: a fresh transaction can allocate again.
    Transaction w2(db, self, TxnMode::kWrite);
    EXPECT_TRUE(w2.create_vertex(100).ok());
    EXPECT_EQ(w2.commit(), Status::kOk);
  });
}

TEST(ApiExtras, IndexShardOverflowDegradesGracefully) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    DatabaseConfig c = small_cfg();
    c.index_capacity_per_rank = 4;  // absurdly small shard
    auto db = Database::create(self, c);
    const auto lab = *db->create_label(self, "L");
    auto idx = db->create_index(self, IndexDef{{lab}, {}});
    Transaction w(db, self, TxnMode::kWrite);
    for (std::uint64_t i = 0; i < 10; ++i) {
      auto v = *w.create_vertex(i);
      (void)w.add_label(v, lab);
    }
    EXPECT_EQ(w.commit(), Status::kOk) << "index overflow must not fail commits";
    Transaction r(db, self, TxnMode::kRead);
    auto got = r.local_index_vertices(*idx);
    EXPECT_EQ(got->size(), 4u) << "only the capacity-bounded prefix is indexed";
  });
}

TEST(ApiExtras, DifferentSaltsDifferentPlacement) {
  rma::Runtime rt(4);
  rt.run([&](rma::Rank& self) {
    dht::DistributedHashTable t1(4, dht::DhtConfig{64, 256, 1});
    dht::DistributedHashTable t2(4, dht::DhtConfig{64, 256, 2});
    self.barrier();
    if (self.id() == 0) {
      // Same keys, different salt -> (almost certainly) different buckets;
      // both tables must behave identically semantically.
      for (std::uint64_t k = 0; k < 32; ++k) {
        EXPECT_TRUE(t1.insert(self, k, k + 1));
        EXPECT_TRUE(t2.insert(self, k, k + 2));
      }
      for (std::uint64_t k = 0; k < 32; ++k) {
        EXPECT_EQ(t1.lookup(self, k), std::optional<std::uint64_t>(k + 1));
        EXPECT_EQ(t2.lookup(self, k), std::optional<std::uint64_t>(k + 2));
      }
    }
    self.barrier();
  });
}

TEST(ApiExtras, EdgeUidStableAcrossTransactions) {
  // EdgeUids (base vertex + record offset) remain valid as long as the edge
  // is not removed -- the paper's permanent-ID behaviour for edges.
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, small_cfg());
    const auto lab = *db->create_label(self, "E");
    EdgeUid uid;
    {
      Transaction w(db, self, TxnMode::kWrite);
      auto a = *w.create_vertex(1);
      auto b = *w.create_vertex(2);
      uid = *w.create_edge(a, b, layout::Dir::kOut, lab);
      (void)w.commit();
    }
    {
      Transaction w(db, self, TxnMode::kWrite);
      auto a = *w.find_vertex(1);
      EXPECT_EQ(w.delete_edge(a, uid), Status::kOk) << "UID from a prior txn";
      EXPECT_EQ(w.commit(), Status::kOk);
    }
    Transaction r(db, self, TxnMode::kRead);
    auto a = *r.find_vertex(1);
    EXPECT_EQ(*r.count_edges(a, DirFilter::kAll), 0u);
  });
}

TEST(ApiExtras, PeekAppIdMatchesFullFetch) {
  rma::Runtime rt(2);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, small_cfg());
    {
      Transaction w(db, self, TxnMode::kWrite, TxnScope::kCollective);
      for (std::uint64_t i = static_cast<std::uint64_t>(self.id()); i < 20; i += 2)
        (void)w.create_vertex(i);
      EXPECT_EQ(w.commit(), Status::kOk);
    }
    Transaction r(db, self, TxnMode::kReadShared);
    for (std::uint64_t i = 0; i < 20; ++i) {
      auto vid = r.translate_vertex_id(i);
      EXPECT_TRUE(vid.ok());
      EXPECT_EQ(*r.peek_app_id(*vid), i);
      auto vh = r.associate_vertex(*vid);
      EXPECT_EQ(*r.app_id_of(*vh), i);
    }
    (void)r.commit();
    self.barrier();
  });
}

}  // namespace
}  // namespace gdi
