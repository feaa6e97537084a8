// System-level invariant tests: after arbitrary concurrent transactional
// churn (creates, deletes, edge inserts/removals racing across ranks, with
// conflicts aborting), the stored graph must satisfy the LPG storage
// invariants:
//   I1  every live edge record's neighbor vertex exists and is valid;
//   I2  every live edge record has exactly one matching mirror record at the
//       neighbor (direction mirrored, same label), i.e. the edge multiset is
//       symmetric;
//   I3  every valid vertex is reachable through the DHT by its app id, and
//       translate(app_id) returns the holder carrying that app id;
//   I4  block accounting balances: allocated blocks == sum of holder block
//       counts (no leaks from aborted transactions).
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "common/hash.hpp"
#include "gdi/gdi.hpp"

namespace gdi {
namespace {

class ChurnParam : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};
INSTANTIATE_TEST_SUITE_P(
    RanksAndSeeds, ChurnParam,
    ::testing::Combine(::testing::Values(2, 4, 8), ::testing::Values(11u, 22u, 33u)));

TEST_P(ChurnParam, MirrorAndIndexInvariantsHoldAfterChurn) {
  const auto [P, seed] = GetParam();
  rma::Runtime rt(P);
  rt.run([&](rma::Rank& self) {
    DatabaseConfig c;
    c.block.block_size = 256;
    c.block.blocks_per_rank = 1u << 13;
    c.dht.entries_per_rank = 1u << 11;
    auto db = Database::create(self, c);
    const std::uint32_t lab = *db->create_label(self, "L");
    constexpr std::uint64_t kIds = 48;

    // Seed the graph deterministically from rank 0.
    if (self.id() == 0) {
      Transaction w(db, self, TxnMode::kWrite);
      for (std::uint64_t i = 0; i < kIds; ++i) (void)w.create_vertex(i);
      EXPECT_EQ(w.commit(), Status::kOk);
    }
    self.barrier();

    // Concurrent churn: every rank fires random single-op transactions at the
    // shared id space. Conflicts are expected; they must abort cleanly.
    CounterRng rng(hash_combine(seed, static_cast<std::uint64_t>(self.id())));
    for (int step = 0; step < 150; ++step) {
      Transaction txn(db, self, TxnMode::kWrite);
      const std::uint64_t a = rng.next_below(kIds);
      const std::uint64_t b = rng.next_below(kIds);
      switch (rng.next_below(10)) {
        case 0: {  // re-create (fails if it exists -- fine)
          (void)txn.create_vertex(a);
          break;
        }
        case 1: {  // delete
          auto h = txn.find_vertex(a);
          if (h.ok()) (void)txn.delete_vertex(*h);
          break;
        }
        case 2:
        case 3: {  // remove a random edge
          auto h = txn.find_vertex(a);
          if (h.ok()) {
            auto edges = txn.edges_of(*h, DirFilter::kAll);
            if (edges.ok() && !edges->empty())
              (void)txn.delete_edge(*h, (*edges)[rng.next_below(edges->size())].uid);
          }
          break;
        }
        default: {  // add an edge (the most common op)
          auto ha = txn.find_vertex(a);
          auto hb = ha.ok() ? txn.find_vertex(b) : Result<VertexHandle>(ha.status());
          if (ha.ok() && hb.ok()) {
            const auto dir = static_cast<layout::Dir>(rng.next_below(3));
            (void)txn.create_edge(*ha, *hb, dir, rng.next_below(2) ? lab : 0);
          }
          break;
        }
      }
      (void)txn.commit();  // either commits or (on any conflict) aborts
    }
    self.barrier();

    // --- invariant checking, single rank, quiesced system --------------------
    if (self.id() == 0) {
      Transaction r(db, self, TxnMode::kReadShared);
      using EdgeKey = std::tuple<std::uint64_t, std::uint64_t, int, std::uint32_t>;
      std::map<EdgeKey, int> records;  // (base, nbr, dir, label) -> count
      std::uint64_t holder_blocks = 0;
      std::uint64_t vertex_count = 0;

      for (std::uint64_t i = 0; i < kIds; ++i) {
        auto h = r.find_vertex(i);
        if (!h.ok()) continue;
        ++vertex_count;
        // I3: the DHT-returned holder carries the right app id.
        EXPECT_EQ(*r.app_id_of(*h), i);
        // EXPECT and skip, not ASSERT: an ASSERT would return rank 0 early
        // and leave the other ranks waiting at the closing barrier forever.
        auto edges = r.edges_of(*h, DirFilter::kAll);
        EXPECT_TRUE(edges.ok());
        if (!edges.ok()) continue;
        for (const auto& e : *edges) {
          auto nid = r.peek_app_id(e.neighbor);
          EXPECT_TRUE(nid.ok());
          if (!nid.ok()) continue;
          // I1: neighbor must be a valid vertex.
          auto nh = r.associate_vertex(e.neighbor);
          EXPECT_TRUE(nh.ok()) << "dangling edge " << i << " -> app " << *nid;
          records[{i, *nid, static_cast<int>(e.dir), e.label_id}]++;
        }
      }
      // I2: symmetry -- every (a,b,out,l) has a matching (b,a,in,l), every
      // undirected (a,b) a matching (b,a), in equal multiplicities.
      for (const auto& [key, count] : records) {
        const auto [a, b, dir, l] = key;
        const bool undirected_self = a == b && dir == 2;
        if (undirected_self) continue;  // single-record representation
        const int mdir = dir == 0 ? 1 : dir == 1 ? 0 : 2;
        const EdgeKey mirror{b, a, mdir, l};
        auto it = records.find(mirror);
        EXPECT_NE(it, records.end())
            << "missing mirror for " << a << "->" << b << " dir " << dir;
        if (it == records.end()) continue;
        EXPECT_EQ(it->second, count)
            << "mirror multiplicity mismatch " << a << "<->" << b;
      }
      // I4: block accounting. Recompute holder block counts via fetches.
      for (std::uint64_t i = 0; i < kIds; ++i) {
        auto vid = r.translate_vertex_id(i);
        if (!vid.ok()) continue;
        std::uint32_t nb = 0;
        db->blocks().read(self, *vid, 12, &nb, 4);
        holder_blocks += nb;
      }
      std::uint64_t allocated = 0;
      for (int q = 0; q < P; ++q)
        allocated += db->blocks().allocated_count(self, static_cast<std::uint32_t>(q));
      EXPECT_EQ(allocated, holder_blocks)
          << "block leak or double-free after churn (" << vertex_count
          << " vertices survive)";
      (void)r.commit();
    }
    self.barrier();
  });
}

TEST(Invariants, AbortStormLeaksNothing) {
  // Transactions that always abort must leave the database byte-identical:
  // same block count, same DHT content.
  rma::Runtime rt(4);
  rt.run([&](rma::Rank& self) {
    DatabaseConfig c;
    c.block.block_size = 256;
    c.block.blocks_per_rank = 4096;
    c.dht.entries_per_rank = 512;
    auto db = Database::create(self, c);
    const std::uint32_t lab = *db->create_label(self, "L");
    if (self.id() == 0) {
      Transaction w(db, self, TxnMode::kWrite);
      for (std::uint64_t i = 0; i < 16; ++i) (void)w.create_vertex(i);
      EXPECT_EQ(w.commit(), Status::kOk);
    }
    self.barrier();
    std::uint64_t before = 0;
    for (int q = 0; q < 4; ++q)
      before += db->blocks().allocated_count(self, static_cast<std::uint32_t>(q));
    self.barrier();

    CounterRng rng(static_cast<std::uint64_t>(self.id()) + 77);
    for (int i = 0; i < 80; ++i) {
      Transaction txn(db, self, TxnMode::kWrite);
      auto v = txn.create_vertex(1000 + static_cast<std::uint64_t>(self.id()) * 100 +
                                 static_cast<std::uint64_t>(i));
      if (v.ok()) {
        (void)txn.add_label(*v, lab);
        auto old = txn.find_vertex(rng.next_below(16));
        if (old.ok()) (void)txn.create_edge(*v, *old, layout::Dir::kOut);
      }
      txn.abort();  // always abort
    }
    self.barrier();
    std::uint64_t after = 0;
    for (int q = 0; q < 4; ++q)
      after += db->blocks().allocated_count(self, static_cast<std::uint32_t>(q));
    EXPECT_EQ(after, before) << "aborted work must release every block";
    // No phantom vertices.
    Transaction r(db, self, TxnMode::kRead);
    EXPECT_EQ(r.find_vertex(1000 + static_cast<std::uint64_t>(self.id()) * 100)
                  .status(),
              Status::kNotFound);
    self.barrier();
  });
}

}  // namespace
}  // namespace gdi
