// Integration tests: OLAP workloads through GDI (BFS, k-hop, PageRank, WCC,
// CDLP, LCC) verified against the single-threaded reference implementations,
// parameterized over rank counts -- results must be identical regardless of
// how the graph is distributed.
#include <gtest/gtest.h>

#include <array>

#include "generator/kronecker.hpp"
#include "workloads/gnn.hpp"
#include "workloads/graph500.hpp"
#include "workloads/olap.hpp"
#include "workloads/reference.hpp"

namespace gdi {
namespace {

using gen::KroneckerGenerator;
using gen::LpgConfig;

struct OlapEnv {
  std::shared_ptr<Database> db;
  LpgConfig cfg;
};

LpgConfig graph_cfg(int scale, int ef, std::uint64_t seed = 5) {
  LpgConfig cfg;
  cfg.scale = scale;
  cfg.edge_factor = ef;
  cfg.seed = seed;
  cfg.labels_per_vertex = 1;
  cfg.props_per_vertex = 1;
  return cfg;
}

DatabaseConfig db_cfg(rma::Rank& self, const KroneckerGenerator& g, std::size_t block_size) {
  DatabaseConfig c;
  c.block.block_size = block_size;
  const auto per_rank =
      g.config().num_vertices() / static_cast<std::uint64_t>(self.nranks()) + 64;
  c.block.blocks_per_rank = per_rank * 32;
  c.dht.entries_per_rank = per_rank + 64;
  c.dht.buckets_per_rank = 512;
  c.index_capacity_per_rank = per_rank + 64;
  return c;
}

std::shared_ptr<Database> load(rma::Rank& self, const KroneckerGenerator& g,
                               std::size_t block_size = 512) {
  auto db = Database::create(self, db_cfg(self, g, block_size));
  const auto slice = g.generate_local(self);
  BulkLoader loader(db, self);
  auto stats = loader.load(slice.vertices, slice.edges);
  EXPECT_TRUE(stats.ok());
  if (stats.ok()) EXPECT_EQ(stats->edges_skipped, 0u);
  return db;
}

/// Scatter this rank's shard into a full array on rank 0 for comparison.
template <class T>
std::vector<T> merge_shards(rma::Rank& self, std::uint64_t n,
                            const std::vector<T>& shard) {
  const int P = self.nranks();
  auto flat = self.allgatherv(shard);
  std::vector<T> global(n);
  std::size_t pos = 0;
  for (int r = 0; r < P; ++r)
    for (std::uint64_t v = static_cast<std::uint64_t>(r); v < n;
         v += static_cast<std::uint64_t>(P))
      global[v] = flat[pos++];
  return global;
}

class OlapParam : public ::testing::TestWithParam<int> {};
// P=3 cuts the edge list into uneven slices and the ids into uneven shards.
INSTANTIATE_TEST_SUITE_P(Ranks, OlapParam, ::testing::Values(1, 2, 3, 4));

TEST_P(OlapParam, BfsMatchesReference) {
  const int P = GetParam();
  const auto cfg = graph_cfg(7, 8);
  KroneckerGenerator g(cfg, {}, {});
  const auto ref_csr = ref::Csr::build(cfg.num_vertices(), g.all_edges(), true);
  rma::Runtime rt(P);
  rt.run([&](rma::Rank& self) {
    auto db = load(self, g);
    for (std::uint64_t root : {std::uint64_t{0}, std::uint64_t{3}, std::uint64_t{17}}) {
      auto res = work::bfs(db, self, cfg.num_vertices(), root);
      auto mine = merge_shards(self, cfg.num_vertices(), res.values);
      const auto expect = ref::bfs_levels(ref_csr, root);
      for (std::uint64_t v = 0; v < cfg.num_vertices(); ++v)
        EXPECT_EQ(mine[v], expect[v]) << "root " << root << " vertex " << v;
      EXPECT_GT(res.sim_time_ns, 0.0);
    }
  });
}

TEST_P(OlapParam, KHopMatchesReference) {
  const int P = GetParam();
  const auto cfg = graph_cfg(7, 8);
  KroneckerGenerator g(cfg, {}, {});
  const auto ref_csr = ref::Csr::build(cfg.num_vertices(), g.all_edges(), true);
  rma::Runtime rt(P);
  rt.run([&](rma::Rank& self) {
    auto db = load(self, g);
    for (int k : {1, 2, 3, 4}) {
      auto res = work::k_hop(db, self, cfg.num_vertices(), 0, k);
      EXPECT_EQ(res.values[0], ref::k_hop_count(ref_csr, 0, k)) << "k=" << k;
    }
  });
}

TEST_P(OlapParam, PagerankMatchesReference) {
  const int P = GetParam();
  const auto cfg = graph_cfg(7, 8);
  KroneckerGenerator g(cfg, {}, {});
  const auto ref_csr = ref::Csr::build(cfg.num_vertices(), g.all_edges(), false);
  const auto expect = ref::pagerank(ref_csr, 10, 0.85);
  rma::Runtime rt(P);
  rt.run([&](rma::Rank& self) {
    auto db = load(self, g);
    auto res = work::pagerank(db, self, cfg.num_vertices(), 10, 0.85);
    auto mine = merge_shards(self, cfg.num_vertices(), res.values);
    double sum = 0;
    for (std::uint64_t v = 0; v < cfg.num_vertices(); ++v) {
      EXPECT_NEAR(mine[v], expect[v], 1e-9) << v;
      sum += mine[v];
    }
    EXPECT_NEAR(sum, 1.0, 1e-6) << "PageRank mass conservation";
  });
}

TEST_P(OlapParam, WccMatchesReference) {
  const int P = GetParam();
  const auto cfg = graph_cfg(7, 4);  // sparser graph: several components
  KroneckerGenerator g(cfg, {}, {});
  const auto ref_csr = ref::Csr::build(cfg.num_vertices(), g.all_edges(), true);
  const auto expect = ref::wcc(ref_csr);
  rma::Runtime rt(P);
  rt.run([&](rma::Rank& self) {
    auto db = load(self, g);
    auto res = work::wcc(db, self, cfg.num_vertices());
    auto mine = merge_shards(self, cfg.num_vertices(), res.values);
    for (std::uint64_t v = 0; v < cfg.num_vertices(); ++v) EXPECT_EQ(mine[v], expect[v]) << v;
  });
}

TEST_P(OlapParam, CdlpMatchesReference) {
  const int P = GetParam();
  const auto cfg = graph_cfg(6, 4);
  KroneckerGenerator g(cfg, {}, {});
  const auto ref_csr = ref::Csr::build(cfg.num_vertices(), g.all_edges(), true);
  const auto expect = ref::cdlp(ref_csr, 5);
  rma::Runtime rt(P);
  rt.run([&](rma::Rank& self) {
    auto db = load(self, g);
    auto res = work::cdlp(db, self, cfg.num_vertices(), 5);
    auto mine = merge_shards(self, cfg.num_vertices(), res.values);
    for (std::uint64_t v = 0; v < cfg.num_vertices(); ++v) EXPECT_EQ(mine[v], expect[v]) << v;
  });
}

TEST_P(OlapParam, LccMatchesReference) {
  const int P = GetParam();
  const auto cfg = graph_cfg(6, 4);
  KroneckerGenerator g(cfg, {}, {});
  const auto ref_csr = ref::Csr::build(cfg.num_vertices(), g.all_edges(), true);
  const auto expect = ref::lcc(ref_csr);
  rma::Runtime rt(P);
  rt.run([&](rma::Rank& self) {
    auto db = load(self, g);
    auto res = work::lcc(db, self, cfg.num_vertices());
    auto mine = merge_shards(self, cfg.num_vertices(), res.values);
    for (std::uint64_t v = 0; v < cfg.num_vertices(); ++v)
      EXPECT_NEAR(mine[v], expect[v], 1e-12) << v;
  });
}

TEST_P(OlapParam, Graph500BfsMatchesReference) {
  const int P = GetParam();
  const auto cfg = graph_cfg(7, 8);
  KroneckerGenerator g(cfg, {}, {});
  const auto ref_csr = ref::Csr::build(cfg.num_vertices(), g.all_edges(), true);
  const auto expect = ref::bfs_levels(ref_csr, 2);
  rma::Runtime rt(P);
  rt.run([&](rma::Rank& self) {
    const auto slice = g.generate_local(self);
    work::Graph500 g500(self, cfg.num_vertices(), slice.edges);
    auto res = g500.bfs(self, 2);
    auto mine = merge_shards(self, cfg.num_vertices(), res.values);
    for (std::uint64_t v = 0; v < cfg.num_vertices(); ++v) EXPECT_EQ(mine[v], expect[v]) << v;
  });
}

TEST(Olap, GdaBfsCostsMoreThanGraph500ButBounded) {
  // Figure 6e's qualitative claim: GDA BFS within a small factor of Graph500.
  const auto cfg = graph_cfg(9, 8);
  KroneckerGenerator g(cfg, {}, {});
  rma::Runtime rt(4, rma::NetParams::xc50());
  rt.run([&](rma::Rank& self) {
    auto db = load(self, g);
    const auto slice = g.generate_local(self);
    work::Graph500 g500(self, cfg.num_vertices(), slice.edges);
    auto gda = work::bfs(db, self, cfg.num_vertices(), 0);
    auto ref500 = g500.bfs(self, 0);
    if (self.id() == 0) {
      EXPECT_GT(gda.sim_time_ns, ref500.sim_time_ns)
          << "a full GDB cannot beat the tuned static kernel";
      EXPECT_LT(gda.sim_time_ns, 16.0 * ref500.sim_time_ns)
          << "but must stay within a small factor (paper: 2-4x)";
    }
    self.barrier();
  });
}

TEST_P(OlapParam, BfsUnaffectedByHeavyEdges) {
  // Heavy edges (own holders) must traverse identically to lightweight ones.
  const int P = GetParam();
  auto cfg = graph_cfg(6, 6);
  cfg.heavy_edge_fraction = 0.5;
  KroneckerGenerator g(cfg, {}, {});
  const auto ref_csr = ref::Csr::build(cfg.num_vertices(), g.all_edges(), true);
  const auto expect = ref::bfs_levels(ref_csr, 1);
  rma::Runtime rt(P);
  rt.run([&](rma::Rank& self) {
    auto db = load(self, g);
    auto res = work::bfs(db, self, cfg.num_vertices(), 1);
    auto mine = merge_shards(self, cfg.num_vertices(), res.values);
    for (std::uint64_t v = 0; v < cfg.num_vertices(); ++v)
      EXPECT_EQ(mine[v], expect[v]) << v;
  });
}

TEST_P(OlapParam, PagerankUnaffectedByHeavyEdges) {
  const int P = GetParam();
  auto cfg = graph_cfg(6, 6);
  cfg.heavy_edge_fraction = 0.3;
  KroneckerGenerator g(cfg, {}, {});
  const auto ref_csr = ref::Csr::build(cfg.num_vertices(), g.all_edges(), false);
  const auto expect = ref::pagerank(ref_csr, 5, 0.85);
  rma::Runtime rt(P);
  rt.run([&](rma::Rank& self) {
    auto db = load(self, g);
    auto res = work::pagerank(db, self, cfg.num_vertices(), 5, 0.85);
    auto mine = merge_shards(self, cfg.num_vertices(), res.values);
    for (std::uint64_t v = 0; v < cfg.num_vertices(); ++v)
      EXPECT_NEAR(mine[v], expect[v], 1e-9) << v;
  });
}

/// Collective: every stored edge record as (src, dst, is-out), read back
/// through plain transactions.
std::vector<std::array<std::uint64_t, 3>> stored_records(const std::shared_ptr<Database>& db,
                                                         rma::Rank& self, std::uint64_t n) {
  std::vector<std::array<std::uint64_t, 3>> mine;
  Transaction txn(db, self, TxnMode::kReadShared, TxnScope::kCollective);
  for (std::uint64_t v = static_cast<std::uint64_t>(self.id()); v < n;
       v += static_cast<std::uint64_t>(self.nranks())) {
    auto vh = txn.find_vertex(v);
    if (!vh.ok()) continue;
    auto edges = txn.edges_of(*vh, DirFilter::kAll);
    if (!edges.ok()) continue;
    for (const auto& e : *edges) {
      auto dst = txn.peek_app_id(e.neighbor);
      EXPECT_TRUE(dst.ok());
      if (dst.ok()) mine.push_back({v, *dst, e.dir == layout::Dir::kOut ? 1u : 0u});
    }
  }
  EXPECT_EQ(txn.commit(), Status::kOk);
  return self.allgatherv(mine);
}

TEST(Olap, SkewedBfsHandsOffHubs) {
  // Round-robin placement puts the Kronecker hubs (ids with many zero bits)
  // on rank 0, which then holds far more than its quarter of the edge
  // records. BFS must hand some of its frontier's hubs to the other ranks,
  // which read those holders one-sidedly (remote ops), and still produce
  // the reference levels.
  const auto cfg = graph_cfg(10, 16);
  KroneckerGenerator g(cfg, {}, {});
  const std::uint64_t n = cfg.num_vertices();
  rma::Runtime rt(4, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, db_cfg(self, g, 512));
    const auto slice = g.generate_local(self);
    BulkLoader loader(db, self);
    EXPECT_TRUE(loader.load(slice.vertices, slice.edges).ok());
    std::vector<BulkEdge> all;
    std::uint64_t on_rank0 = 0;
    for (const auto& [src, dst, is_out] : stored_records(db, self, n)) {
      on_rank0 += src % 4 == 0 ? 1 : 0;
      all.push_back(BulkEdge{.src = src, .dst = dst});
    }
    EXPECT_GT(3 * on_rank0, all.size()) << "premise: rank 0 holds over a third of the records";
    const auto csr = ref::Csr::build(n, all, false);
    for (std::uint64_t root : {std::uint64_t{0}, std::uint64_t{5}, std::uint64_t{123}}) {
      // A 0-hop walk only translates the root: the DHT's share of the ops.
      const auto translate_only = work::k_hop(db, self, n, root, 0).remote_ops;
      auto res = work::bfs(db, self, n, root);
      EXPECT_GT(res.remote_ops, translate_only)
          << "root " << root << ": no frontier was handed off";
      EXPECT_EQ(merge_shards(self, n, res.values), ref::bfs_levels(csr, root))
          << "root " << root;
    }
  });
}

class OlapCapped : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, OlapCapped, ::testing::Values(1, 3, 4));

TEST_P(OlapCapped, KernelsFollowStoredRecords) {
  // Small blocks cap the holder degree, so the loader drops records and the
  // stored graph is no longer symmetric. The kernels follow the stored
  // records: the reference runs on the graph read back, not the generated one.
  const int P = GetParam();
  const auto cfg = graph_cfg(9, 16);
  KroneckerGenerator g(cfg, {}, {});
  const std::uint64_t n = cfg.num_vertices();
  rma::Runtime rt(P);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, db_cfg(self, g, 128));
    const auto slice = g.generate_local(self);
    BulkLoader loader(db, self);
    auto stats = loader.load(slice.vertices, slice.edges);
    EXPECT_TRUE(stats.ok());
    const std::uint64_t skipped = self.allreduce_sum(stats.ok() ? stats->edges_skipped : 0);
    EXPECT_GT(skipped, 0u) << "premise: the degree cap drops records";
    std::vector<BulkEdge> all, out;
    for (const auto& [src, dst, is_out] : stored_records(db, self, n)) {
      all.push_back(BulkEdge{.src = src, .dst = dst});
      if (is_out) out.push_back(all.back());
    }
    const auto undirected = ref::Csr::build(n, all, false);
    for (std::uint64_t root : {std::uint64_t{0}, std::uint64_t{7}, std::uint64_t{300}}) {
      auto b = work::bfs(db, self, n, root);
      EXPECT_EQ(merge_shards(self, n, b.values), ref::bfs_levels(undirected, root))
          << "root " << root;
      for (int k : {1, 3}) {
        auto h = work::k_hop(db, self, n, root, k);
        EXPECT_EQ(h.values[0], ref::k_hop_count(undirected, root, k))
            << "root " << root << " k=" << k;
      }
    }
    const auto expect = ref::pagerank(ref::Csr::build(n, out, false), 10, 0.85);
    auto pr = work::pagerank(db, self, n, 10, 0.85);
    const auto got = merge_shards(self, n, pr.values);
    for (std::uint64_t v = 0; v < n; ++v) EXPECT_NEAR(got[v], expect[v], 1e-9) << v;
  });
}

class GnnParam : public ::testing::TestWithParam<std::pair<int, int>> {};
INSTANTIATE_TEST_SUITE_P(RanksAndK, GnnParam,
                         ::testing::Values(std::pair<int, int>{1, 4},
                                           std::pair<int, int>{2, 8},
                                           std::pair<int, int>{4, 16}));

TEST_P(GnnParam, ForwardMatchesReference) {
  const auto [P, k] = GetParam();
  const auto cfg = graph_cfg(6, 4);
  KroneckerGenerator g(cfg, {}, {});
  const auto ref_csr = ref::Csr::build(cfg.num_vertices(), g.all_edges(), false);
  work::GnnConfig gc{2, k, 7};
  const auto expect = work::gnn_reference(ref_csr, gc);
  rma::Runtime rt(P);
  rt.run([&](rma::Rank& self) {
    auto db = load(self, g, 1024);
    PropertyType feat{.name = "feature", .dtype = Datatype::kBytes};
    const std::uint32_t pt = *db->create_ptype(self, feat);
    EXPECT_EQ(work::gnn_init_features(db, self, cfg.num_vertices(), pt, gc), Status::kOk);
    auto res = work::gnn_forward(db, self, cfg.num_vertices(), pt, gc);
    // Flatten (allgatherv needs trivially copyable elements) and reassemble.
    std::vector<float> flat_shard;
    for (const auto& f : res.values) {
      EXPECT_EQ(f.size(), static_cast<std::size_t>(k));
      flat_shard.insert(flat_shard.end(), f.begin(), f.end());
    }
    auto flat = self.allgatherv(flat_shard);
    const std::uint64_t n = cfg.num_vertices();
    std::vector<std::vector<float>> mine(n);
    std::size_t pos = 0;
    for (int r = 0; r < P; ++r) {
      for (std::uint64_t v = static_cast<std::uint64_t>(r); v < n;
           v += static_cast<std::uint64_t>(P)) {
        mine[v].assign(flat.begin() + static_cast<std::ptrdiff_t>(pos),
                       flat.begin() + static_cast<std::ptrdiff_t>(pos + k));
        pos += static_cast<std::size_t>(k);
      }
    }
    for (std::uint64_t v = 0; v < n; ++v) {
      for (int i = 0; i < k; ++i) {
        const float e = expect[v][static_cast<std::size_t>(i)];
        EXPECT_NEAR(mine[v][static_cast<std::size_t>(i)], e,
                    1e-3f + 1e-3f * std::abs(e))
            << "vertex " << v << " dim " << i;
      }
    }
  });
}

}  // namespace
}  // namespace gdi
