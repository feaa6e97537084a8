#include "workloads/olap.hpp"

#include <algorithm>
#include <unordered_map>

namespace gdi::work {
namespace {

constexpr double kNsPerEdge = 2.0;    ///< modeled CPU cost per edge touched
constexpr double kNsPerVertex = 6.0;  ///< modeled CPU cost per vertex touched

std::uint64_t owner_index(std::uint64_t id, int P) {
  return id / static_cast<std::uint64_t>(P);
}

/// Per-rank adjacency snapshot read through GDI once per algorithm: for every
/// local vertex, the application IDs of its neighbors. Mirrors how a database
/// mid-layer materializes structure for an iterative analytic.
struct LocalAdjacency {
  std::vector<std::uint64_t> ids;                    ///< local app ids
  std::vector<std::vector<std::uint64_t>> nbrs;      ///< neighbor app ids
};

/// Chunk size for frontier batching: bounded working set, still deep enough
/// that an overlapped batch amortizes its latency across many operations.
constexpr std::size_t kFrontierChunk = 128;

LocalAdjacency build_adjacency(const std::shared_ptr<Database>& db, rma::Rank& self,
                               std::uint64_t n, DirFilter f) {
  LocalAdjacency adj;
  const int P = self.nranks();
  Transaction txn(db, self, TxnMode::kReadShared, TxnScope::kCollective);
  std::unordered_map<std::uint64_t, std::uint64_t> id_cache;  // DPtr raw -> app id

  std::vector<std::uint64_t> local_ids;
  for (std::uint64_t v = static_cast<std::uint64_t>(self.id()); v < n;
       v += static_cast<std::uint64_t>(P))
    local_ids.push_back(v);

  // Async pipeline in two stages. Stage 1 finds every local vertex,
  // chunk-by-chunk, one BatchScope::execute per chunk (DHT multi-lookup +
  // overlapped holder fetch + stale-DHT validation); after it, every local
  // holder is transaction state. Stage 2 walks the edge lists and resolves
  // neighbor IDs: local neighbors are free state hits, remote neighbors ride
  // batched overlapped 8-byte peeks -- 8 bytes on the wire per remote
  // neighbor instead of the whole-block prefetch the pre-async code paid.
  std::vector<Future<VertexHandle>> handles;
  handles.reserve(local_ids.size());
  for (std::size_t base = 0; base < local_ids.size(); base += kFrontierChunk) {
    const std::size_t end = std::min(base + kFrontierChunk, local_ids.size());
    BatchScope finds = txn.batch();
    for (std::size_t j = base; j < end; ++j) handles.push_back(finds.find(local_ids[j]));
    if (is_transaction_critical(finds.execute())) return adj;
  }

  for (std::size_t base = 0; base < local_ids.size(); base += kFrontierChunk) {
    const std::size_t end = std::min(base + kFrontierChunk, local_ids.size());
    const std::size_t first_row = adj.ids.size();
    std::vector<std::vector<DPtr>> row_nbrs(end - base);
    BatchScope peeks = txn.batch();
    std::unordered_map<std::uint64_t, Future<std::uint64_t>> peeked;
    for (std::size_t j = base; j < end; ++j) {
      adj.ids.push_back(local_ids[j]);
      adj.nbrs.emplace_back();
      if (!handles[j].ok()) continue;
      auto edges = txn.edges_of(*handles[j], f);
      if (!edges.ok()) continue;
      row_nbrs[j - base].reserve(edges->size());
      for (const auto& e : *edges) {
        row_nbrs[j - base].push_back(e.neighbor);
        // contains-guard first: try_emplace would evaluate (and enqueue) the
        // peek even when the key is already present.
        if (!id_cache.contains(e.neighbor.raw()) && !peeked.contains(e.neighbor.raw()))
          peeked.emplace(e.neighbor.raw(), peeks.peek_app_id(e.neighbor));
        self.charge_compute(kNsPerEdge);
      }
      self.charge_compute(kNsPerVertex);
    }

    (void)peeks.execute();
    for (std::size_t j = 0; j < row_nbrs.size(); ++j) {
      auto& out = adj.nbrs[first_row + j];
      out.reserve(row_nbrs[j].size());
      for (DPtr nb : row_nbrs[j]) {
        auto it = id_cache.find(nb.raw());
        std::uint64_t nid;
        if (it != id_cache.end()) {
          nid = it->second;
        } else {
          const auto& fut = peeked.at(nb.raw());
          nid = fut.ok() ? *fut : kUnreached;
          id_cache.emplace(nb.raw(), nid);
        }
        if (nid != kUnreached) out.push_back(nid);
      }
    }
  }
  (void)txn.commit();
  return adj;
}

template <class T>
void finalize(ShardResult<T>& res, rma::Rank& self) {
  res.sim_time_ns = self.allreduce_max(self.sim_time_ns());
  res.remote_ops = self.allreduce_sum(self.counters().remote_ops);
}

/// Gather the full value array from per-rank shards (round-robin owner).
template <class T>
std::vector<T> gather_global(rma::Rank& self, std::uint64_t n,
                             const std::vector<T>& shard) {
  const int P = self.nranks();
  auto flat = self.allgatherv(shard);
  // Rank r's shard occupies a contiguous range of `flat`, in id order
  // r, r+P, r+2P, ...; scatter back to id-indexed order.
  std::vector<T> global(n);
  std::size_t pos = 0;
  for (int r = 0; r < P; ++r) {
    for (std::uint64_t v = static_cast<std::uint64_t>(r); v < n;
         v += static_cast<std::uint64_t>(P))
      global[v] = flat[pos++];
  }
  return global;
}

}  // namespace

ShardResult<std::uint64_t> bfs(const std::shared_ptr<Database>& db, rma::Rank& self,
                               std::uint64_t n, std::uint64_t root) {
  const int P = self.nranks();
  self.reset_clock();
  self.reset_counters();
  ShardResult<std::uint64_t> res;
  res.values.assign(
      (n > static_cast<std::uint64_t>(self.id()))
          ? (n - 1 - static_cast<std::uint64_t>(self.id())) / static_cast<std::uint64_t>(P) + 1
          : 0,
      kUnreached);

  Transaction txn(db, self, TxnMode::kReadShared, TxnScope::kCollective);
  std::vector<DPtr> frontier;
  // Visited tracking by DPtr lets duplicate arrivals be dropped *before*
  // paying the holder peek -- the standard top-down BFS dedup.
  std::unordered_map<std::uint64_t, bool> seen;
  if (db->owner_rank(root) == static_cast<std::uint32_t>(self.id())) {
    auto vid = txn.translate_vertex_id(root);
    if (vid.ok()) {
      res.values[owner_index(root, P)] = 0;
      frontier.push_back(*vid);
      seen.emplace(vid->raw(), true);
    }
  }
  std::uint64_t level = 0;
  for (;;) {
    std::vector<std::vector<std::uint64_t>> sends(static_cast<std::size_t>(P));
    // Frontier expansion through the async surface: one execute resolves the
    // edge lists of the whole frontier (usually cache hits already -- each
    // frontier vertex's block was pulled when it arrived).
    BatchScope scope = txn.batch();
    std::vector<Future<std::vector<EdgeDesc>>> edge_futs;
    edge_futs.reserve(frontier.size());
    for (DPtr v : frontier) edge_futs.push_back(scope.edges_of(v, DirFilter::kAll));
    (void)scope.execute();
    for (const auto& edges : edge_futs) {
      if (!edges.ok()) continue;
      for (const auto& e : *edges) {
        sends[e.neighbor.rank()].push_back(e.neighbor.raw());
        self.charge_compute(kNsPerEdge);
      }
    }
    auto recv = self.alltoallv(sends);
    frontier.clear();
    ++level;
    // Batch the holder reads of all fresh arrivals before peeking their IDs.
    std::vector<DPtr> fresh;
    for (const auto& chunk : recv)
      for (std::uint64_t raw : chunk)
        if (seen.emplace(raw, true).second) fresh.push_back(DPtr{raw});
    txn.prefetch_vertices(fresh);
    for (const DPtr nd : fresh) {
      auto idr = txn.peek_app_id(nd);  // local read: nd lives on this rank
      if (!idr.ok()) continue;
      const std::uint64_t idx = owner_index(*idr, P);
      if (idx < res.values.size() && res.values[idx] == kUnreached) {
        res.values[idx] = level;
        frontier.push_back(nd);
      }
      self.charge_compute(kNsPerVertex);
    }
    const std::uint64_t active = self.allreduce_sum<std::uint64_t>(frontier.size());
    if (active == 0) break;
  }
  (void)txn.commit();
  finalize(res, self);
  return res;
}

ShardResult<std::uint64_t> k_hop(const std::shared_ptr<Database>& db, rma::Rank& self,
                                 std::uint64_t n, std::uint64_t root, int k,
                                 const Constraint* c) {
  // Bounded BFS; the value array doubles as the visited set.
  const int P = self.nranks();
  self.reset_clock();
  self.reset_counters();
  ShardResult<std::uint64_t> res;
  std::vector<std::uint64_t> level(
      (n > static_cast<std::uint64_t>(self.id()))
          ? (n - 1 - static_cast<std::uint64_t>(self.id())) / static_cast<std::uint64_t>(P) + 1
          : 0,
      kUnreached);

  Transaction txn(db, self, TxnMode::kReadShared, TxnScope::kCollective);
  std::vector<DPtr> frontier;
  std::unordered_map<std::uint64_t, bool> seen;
  if (db->owner_rank(root) == static_cast<std::uint32_t>(self.id())) {
    auto vid = txn.translate_vertex_id(root);
    if (vid.ok()) {
      level[owner_index(root, P)] = 0;
      frontier.push_back(*vid);
      seen.emplace(vid->raw(), true);
    }
  }
  for (int hop = 1; hop <= k; ++hop) {
    std::vector<std::vector<std::uint64_t>> sends(static_cast<std::size_t>(P));
    BatchScope scope = txn.batch();
    std::vector<Future<std::vector<EdgeDesc>>> edge_futs;
    edge_futs.reserve(frontier.size());
    // The constraint rides into the batch: every heavy-edge holder the
    // filter needs resolves through one batched holder fetch inside execute().
    for (DPtr v : frontier) edge_futs.push_back(scope.edges_of(v, DirFilter::kAll, c));
    (void)scope.execute();
    for (const auto& edges : edge_futs) {
      if (!edges.ok()) continue;
      for (const auto& e : *edges) {
        sends[e.neighbor.rank()].push_back(e.neighbor.raw());
        self.charge_compute(kNsPerEdge);
      }
    }
    auto recv = self.alltoallv(sends);
    frontier.clear();
    std::vector<DPtr> fresh;
    for (const auto& chunk : recv)
      for (std::uint64_t raw : chunk)
        if (seen.emplace(raw, true).second) fresh.push_back(DPtr{raw});
    txn.prefetch_vertices(fresh);
    for (const DPtr nd : fresh) {
      auto idr = txn.peek_app_id(nd);
      if (!idr.ok()) continue;
      const std::uint64_t idx = owner_index(*idr, P);
      if (idx < level.size() && level[idx] == kUnreached) {
        level[idx] = static_cast<std::uint64_t>(hop);
        frontier.push_back(nd);
      }
    }
    if (self.allreduce_sum<std::uint64_t>(frontier.size()) == 0) break;
  }
  (void)txn.commit();
  std::uint64_t local = 0;
  for (auto l : level)
    if (l != kUnreached) ++local;
  res.values.assign(1, self.allreduce_sum(local));
  finalize(res, self);
  return res;
}

ShardResult<double> pagerank(const std::shared_ptr<Database>& db, rma::Rank& self,
                             std::uint64_t n, int iters, double df) {
  self.reset_clock();
  self.reset_counters();
  // Structure snapshot: directed out-adjacency read through GDI.
  auto adj = build_adjacency(db, self, n, DirFilter::kOut);

  ShardResult<double> res;
  res.values.assign(adj.ids.size(), 1.0 / static_cast<double>(n));
  std::vector<double> acc(n);
  for (int it = 0; it < iters; ++it) {
    std::fill(acc.begin(), acc.end(), 0.0);
    double local_dangling = 0.0;
    for (std::size_t i = 0; i < adj.ids.size(); ++i) {
      const auto deg = static_cast<double>(adj.nbrs[i].size());
      if (deg == 0) {
        local_dangling += res.values[i];
        continue;
      }
      const double share = res.values[i] / deg;
      for (std::uint64_t nb : adj.nbrs[i]) acc[nb] += share;
      self.charge_compute(kNsPerEdge * deg);
    }
    // Global contribution exchange + dangling mass (collectives).
    auto global_acc = self.allreduce(std::span<const double>(acc),
                                     [](double a, double b) { return a + b; });
    const double dangling = self.allreduce_sum(local_dangling);
    const double base = (1.0 - df) / static_cast<double>(n) +
                        df * dangling / static_cast<double>(n);
    for (std::size_t i = 0; i < adj.ids.size(); ++i)
      res.values[i] = base + df * global_acc[adj.ids[i]];
  }
  finalize(res, self);
  return res;
}

ShardResult<std::uint64_t> wcc(const std::shared_ptr<Database>& db, rma::Rank& self,
                               std::uint64_t n, int max_iters) {
  self.reset_clock();
  self.reset_counters();
  auto adj = build_adjacency(db, self, n, DirFilter::kAll);

  ShardResult<std::uint64_t> res;
  res.values = adj.ids;  // component id starts as own id
  int it = 0;
  for (;;) {
    ++it;
    auto global = gather_global(self, n, res.values);
    bool changed = false;
    for (std::size_t i = 0; i < adj.ids.size(); ++i) {
      std::uint64_t best = res.values[i];
      for (std::uint64_t nb : adj.nbrs[i]) best = std::min(best, global[nb]);
      self.charge_compute(kNsPerEdge * static_cast<double>(adj.nbrs[i].size()));
      if (best < res.values[i]) {
        res.values[i] = best;
        changed = true;
      }
    }
    if (!self.allreduce_or(changed)) break;
    if (max_iters > 0 && it >= max_iters) break;
  }
  finalize(res, self);
  return res;
}

ShardResult<std::uint64_t> cdlp(const std::shared_ptr<Database>& db, rma::Rank& self,
                                std::uint64_t n, int iters) {
  self.reset_clock();
  self.reset_counters();
  auto adj = build_adjacency(db, self, n, DirFilter::kAll);

  ShardResult<std::uint64_t> res;
  res.values = adj.ids;
  std::unordered_map<std::uint64_t, std::uint64_t> freq;
  for (int it = 0; it < iters; ++it) {
    auto global = gather_global(self, n, res.values);
    for (std::size_t i = 0; i < adj.ids.size(); ++i) {
      if (adj.nbrs[i].empty()) continue;
      freq.clear();
      for (std::uint64_t nb : adj.nbrs[i]) ++freq[global[nb]];
      std::uint64_t best = res.values[i];
      std::uint64_t best_count = 0;
      for (const auto& [l, c] : freq) {
        if (c > best_count || (c == best_count && l < best)) {
          best = l;
          best_count = c;
        }
      }
      res.values[i] = best;
      self.charge_compute(kNsPerEdge * static_cast<double>(adj.nbrs[i].size()));
    }
  }
  finalize(res, self);
  return res;
}

ShardResult<double> lcc(const std::shared_ptr<Database>& db, rma::Rank& self,
                        std::uint64_t n) {
  const int P = self.nranks();
  self.reset_clock();
  self.reset_counters();

  // Neighbor sets are fetched through GDI on demand -- including *remote*
  // vertices, which is where the one-sided design earns its keep.
  Transaction txn(db, self, TxnMode::kReadShared, TxnScope::kCollective);
  std::unordered_map<std::uint64_t, std::uint64_t> id_cache;
  auto neighbor_ids = [&](VertexHandle vh) {
    std::vector<std::uint64_t> out;
    auto edges = txn.edges_of(vh, DirFilter::kAll);
    if (!edges.ok()) return out;
    // Resolve all uncached neighbor IDs as one batch of overlapped 8-byte
    // peeks -- no whole-block fetch for one-hop vertices whose holders are
    // only needed if they later join the two-hop set.
    BatchScope scope = txn.batch();
    std::unordered_map<std::uint64_t, Future<std::uint64_t>> peeked;
    for (const auto& e : *edges)
      // contains-guard first: try_emplace would evaluate (and enqueue) the
      // peek even when the key is already present.
      if (!id_cache.contains(e.neighbor.raw()) && !peeked.contains(e.neighbor.raw()))
        peeked.emplace(e.neighbor.raw(), scope.peek_app_id(e.neighbor));
    (void)scope.execute();
    for (const auto& e : *edges) {
      auto it = id_cache.find(e.neighbor.raw());
      std::uint64_t nid;
      if (it != id_cache.end()) {
        nid = it->second;
      } else {
        const auto& fut = peeked.at(e.neighbor.raw());
        nid = fut.ok() ? *fut : kUnreached;
        id_cache.emplace(e.neighbor.raw(), nid);
      }
      if (nid != kUnreached) out.push_back(nid);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  };

  ShardResult<double> res;
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> nbr_cache;
  for (std::uint64_t u = static_cast<std::uint64_t>(self.id()); u < n;
       u += static_cast<std::uint64_t>(P)) {
    double val = 0.0;
    auto vh = txn.find_vertex(u);
    if (vh.ok()) {
      auto nu = neighbor_ids(*vh);
      nu.erase(std::remove(nu.begin(), nu.end(), u), nu.end());
      const std::size_t d = nu.size();
      if (d >= 2) {
        // Batch-translate and prefetch the uncached two-hop vertices before
        // walking them: one DHT multi-lookup + one overlapped holder fetch.
        std::vector<std::uint64_t> need_ids;
        for (std::uint64_t vid_app : nu)
          if (!nbr_cache.contains(vid_app)) need_ids.push_back(vid_app);
        std::unordered_map<std::uint64_t, DPtr> translated;
        if (auto vids = txn.translate_vertex_ids(need_ids); vids.ok()) {
          txn.prefetch_vertices(*vids);
          for (std::size_t j = 0; j < need_ids.size(); ++j)
            translated.emplace(need_ids[j], (*vids)[j]);
        }
        std::uint64_t links2 = 0;
        for (std::uint64_t vid_app : nu) {
          auto it = nbr_cache.find(vid_app);
          if (it == nbr_cache.end()) {
            std::vector<std::uint64_t> nv;
            const auto tit = translated.find(vid_app);
            const DPtr nvid = tit != translated.end() ? tit->second : DPtr{};
            if (!nvid.is_null()) {
              if (auto nvh = txn.associate_vertex(nvid); nvh.ok()) {
                // Stale-DHT guard (find_vertex's app-id check).
                if (auto idr = txn.app_id_of(*nvh); idr.ok() && *idr == vid_app)
                  nv = neighbor_ids(*nvh);
              }
            }
            // Exclude the vertex itself (self-loops do not close triangles).
            nv.erase(std::remove(nv.begin(), nv.end(), vid_app), nv.end());
            it = nbr_cache.emplace(vid_app, std::move(nv)).first;
          }
          for (std::uint64_t w : it->second) {
            if (w != u && std::binary_search(nu.begin(), nu.end(), w)) ++links2;
            self.charge_compute(1.0);
          }
        }
        val = static_cast<double>(links2) / 2.0 /
              (static_cast<double>(d) * static_cast<double>(d - 1) / 2.0);
      }
    }
    res.values.push_back(val);
  }
  (void)txn.commit();
  finalize(res, self);
  return res;
}

}  // namespace gdi::work
