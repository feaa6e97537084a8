#include "workloads/olap.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "layout/holder.hpp"

namespace gdi::work {
namespace {

constexpr double kNsPerEdge = 2.0;    ///< modeled CPU cost per edge touched
constexpr double kNsPerVertex = 6.0;  ///< modeled CPU cost per vertex touched

using EdgeList = Future<std::vector<EdgeDesc>>;

std::uint64_t owner_index(std::uint64_t id, int P) {
  return id / static_cast<std::uint64_t>(P);
}

/// How many of the ids [0, n) rank r owns under round-robin placement.
std::uint64_t owned_count(std::uint64_t n, int r, int P) {
  const auto ur = static_cast<std::uint64_t>(r);
  return n > ur ? (n - 1 - ur) / static_cast<std::uint64_t>(P) + 1 : 0;
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

/// Collective. Stage 1 finds every local vertex, one BatchScope::execute per
/// chunk (DHT multi-lookup + overlapped holder fetch + stale-DHT
/// validation), which also maps each local holder's DPtr to its app id.
/// Stage 2 walks the edge lists. A neighbor on this rank resolves from that
/// map; the distinct remote neighbors go to their owners in one alltoallv and
/// their ids come back in a second, so no neighbor costs an RMA peek.
LocalAdjacency build_adjacency(const std::shared_ptr<Database>& db, rma::Rank& self,
                               std::uint64_t n, DirFilter f) {
  LocalAdjacency adj;
  const int P = self.nranks();
  const auto me = static_cast<std::uint32_t>(self.id());
  Transaction txn(db, self, TxnMode::kReadShared, TxnScope::kCollective);
  for (std::uint64_t v = me; v < n; v += static_cast<std::uint64_t>(P)) adj.ids.push_back(v);
  adj.nbrs.resize(adj.ids.size());

  std::vector<Future<VertexHandle>> handles;
  handles.reserve(adj.ids.size());
  for (std::size_t base = 0; base < adj.ids.size(); base += kFrontierChunk) {
    const std::size_t end = std::min(base + kFrontierChunk, adj.ids.size());
    BatchScope finds = txn.batch();
    for (std::size_t j = base; j < end; ++j) handles.push_back(finds.find(adj.ids[j]));
    if (is_transaction_critical(finds.execute())) break;
  }
  std::unordered_map<std::uint64_t, std::uint64_t> id_of;  // DPtr raw -> app id
  for (std::size_t j = 0; j < handles.size(); ++j)
    if (handles[j].ok()) id_of.emplace(handles[j]->vid.raw(), adj.ids[j]);
  // A DPtr of this rank that no find produced (a stale record) falls back to
  // a local peek, as the neighbor's owner would answer it.
  auto local_id = [&](std::uint64_t raw) {
    if (auto it = id_of.find(raw); it != id_of.end()) return it->second;
    auto idr = txn.peek_app_id(DPtr{raw});
    return id_of.emplace(raw, idr.ok() ? *idr : kUnreached).first->second;
  };

  std::vector<std::vector<DPtr>> rows(handles.size());
  std::vector<std::vector<std::uint64_t>> ask(static_cast<std::size_t>(P));
  std::unordered_map<std::uint64_t, std::uint64_t> remote_id;  // DPtr raw -> app id
  for (std::size_t j = 0; j < handles.size(); ++j) {
    if (!handles[j].ok()) continue;
    auto edges = txn.edges_of(*handles[j], f);
    if (!edges.ok()) continue;
    rows[j].reserve(edges->size());
    for (const auto& e : *edges) {
      rows[j].push_back(e.neighbor);
      if (e.neighbor.rank() != me && remote_id.emplace(e.neighbor.raw(), kUnreached).second)
        ask[e.neighbor.rank()].push_back(e.neighbor.raw());
      self.charge_compute(kNsPerEdge);
    }
    self.charge_compute(kNsPerVertex);
  }
  const auto asks = self.alltoallv(ask);
  std::vector<std::vector<std::uint64_t>> answers(static_cast<std::size_t>(P));
  for (std::size_t s = 0; s < asks.size(); ++s)
    for (std::uint64_t raw : asks[s]) answers[s].push_back(local_id(raw));
  const auto got = self.alltoallv(answers);
  for (std::size_t d = 0; d < ask.size(); ++d)
    for (std::size_t k = 0; k < ask[d].size(); ++k) remote_id[ask[d][k]] = got[d][k];

  for (std::size_t j = 0; j < rows.size(); ++j) {
    auto& out = adj.nbrs[j];
    out.reserve(rows[j].size());
    for (DPtr nb : rows[j]) {
      const std::uint64_t nid =
          nb.rank() == me ? local_id(nb.raw()) : remote_id.at(nb.raw());
      if (nid != kUnreached) out.push_back(nid);
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

/// Edge lists of `vids` (all directions, filtered by `c`), resolved by one
/// BatchScope::execute; a vid on another rank is read one-sidedly.
std::vector<EdgeList> edge_lists(Transaction& txn, std::span<const DPtr> vids,
                                 const Constraint* c) {
  BatchScope scope = txn.batch();
  std::vector<EdgeList> out;
  out.reserve(vids.size());
  for (DPtr v : vids) out.push_back(scope.edges_of(v, DirFilter::kAll, c));
  (void)scope.execute();
  return out;
}

/// Modeled cost of scanning one edge record whose holder lives on another
/// rank, in local scans (kNsPerEdge): the scan itself, the record's bytes on
/// the wire, and the fetch latency spread over the NIC queue and the records
/// one block carries. About 2.6 on xc40 with 512-byte blocks.
double remote_edge_weight(const rma::NetParams& p, std::size_t block_size) {
  constexpr auto kRec = static_cast<double>(layout::VertexView::kEdgeRecSize);
  const double recs_per_block = static_cast<double>(block_size) / kRec;
  const double alpha =
      p.nic_queue_depth == 0
          ? 0.0
          : p.alpha_remote_ns / (static_cast<double>(p.nic_queue_depth) * recs_per_block);
  return (kNsPerEdge + p.beta_ns_per_byte * kRec + alpha) / kNsPerEdge;
}

/// plan[r][q]: edge records rank r hands to rank q this level. Every rank
/// computes the same plan from the allgathered loads. A handed-off record
/// costs its scanner `w` local scans, so the plan lowers the over-loaded
/// ranks to the level T at which what they shed fills the under-loaded ones:
/// sum_r max(0, L_r - T) = sum_q max(0, T - L_q) / w. An empty plan means
/// the hand-off would not save its own exchange.
std::vector<std::vector<double>> handoff_plan(const std::vector<std::uint64_t>& load,
                                              double w, double exchange_ns) {
  const std::size_t P = load.size();
  const auto [lo_it, hi_it] = std::minmax_element(load.begin(), load.end());
  double lo = static_cast<double>(*lo_it), hi = static_cast<double>(*hi_it);
  const double top = hi;
  for (int it = 0; it < 64; ++it) {
    const double t = (lo + hi) / 2;
    double surplus = 0;
    for (auto l : load) {
      const double d = static_cast<double>(l) - t;
      surplus += d > 0 ? d : d / w;
    }
    (surplus > 0 ? lo : hi) = t;
  }
  if ((top - hi) * kNsPerEdge <= exchange_ns) return {};
  std::vector<std::vector<double>> plan(P, std::vector<double>(P, 0.0));
  std::size_t q = 0;
  double room = 0;  // records rank q can still take
  for (std::size_t r = 0; r < P; ++r) {
    double give = static_cast<double>(load[r]) - hi;
    while (give > 0) {
      while (room <= 0 && q < P) {
        room = (hi - static_cast<double>(load[q])) / w;
        if (room <= 0) ++q;
      }
      if (q == P) break;
      const double x = std::min(give, room);
      plan[r][q] += x;
      give -= x;
      room -= x;
      if (room <= 0) ++q;
    }
  }
  return plan;
}

/// Frontier entries (indices into `deg`) to hand to each rank under
/// `quota` (this rank's plan row), heaviest first: a vertex goes to the rank
/// with the most quota left if that quota covers at least half its records,
/// the point from which moving it leaves that rank nearer its quota.
std::vector<std::vector<std::size_t>> pick_handoffs(const std::vector<std::uint64_t>& deg,
                                                    std::vector<double> quota) {
  std::vector<std::size_t> order(deg.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return deg[a] > deg[b]; });
  std::vector<std::vector<std::size_t>> out(quota.size());
  for (std::size_t i : order) {
    const auto q = static_cast<std::size_t>(
        std::max_element(quota.begin(), quota.end()) - quota.begin());
    const auto d = static_cast<double>(deg[i]);
    if (quota[q] <= 0) break;
    if (d == 0 || quota[q] < d / 2) continue;
    quota[q] -= d;
    out[q].push_back(i);
  }
  return out;
}

/// Collective level-synchronous top-down traversal from `root` over all edge
/// directions (filtered by `c`), shared by bfs and k_hop. `level` is this
/// rank's shard of the per-vertex depth (kUnreached until reached); the walk
/// stops after `max_depth` levels or when no frontier has an edge left.
///
/// Per level: each rank reads its frontier's edge lists and the ranks
/// allgather their edge loads. An over-loaded rank hands its heaviest
/// frontier vertices to under-loaded ranks (handoff_plan), which read those
/// holders one-sidedly and scan them. A scan pushes each neighbor DPtr to its
/// owner at most once per traversal and keeps the neighbors its own rank
/// owns off the exchange; owners read the fresh arrivals' holders in one
/// batch, which makes them the next frontier's block-cache hits.
void traverse(const std::shared_ptr<Database>& db, rma::Rank& self, std::uint64_t root,
              std::uint64_t max_depth, const Constraint* c,
              std::vector<std::uint64_t>& level) {
  const int P = self.nranks();
  const auto me = static_cast<std::uint32_t>(self.id());
  const double w = remote_edge_weight(self.net(), db->blocks().block_size());
  const double exchange_ns =
      self.net().alpha_collective_ns * self.runtime().collective_stages();
  Transaction txn(db, self, TxnMode::kReadShared, TxnScope::kCollective);
  // DPtrs this rank has pushed to their owner or, for its own vertices,
  // reached: each neighbor crosses the exchange at most once.
  std::unordered_set<std::uint64_t> visited;
  std::vector<DPtr> frontier;
  if (db->owner_rank(root) == me) {
    if (auto vid = txn.translate_vertex_id(root); vid.ok()) {
      level[owner_index(root, P)] = 0;
      frontier.push_back(*vid);
      visited.insert(vid->raw());
    }
  }
  for (std::uint64_t depth = 1; depth <= max_depth; ++depth) {
    auto own = edge_lists(txn, frontier, c);
    std::vector<std::uint64_t> deg(own.size(), 0);
    std::uint64_t load = 0;
    for (std::size_t i = 0; i < own.size(); ++i) {
      if (own[i].ok()) deg[i] = own[i]->size();
      load += deg[i];
    }
    const auto loads = self.allgather(load);
    std::uint64_t total = 0;
    for (auto l : loads) total += l;
    if (total == 0) break;

    std::vector<EdgeList> delegated;
    const auto plan = handoff_plan(loads, w, exchange_ns);
    if (!plan.empty()) {
      std::vector<std::vector<std::uint64_t>> give(static_cast<std::size_t>(P));
      const auto picks = pick_handoffs(deg, plan[me]);
      for (std::size_t q = 0; q < picks.size(); ++q)
        for (std::size_t i : picks[q]) {
          give[q].push_back(frontier[i].raw());
          own[i] = EdgeList{};  // its scanner reads the holder itself
        }
      std::vector<DPtr> theirs;
      for (const auto& chunk : self.alltoallv(give))
        for (std::uint64_t raw : chunk) theirs.push_back(DPtr{raw});
      delegated = edge_lists(txn, theirs, c);
    }

    std::vector<std::vector<std::uint64_t>> sends(static_cast<std::size_t>(P));
    std::vector<DPtr> fresh;
    auto scan = [&](const EdgeList& edges) {
      if (!edges.ok()) return;
      for (const auto& e : *edges) {
        self.charge_compute(kNsPerEdge);
        if (!visited.insert(e.neighbor.raw()).second) continue;
        if (e.neighbor.rank() == me) fresh.push_back(e.neighbor);
        else sends[e.neighbor.rank()].push_back(e.neighbor.raw());
      }
    };
    for (const auto& edges : own) scan(edges);
    for (const auto& edges : delegated) scan(edges);
    for (const auto& chunk : self.alltoallv(sends))
      for (std::uint64_t raw : chunk)
        if (visited.insert(raw).second) fresh.push_back(DPtr{raw});

    frontier.clear();
    txn.prefetch_vertices(fresh);
    for (const DPtr nd : fresh) {
      auto idr = txn.peek_app_id(nd);  // local read: nd lives on this rank
      if (!idr.ok()) continue;
      const std::uint64_t idx = owner_index(*idr, P);
      if (idx < level.size() && level[idx] == kUnreached) {
        level[idx] = depth;
        frontier.push_back(nd);
      }
      self.charge_compute(kNsPerVertex);
    }
  }
  (void)txn.commit();
}

}  // namespace

ShardResult<std::uint64_t> bfs(const std::shared_ptr<Database>& db, rma::Rank& self,
                               std::uint64_t n, std::uint64_t root) {
  self.reset_clock();
  self.reset_counters();
  ShardResult<std::uint64_t> res;
  res.values.assign(owned_count(n, self.id(), self.nranks()), kUnreached);
  traverse(db, self, root, kUnreached, nullptr, res.values);
  finalize(res, self);
  return res;
}

ShardResult<std::uint64_t> k_hop(const std::shared_ptr<Database>& db, rma::Rank& self,
                                 std::uint64_t n, std::uint64_t root, int k,
                                 const Constraint* c) {
  self.reset_clock();
  self.reset_counters();
  std::vector<std::uint64_t> level(owned_count(n, self.id(), self.nranks()), kUnreached);
  traverse(db, self, root, static_cast<std::uint64_t>(std::max(k, 0)), c, level);
  std::uint64_t local = 0;
  for (auto l : level)
    if (l != kUnreached) ++local;
  ShardResult<std::uint64_t> res;
  res.values.assign(1, self.allreduce_sum(local));
  finalize(res, self);
  return res;
}

ShardResult<double> pagerank(const std::shared_ptr<Database>& db, rma::Rank& self,
                             std::uint64_t n, int iters, double df) {
  const int P = self.nranks();
  const auto me = static_cast<std::size_t>(self.id());
  self.reset_clock();
  self.reset_counters();
  // Structure snapshot: directed out-adjacency read through GDI.
  auto adj = build_adjacency(db, self, n, DirFilter::kOut);

  // The global out-edge list (ranks in order, each rank's vertices in id
  // order) is cut into P equal contiguous slices, so no rank's edge loop is
  // longer than E/P however skewed the out-degrees are. One alltoallv moves
  // each (source slot, target) pair to the rank that iterates its slice.
  // A slice's sources are a contiguous run of the list, so each iteration a
  // rank sends every slice one chunk: its dangling mass, then the shares
  // (rank / out-degree) of its sources in that slice, one per slot.
  struct Arc {
    std::uint32_t slot;  ///< the source's share in its owner's chunk
    std::uint32_t dst;   ///< target app id (a dense n-vector bounds n anyway)
  };
  assert(n <= std::numeric_limits<std::uint32_t>::max());
  std::uint64_t mine = 0;
  for (const auto& nb : adj.nbrs) mine += nb.size();
  const auto edges_per_rank = self.allgather(mine);
  std::uint64_t next = 0, total = 0;
  for (std::size_t r = 0; r < edges_per_rank.size(); ++r) {
    if (r < me) next += edges_per_rank[r];
    total += edges_per_rank[r];
  }
  std::vector<std::vector<std::size_t>> sources(static_cast<std::size_t>(P));
  std::vector<std::vector<Arc>> route(static_cast<std::size_t>(P));
  for (std::size_t i = 0; i < adj.nbrs.size(); ++i)
    for (std::uint64_t nb : adj.nbrs[i]) {
      const std::size_t s = next++ * static_cast<std::uint64_t>(P) / total;
      if (sources[s].empty() || sources[s].back() != i) sources[s].push_back(i);
      route[s].push_back({static_cast<std::uint32_t>(sources[s].size()),
                          static_cast<std::uint32_t>(nb)});
    }
  const auto slice = self.alltoallv(route);  // slice[r]: the arcs rank r sent
  std::size_t arcs = 0;
  for (const auto& chunk : slice) arcs += chunk.size();

  ShardResult<double> res;
  res.values.assign(adj.ids.size(), 1.0 / static_cast<double>(n));
  std::vector<std::vector<double>> chunks(static_cast<std::size_t>(P));
  std::vector<double> acc(n);
  for (int it = 0; it < iters; ++it) {
    double local_dangling = 0.0;
    for (std::size_t i = 0; i < adj.ids.size(); ++i)
      if (adj.nbrs[i].empty()) local_dangling += res.values[i];
    for (std::size_t s = 0; s < chunks.size(); ++s) {
      chunks[s].assign(1, local_dangling);
      for (std::size_t i : sources[s])
        chunks[s].push_back(res.values[i] / static_cast<double>(adj.nbrs[i].size()));
    }
    const auto shares = self.alltoallv(chunks);
    double dangling = 0.0;
    for (const auto& chunk : shares) dangling += chunk[0];

    std::fill(acc.begin(), acc.end(), 0.0);
    for (std::size_t r = 0; r < slice.size(); ++r)
      for (const Arc& a : slice[r]) acc[a.dst] += shares[r][a.slot];
    self.charge_compute(kNsPerEdge * static_cast<double>(arcs));
    auto global_acc = self.allreduce(std::span<const double>(acc),
                                     [](double a, double b) { return a + b; });
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
