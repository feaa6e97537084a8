// OLAP graph-analytics workloads over GDI (paper Section 4, Listing 2;
// evaluation Section 6.5): BFS, k-hop, PageRank, CDLP, WCC, LCC.
//
// All algorithms follow the paper's recipe: a *collective transaction* over
// the owner partition that reads graph structure through GDI handles and
// exchanges algorithm state with MPI-style collectives. Algorithm state
// (levels, ranks, component ids) lives in per-rank arrays indexed by
// application vertex ID, which is how Graphalytics-class systems implement
// these kernels; the graph *structure* is always read through the GDI
// storage layer.
//
// Round-robin placement leaves the hubs of a scale-free graph on few ranks,
// so the kernels whose cost follows the edges do not bind work to owners.
// BFS and k-hop allgather each level's frontier edge load, and an
// over-loaded rank hands its heaviest frontier vertices to under-loaded
// ranks, which read those holders one-sidedly; every neighbor is pushed to
// its owner at most once per traversal. PageRank iterates equal contiguous
// slices of the global out-edge list instead of each rank's own out-edges.
//
// Every routine returns this rank's shard of the result (index i holds the
// value of vertex id == rank + i * nranks) plus the simulated runtime.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gdi/gdi.hpp"

namespace gdi::work {

/// Result shard: values for vertices owned by this rank, plus timing.
template <class T>
struct ShardResult {
  std::vector<T> values;      ///< values[i] = vertex (rank + i*P)
  double sim_time_ns = 0;     ///< max over ranks, simulated
  std::uint64_t remote_ops = 0;
};

inline constexpr std::uint64_t kUnreached = ~std::uint64_t{0};

/// Collective BFS from `root` (app id). Traverses all edge directions.
ShardResult<std::uint64_t> bfs(const std::shared_ptr<Database>& db, rma::Rank& self,
                               std::uint64_t n, std::uint64_t root);

/// Vertices within k hops of root (count), collective. An optional edge
/// constraint restricts the traversal (lightweight labels match inline;
/// heavy-edge holders resolve through the batched holder fetch path).
ShardResult<std::uint64_t> k_hop(const std::shared_ptr<Database>& db, rma::Rank& self,
                                 std::uint64_t n, std::uint64_t root, int k,
                                 const Constraint* c = nullptr);

/// PageRank, `iters` synchronous iterations, damping `df` (paper: i=10, 0.85).
ShardResult<double> pagerank(const std::shared_ptr<Database>& db, rma::Rank& self,
                             std::uint64_t n, int iters, double df);

/// Weakly connected components (min-label propagation to convergence).
ShardResult<std::uint64_t> wcc(const std::shared_ptr<Database>& db, rma::Rank& self,
                               std::uint64_t n, int max_iters = 0);

/// Community detection by label propagation, `iters` rounds (paper: i=5).
ShardResult<std::uint64_t> cdlp(const std::shared_ptr<Database>& db, rma::Rank& self,
                                std::uint64_t n, int iters);

/// Local clustering coefficient. Remote neighbor sets are fetched through
/// GDI one-sided reads -- the communication-heavy kernel of Figure 6b.
ShardResult<double> lcc(const std::shared_ptr<Database>& db, rma::Rank& self,
                        std::uint64_t n);

}  // namespace gdi::work
