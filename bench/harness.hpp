// Shared helpers for the per-figure benchmark binaries (DESIGN.md section 4).
//
// Every bench constructs its own Runtime per configuration point, loads a
// Kronecker LPG graph through the collective bulk loader, runs the workload,
// and prints a paper-style table: the columns mirror the series of the
// corresponding figure; absolute values come from the LogGP cost model
// (see DESIGN.md section 2) so only *shapes* are comparable to the paper.
#pragma once

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "baseline/rpc_store.hpp"
#include "gdi/gdi.hpp"
#include "generator/kronecker.hpp"
#include "stats/stats.hpp"
#include "workloads/bi.hpp"
#include "workloads/gnn.hpp"
#include "workloads/graph500.hpp"
#include "workloads/olap.hpp"
#include "workloads/oltp.hpp"
#include "workloads/server_oltp.hpp"

namespace gdi::bench {

struct LoadedDb {
  std::shared_ptr<Database> db;
  std::shared_ptr<Index> label_index;  ///< index on label_ids[0] (if any)
  std::vector<std::uint32_t> label_ids;
  std::vector<std::uint32_t> ptype_ids;
  BulkLoadStats load_stats;
  std::uint64_t n = 0;
  std::uint64_t m = 0;
};

struct SetupOpts {
  int scale = 10;
  int edge_factor = 16;
  std::uint32_t num_labels = 20;   ///< paper default: 20 labels
  std::uint32_t num_ptypes = 13;   ///< paper default: 13 property types
  std::uint32_t labels_per_vertex = 2;
  std::uint32_t props_per_vertex = 4;
  double heavy_edge_fraction = 0.0;
  std::uint32_t value_bytes = 8;
  std::size_t block_size = 512;
  std::uint64_t seed = 42;
  bool with_index = true;
  bool batched_reads = true;  ///< nonblocking batch engine on read hot paths
  bool block_cache = true;    ///< per-transaction read-through block cache
  bool shared_cache = true;   ///< shared version-validated holder cache (PR 4)
  /// PR 5 write-path knobs, default-off so the PR 4 benches keep their exact
  /// op-count and baseline semantics; bench_pr5_group_commit switches them on.
  bool write_through = false;   ///< shared-cache write-through at commit
  bool commit_pipeline = false; ///< cross-transaction group commit
  /// PR 6 durability knobs, default-off (no WAL object, byte-identical
  /// traffic); bench_pr6_wal switches them on to price the epoch log.
  bool wal = false;
  std::string wal_dir;
  /// PR 7 multi-tenant front-end knobs, default-off (no scheduler object);
  /// bench_pr7_server switches them on. When `server` is set, the admission
  /// caps are sized generously so open-loop benches measure scheduling, not
  /// transport backpressure (the admission bench lives in tests/).
  bool server = false;
  std::size_t server_read_coalesce = 32;  ///< 1 = eager (per-request txns)
  /// PR 7 shared-cache admission policy (kFifo = historical behaviour) and
  /// an optional byte-budget override (0 = DatabaseConfig default) for the
  /// HTAP scan-resistance comparison.
  cache::ScachePolicy scache_policy = cache::ScachePolicy::kFifo;
  std::size_t shared_cache_bytes = 0;
};

/// BENCH_SMOKE=1 shrinks every bench to a seconds-long CI smoke run: tiny
/// graphs, few queries -- enough to catch scheduler/correctness regressions,
/// not to measure. Wired into setup_db (scale clamp) and the per-bench query
/// counts via bench_queries().
[[nodiscard]] inline bool smoke_mode() {
  static const bool s = std::getenv("BENCH_SMOKE") != nullptr;
  return s;
}
[[nodiscard]] inline int bench_scale(int scale) {
  return smoke_mode() ? std::min(scale, 7) : scale;
}
[[nodiscard]] inline std::uint64_t bench_queries(std::uint64_t q) {
  return smoke_mode() ? std::min<std::uint64_t>(q, 120) : q;
}

/// Collective: create a database, register metadata, generate and bulk load.
inline LoadedDb setup_db(rma::Rank& self, const SetupOpts& opts) {
  SetupOpts o = opts;
  o.scale = bench_scale(o.scale);
  LoadedDb out;
  gen::LpgConfig g;
  g.scale = o.scale;
  g.edge_factor = o.edge_factor;
  g.seed = o.seed;
  g.labels_per_vertex = o.labels_per_vertex;
  g.props_per_vertex = o.props_per_vertex;
  g.heavy_edge_fraction = o.heavy_edge_fraction;
  g.value_bytes = o.value_bytes;
  out.n = g.num_vertices();
  out.m = g.num_edges();

  DatabaseConfig c;
  c.batched_reads = o.batched_reads;
  c.block_cache = o.block_cache;
  c.shared_cache = o.shared_cache;
  c.scache_write_through = o.write_through;
  c.commit_pipeline = o.commit_pipeline;
  c.wal = o.wal;
  c.wal_dir = o.wal_dir;
  c.server = o.server;
  c.server_read_coalesce = o.server_read_coalesce;
  c.server_inflight_per_tenant = 1u << 20;  // hold whole open-loop streams
  c.server_admission_bytes = 1u << 30;
  c.scache_policy = o.scache_policy;
  if (o.shared_cache_bytes != 0) c.shared_cache_bytes = o.shared_cache_bytes;
  c.block.block_size = o.block_size;
  const auto per_rank = out.n / static_cast<std::uint64_t>(self.nranks()) + 64;
  // Generous pool: holders + growth + OLTP inserts.
  c.block.blocks_per_rank =
      per_rank * (2 + (o.edge_factor * 2 * 24 + o.props_per_vertex * (o.value_bytes + 16)) /
                          o.block_size) +
      8192;
  c.dht = gen::recommended_dht_config(g, self.nranks());
  c.index_capacity_per_rank = per_rank * 2 + 4096;
  out.db = Database::create(self, c);

  for (std::uint32_t i = 0; i < o.num_labels; ++i)
    out.label_ids.push_back(*out.db->create_label(self, "Label" + std::to_string(i)));
  for (std::uint32_t i = 0; i < o.num_ptypes; ++i) {
    PropertyType p{.name = "ptype" + std::to_string(i),
                   .dtype = Datatype::kInt64,
                   .mult = Multiplicity::kMultiple,
                   .stype = SizeType::kLimited,
                   .max_size = std::max<std::uint32_t>(o.value_bytes, 8)};
    out.ptype_ids.push_back(*out.db->create_ptype(self, p));
  }
  if (o.with_index && !out.label_ids.empty())
    out.label_index = out.db->create_index(self, IndexDef{{out.label_ids[0]}, {}});

  gen::KroneckerGenerator kg(g, out.label_ids, out.ptype_ids);
  const auto slice = kg.generate_local(self);
  BulkLoader loader(out.db, self);
  auto stats = loader.load(slice.vertices, slice.edges);
  if (stats.ok()) out.load_stats = *stats;
  self.barrier();
  return out;
}

/// Sweep helper: run `body(rank)` on runtimes of each size in `ranks`.
inline void for_each_scale(const std::vector<int>& ranks, const rma::NetParams& net,
                           const std::function<void(rma::Rank&)>& body) {
  for (int P : ranks) {
    rma::Runtime rt(P, net);
    rt.run(body);
  }
}

/// Collective: sum every rank's op counters (all ranks call, all receive).
inline rma::OpCounters global_counters(rma::Rank& self) {
  auto all = self.allgather(self.counters());
  rma::OpCounters sum;
  for (const auto& c : all) sum += c;
  return sum;
}

inline std::string fmt_mqps(double qps) {
  return stats::Table::fmt(qps / 1e6, 3);
}
inline std::string fmt_s(double ns) { return stats::Table::fmt(ns / 1e9, 3); }
inline std::string fmt_ms(double ns) { return stats::Table::fmt(ns / 1e6, 3); }
inline std::string fmt_pct(double f) { return stats::Table::fmt(f * 100.0, 2) + "%"; }

/// A bench's machine-readable result: a flat, ordered map from key to a
/// number, a string or a bool, printed after the table as the `JSON:` blob.
/// tools/check_bench.py gates a metric by reading `record[key]` for each key
/// of the bench's smoke baseline, so a record key is a gate's metric name and
/// gating one more metric is one more key in a BENCH_pr*.json smoke section.
/// This is the only code in bench/ that writes JSON punctuation.
class Record {
 public:
  /// A real number printed fixed-point with `precision` decimals; a
  /// non-finite value prints as null, so the blob always parses.
  Record& num(const std::string& key, double v, int precision) {
    return put(key, std::isfinite(v) ? stats::Table::fmt(v, precision) : "null");
  }
  /// An exact integer.
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Record& num(const std::string& key, T v) {
    return put(key, std::to_string(v));
  }
  Record& str(const std::string& key, const std::string& v) { return put(key, quote(v)); }
  Record& flag(const std::string& key, bool v) { return put(key, v ? "true" : "false"); }

  void print() const {
    std::cout << "\nJSON:\n{\n";
    for (std::size_t i = 0; i < fields_.size(); ++i)
      std::cout << "  " << quote(fields_[i].first) << ": " << fields_[i].second
                << (i + 1 < fields_.size() ? ",\n" : "\n");
    std::cout << "}\n";
  }

 private:
  Record& put(const std::string& key, std::string json) {
    fields_.emplace_back(key, std::move(json));
    return *this;
  }
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char ch : s) {
      if (ch == '"' || ch == '\\') out += '\\';
      out += ch;
    }
    return out + "\"";
  }

  std::vector<std::pair<std::string, std::string>> fields_;  ///< key -> JSON text
};

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::cout << "==============================================================\n"
            << title << "\n"
            << "(reproduces " << paper_ref << "; values from the LogGP cost\n"
            << " model -- compare shapes, not absolutes; see README.md,\n"
            << " \"The network cost model\")\n"
            << "==============================================================\n";
}

}  // namespace gdi::bench
