#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

namespace perfbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  const auto n = v.size();
  auto k = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  k = std::clamp<std::size_t>(k, 1, n) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

SelfTimes self_times(const std::vector<Span>& spans) {
  SelfTimes st;
  st.wall_s.resize(spans.size());
  st.sim_ns.resize(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    st.wall_s[i] = spans[i].w1 - spans[i].w0;
    st.sim_ns[i] = spans[i].s1 - spans[i].s0;
  }
  for (const auto& s : spans) {
    if (s.parent < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    st.wall_s[p] -= s.w1 - s.w0;
    st.sim_ns[p] -= s.s1 - s.s0;
  }
  return st;
}

void collect_span(const std::vector<Span>& spans, const SelfTimes& self,
                  const char* name, SpanStats* out) {
  const std::string want(name);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (want != spans[i].name) continue;
    out->sim_us.push_back(self.sim_ns[i] / 1e3);
    out->wall_us.push_back(self.wall_s[i] * 1e6);
    for (std::size_t k = 0; k < out->ctr.size(); ++k) out->ctr[k] += spans[i].ctr[k];
  }
}

void SpanStats::merge(const SpanStats& o) {
  sim_us.insert(sim_us.end(), o.sim_us.begin(), o.sim_us.end());
  wall_us.insert(wall_us.end(), o.wall_us.begin(), o.wall_us.end());
  for (std::size_t k = 0; k < ctr.size(); ++k) ctr[k] += o.ctr[k];
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream f(path, std::ios::trunc);
  f << "name,req,rank,parent,wall_start_s,wall_end_s,sim_start_ns,sim_end_ns,"
       "remote_ops,atomics,bytes_get,dht_probe_rounds\n";
  char line[320];
  for (const auto& s : spans) {
    std::snprintf(line, sizeof(line), "%s,%llu,%d,%d,%.9f,%.9f,%.1f,%.1f,%llu,%llu,%llu,%llu\n",
                  s.name, static_cast<unsigned long long>(s.req), s.rank, s.parent, s.w0, s.w1,
                  s.s0, s.s1, static_cast<unsigned long long>(s.ctr[0]),
                  static_cast<unsigned long long>(s.ctr[1]),
                  static_cast<unsigned long long>(s.ctr[2]),
                  static_cast<unsigned long long>(s.ctr[3]));
    f << line;
  }
}

void Report::metric(const std::string& name, double value, const std::string& unit,
                    const std::string& clock) {
  std::printf("metric %-36s %16.6f %-6s clock=%s\n", name.c_str(), value, unit.c_str(),
              clock.c_str());
  if (!std::isfinite(value)) fail("metric " + name + " is not finite");
  metrics_.push_back({name, value, unit});
}

void Report::info(const std::string& name, double value, const std::string& unit,
                  const std::string& clock) {
  std::printf("info   %-36s %16.6f %-6s clock=%s\n", name.c_str(), value, unit.c_str(),
              clock.c_str());
}

void Report::fail(const std::string& why) {
  std::printf("CHECK FAILED: %s\n", why.c_str());
  correct_ = false;
}

int Report::finish(std::uint64_t attempted, std::uint64_t failed) const {
  std::ostringstream o;
  o.precision(10);
  o << "{\"correct\": " << (correct_ ? "true" : "false")
    << ", \"attempted\": " << std::max<std::uint64_t>(attempted, 1)
    << ", \"failed\": " << (correct_ ? failed : std::max<std::uint64_t>(attempted, 1))
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i) o << ", ";
    o << '"' << metrics_[i].name << "\": {\"value\": " << metrics_[i].value
      << ", \"unit\": \"" << metrics_[i].unit << "\"}";
  }
  o << "}}";
  std::cout << o.str() << std::endl;
  return correct_ ? 0 : 1;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void report_measured(bool trace, const Measured& m, Report& rep) {
  auto ratio = [](double x, double y) { return y > 0 ? x / y : 0.0; };
  // Untraced units: simulated throughput and wall seconds; traced units:
  // wall seconds (for the tracing overhead).
  std::vector<double> sim_u, wall_u, wall_t;
  for (std::size_t i = 0; i < m.unit_traced.size(); ++i) {
    if (m.unit_traced[i]) {
      wall_t.push_back(m.unit_wall_s[i]);
    } else {
      sim_u.push_back(m.ops_per_unit / m.unit_sim_s[i] / 1e3);
      wall_u.push_back(m.unit_wall_s[i]);
    }
  }
  if (!trace) {
    // Wall throughput follows the host (CPU steal, and real fsyncs on the
    // checkout's disk for the WAL), so it is printed with its range for
    // reading but is not one of the gated metrics.
    if (!wall_u.empty()) {
      rep.info("unit_wall_s.min", *std::min_element(wall_u.begin(), wall_u.end()), "s", "wall");
      rep.info("unit_wall_s.max", *std::max_element(wall_u.begin(), wall_u.end()), "s", "wall");
    }
    rep.info("wall_kops", m.ops_per_unit / median(wall_u) / 1e3, "kop/s", "wall");
    rep.metric("setup_s", median(m.setup_s), "s", "wall");
    rep.metric("rss_mb", peak_rss_mb(), "MB", "none");
    rep.metric("sim_kops", median(sim_u), "kop/s", "sim");
    rep.metric("op_sim_p50_us", percentile(m.op_sim_ns, 0.5) / 1e3, "us", "sim");
    rep.metric("op_sim_p99_us", percentile(m.op_sim_ns, 0.99) / 1e3, "us", "sim");
    return;
  }
  rep.info("unit_wall_s.untraced", median(wall_u), "s", "wall");
  rep.info("unit_wall_s.traced", median(wall_t), "s", "wall");
  rep.metric("trace.wall_overhead_pct", (median(wall_t) / median(wall_u) - 1) * 100, "%", "wall");
  const auto& c = m.ctr;
  const double kops = m.ops / 1e3;
  rep.metric("rma.remote_ops_per_op", ratio(c.remote_ops, m.ops), "ops", "count");
  rep.metric("rma.atomics_per_op", ratio(c.atomics, m.ops), "ops", "count");
  rep.metric("rma.flushes_per_op", ratio(c.flushes, m.ops), "ops", "count");
  rep.metric("rma.bytes_get_per_op", ratio(c.bytes_get, m.ops), "B", "count");
  rep.metric("rma.ops_per_batch", ratio(c.nb_gets + c.nb_puts + c.nb_atomics, c.batches), "ops",
             "count");
  rep.metric("rma.collectives_per_op", ratio(c.collectives, m.ops), "count", "count");
  rep.metric("block.blocks_in_use_load", static_cast<double>(m.blocks_load), "blocks", "count");
  rep.metric("block.blocks_in_use_end", static_cast<double>(m.blocks_end), "blocks", "count");
  rep.metric("block.conflict_aborts_per_kop", ratio(m.conflicts, kops), "count", "count");
  rep.metric("layout.degree_cap_refusals_per_kop", ratio(m.cap_refusals, kops), "count", "count");
  rep.metric("layout.edges_skipped", static_cast<double>(m.edges_skipped), "records", "count");
  rep.metric("dht.probe_rounds_per_op", ratio(c.dht_probe_rounds, m.ops), "count", "count");
  rep.metric("dht.xlate_memo_hit_rate", ratio(c.xlate_hits, c.xlate_hits + c.xlate_fallbacks),
             "ratio", "count");
  rep.metric("cache.scache_hit_rate", ratio(c.scache_hits, c.scache_hits + c.scache_misses),
             "ratio", "count");
  rep.metric("cache.scache_invalidations_per_kop", ratio(c.scache_invalidations, kops), "count",
             "count");
  rep.metric("cache.scache_restamps_per_kop", ratio(c.scache_restamps, kops), "count", "count");
  rep.metric("cache.txn_cache_hit_rate", ratio(c.cache_hits, c.cache_hits + c.cache_misses),
             "ratio", "count");
  rep.metric("gdi.read.sim_us_p50", percentile(m.read.sim_us, 0.5), "us", "sim");
  rep.metric("gdi.read.sim_us_p99", percentile(m.read.sim_us, 0.99), "us", "sim");
  rep.metric("gdi.read.wall_us_p50", percentile(m.read.wall_us, 0.5), "us", "wall");
  rep.metric("gdi.read.remote_ops_per_call",
             ratio(static_cast<double>(m.read.ctr[0]), static_cast<double>(m.read.sim_us.size())),
             "ops", "count");
  rep.metric("gdi.commits_per_epoch", ratio(c.gc_enrolled, c.gc_epochs), "count", "count");
  rep.metric("gdi.bulk_load.wall_s", median(m.load_wall_s), "s", "wall");
  rep.metric("gdi.bulk_load.sim_ms", median(m.load_sim_ms), "ms", "sim");
  rep.metric("generator.wall_s", median(m.gen_wall_s), "s", "wall");
  rep.metric("wal.appends_per_kop", ratio(c.wal_appends, kops), "count", "count");
  rep.metric("wal.appends_per_fsync", ratio(c.wal_appends, c.wal_fsyncs), "count", "count");
  rep.metric("wal.bytes_per_append", ratio(static_cast<double>(m.wal_bytes), c.wal_appends), "B",
             "count");
  rep.metric("wal.io_errors", static_cast<double>(m.wal_io_errors), "count", "count");
}

gen::LpgConfig graph_config(std::uint64_t seed) {
  gen::LpgConfig g;
  g.scale = 15;
  g.edge_factor = 16;
  g.seed = seed;
  return g;
}

DatabaseConfig production_config(const gen::LpgConfig& g, int nranks,
                                 const std::string& wal_dir, std::uint64_t blocks_per_vertex) {
  DatabaseConfig c;
  c.batched_reads = true;
  c.block_cache = true;
  c.shared_cache = true;
  c.scache_write_through = true;
  c.commit_pipeline = true;
  c.wal = true;
  c.wal_dir = wal_dir;
  c.block.block_size = 512;
  const std::uint64_t per_rank = g.num_vertices() / static_cast<std::uint64_t>(nranks) + 64;
  c.block.blocks_per_rank = per_rank * blocks_per_vertex;
  c.dht = gen::recommended_dht_config(g, nranks);
  c.index_capacity_per_rank = per_rank * 4 + 4096;
  return c;
}

Loaded setup_graph(rma::Rank& self, const gen::LpgConfig& g, const DatabaseConfig& cfg) {
  Loaded out;
  self.barrier();
  const double t0 = wall_s();
  out.db = Database::create(self, cfg);
  for (std::uint32_t i = 0; i < 20; ++i)
    out.label_ids.push_back(*out.db->create_label(self, "Label" + std::to_string(i)));
  for (std::uint32_t i = 0; i < 13; ++i) {
    PropertyType p{.name = "ptype" + std::to_string(i),
                   .dtype = Datatype::kInt64,
                   .mult = Multiplicity::kMultiple,
                   .stype = SizeType::kLimited,
                   .max_size = 8};
    out.ptype_ids.push_back(*out.db->create_ptype(self, p));
  }
  (void)out.db->create_index(self, IndexDef{{out.label_ids[0]}, {}});

  const double g0 = wall_s();
  gen::KroneckerGenerator kg(g, out.label_ids, out.ptype_ids);
  const auto slice = kg.generate_local(self);
  out.gen_wall_s = wall_s() - g0;
  const double l0 = wall_s();
  const double s0 = self.sim_time_ns();
  BulkLoader loader(out.db, self);
  auto stats = loader.load(slice.vertices, slice.edges);
  out.load_sim_ns = self.sim_time_ns() - s0;
  out.load_wall_s = wall_s() - l0;
  if (stats.ok()) out.stats = *stats;
  // Every rank learns whether every rank loaded before any work starts.
  out.ok = self.allreduce_min<int>(stats.ok() ? 1 : 0) == 1;
  out.load_sim_ns = self.allreduce_max(out.load_sim_ns);
  out.setup_wall_s = wall_s() - t0;
  return out;
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir, ec))
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  return total;
}

}  // namespace perfbench

