// PR 3 perf snapshot: the sharded growable DHT's write path.
//
// Two measurements, both on the LogGP cost model (xc40, P=4):
//
//  (a) insert_many vs serial insert. Each rank inserts a disjoint key range
//      into a table provisioned at 1/8 of the keys (so both paths also pay
//      for ~8 shard growths). The serial path charges one full latency chain
//      per key; insert_many pays one overlapped field round plus
//      ceil(k/Q)*max(alpha) per bucket-head CAS round.
//
//  (b) bulk-load-through-growth. A Kronecker graph is bulk loaded into a
//      database whose DHT is provisioned at 1/8 of the resident keys: the
//      load succeeds by publishing shards on demand (the seed behaviour was
//      a kOutOfMemory abort) and reports the end-to-end vertex ingest rate.
//
// Emits a paper-style table plus a JSON blob (committed as BENCH_pr3.json);
// tools/check_bench.py tracks the smoke-mode metrics in CI.
#include "harness.hpp"

int main() {
  using namespace gdi;
  using namespace gdi::bench;

  print_header("PR 3 -- DHT growth + batched one-sided inserts",
               "paper Sec. 5.7 Listing 4, grown elastically");
  const int P = 4;
  const auto net = rma::NetParams::xc40();

  // --- (a) serial insert vs insert_many ------------------------------------
  const std::uint64_t keys_per_rank = bench_queries(4096);
  double serial_ns = 0, batched_ns = 0;
  std::uint64_t grown_shards = 0;
  {
    rma::Runtime rt(P, net);
    rt.run([&](rma::Rank& self) {
      dht::DhtConfig cfg;
      cfg.buckets_per_rank = 512;
      cfg.entries_per_rank = std::max<std::uint64_t>(keys_per_rank / 8, 16);
      cfg.salt = 17;
      cfg.max_shards = 128;
      auto serial = dht::DistributedHashTable::create(self, cfg);
      auto batched = dht::DistributedHashTable::create(self, cfg);
      const auto base = static_cast<std::uint64_t>(self.id()) * keys_per_rank;
      std::vector<std::uint64_t> keys, vals;
      for (std::uint64_t i = 0; i < keys_per_rank; ++i) {
        keys.push_back(base + i);
        vals.push_back(base + i + 1);
      }
      self.barrier();
      self.reset_clock();
      for (std::size_t i = 0; i < keys.size(); ++i)
        if (!serial->insert(self, keys[i], vals[i])) std::abort();
      const double my_serial = self.sim_time_ns();
      const double all_serial = self.allreduce_max(my_serial);
      self.reset_clock();
      auto ok = batched->insert_many(self, keys, vals);
      const double my_batched = self.sim_time_ns();
      for (auto f : ok)
        if (!f) std::abort();
      const double all_batched = self.allreduce_max(my_batched);
      self.barrier();
      if (self.id() == 0) {
        serial_ns = all_serial;
        batched_ns = all_batched;
        grown_shards = batched->shard_count(self);
      }
    });
  }
  const auto total_keys = keys_per_rank * static_cast<std::uint64_t>(P);
  const double serial_per_key = serial_ns / static_cast<double>(keys_per_rank);
  const double batched_per_key = batched_ns / static_cast<double>(keys_per_rank);
  const double speedup = serial_ns / batched_ns;

  // --- (b) bulk load through shard growth ----------------------------------
  const int scale = bench_scale(13);
  double load_ns = 0;
  std::uint64_t load_vertices = 0, load_shards = 0;
  {
    rma::Runtime rt(P, net);
    rt.run([&](rma::Rank& self) {
      gen::LpgConfig g;
      g.scale = scale;
      g.edge_factor = 8;
      g.seed = 42;
      DatabaseConfig c;
      c.block.block_size = 512;
      const auto per_rank =
          g.num_vertices() / static_cast<std::uint64_t>(self.nranks()) + 64;
      c.block.blocks_per_rank = per_rank * 8 + 8192;
      c.index_capacity_per_rank = per_rank * 2;
      // 1/8 provisioning: the load only completes by growing shards.
      c.dht.buckets_per_rank = 512;
      c.dht.entries_per_rank = std::max<std::uint64_t>(per_rank / 8, 16);
      c.dht.max_shards = 64;
      auto db = Database::create(self, c);
      gen::KroneckerGenerator kg(g, {}, {});
      const auto slice = kg.generate_local(self);
      self.barrier();
      self.reset_clock();
      BulkLoader loader(db, self);
      auto stats = loader.load(slice.vertices, slice.edges);
      const double t = self.allreduce_max(self.sim_time_ns());
      if (!stats.ok()) std::abort();
      const auto v = self.allreduce_sum(stats->vertices_loaded);
      self.barrier();
      if (self.id() == 0) {
        load_ns = t;
        load_vertices = v;
        load_shards = db->id_index().shard_count(self);
      }
    });
  }
  const double load_mvps = static_cast<double>(load_vertices) / (load_ns * 1e-3);

  stats::Table table({"measurement", "serial", "batched", "speedup", "shards"});
  table.add_row({"insert ns/key (P=4, xc40)", stats::Table::fmt(serial_per_key, 1),
                 stats::Table::fmt(batched_per_key, 1),
                 stats::Table::fmt(speedup, 2) + "x", std::to_string(grown_shards)});
  table.add_row({"bulk load Mvert/s (1/8 DHT)", "-", stats::Table::fmt(load_mvps, 3),
                 "-", std::to_string(load_shards)});
  std::cout << table.to_string();

  Record rec;
  rec.str("bench", "pr3_dht_growth")
      .str("description",
           "sharded growable DHT: insert_many vs serial insert, bulk load at 1/8 "
           "provisioning")
      .str("net", "xc40")
      .num("ranks", P)
      .num("keys_per_rank", keys_per_rank)
      .num("scale", scale)
      .num("serial_ns_per_key", serial_per_key, 1)
      .num("batched_ns_per_key", batched_per_key, 1)
      .num("insert_many_speedup", speedup, 2)
      .num("insert_keys_total", total_keys)
      .num("insert_shards", grown_shards)
      .num("bulk_vertices", load_vertices)
      .num("bulk_shards", load_shards)
      .num("bulk_load_mvps", load_mvps, 3)
      .print();
  std::cout << "\nExpected shape: insert_many wins by overlapping the per-entry\n"
               "field round and the bucket-head CAS rounds (cost\n"
               "ceil(k/Q)*max(alpha) per round); the bulk load completes despite\n"
               "1/8 provisioning by publishing shards through the directory CAS.\n";
  return 0;
}
