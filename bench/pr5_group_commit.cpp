// PR 5 perf snapshot: the write hot path -- cross-transaction group commit
// (src/gdi/commit_pipeline.*) + shared-cache write-through -- vs the PR 4
// commit path.
//
// Three measurements, all on the xc40 model at P=4:
//
//  * write stream: the partition-affine update stream of
//    work::run_write_stream -- each rank rewrites its own slice of a hot set,
//    one single-update transaction at a time. PR 4 pays one completion fence
//    (flush) per commit; PR 5 defers eligible commits' writeback + unlock
//    round into shared flush epochs, one overlapped flush per epoch. Write
//    intents bypass the shared cache in both modes, so GET/PUT byte counts
//    are *identical* -- the speedup is pure fence amortization, which is the
//    point (the PR 4 edge bench made the same identical-bytes argument).
//
//  * read-after-own-write: the same stream with a read-back transaction per
//    update. PR 4 invalidates the writer's own entry at writeback, so every
//    read-back misses and refetches; PR 5 re-stamps the entry with the
//    committed bytes under the version write_unlock_fetch published, so
//    read-backs hit (`scache_hit` goes from zero to ~every read).
//
//  * update-stream mix (uniform ids via run_oltp, not gated): the same
//    machinery under the paper-shaped driver, where DHT translation and
//    remote ids dilute the commit share -- reported for context.
//
// Emits a paper-style table plus a JSON blob (committed as BENCH_pr5.json).
#include "harness.hpp"

int main() {
  using namespace gdi;
  using namespace gdi::bench;

  print_header("PR 5 -- write hot path: PR 4 commit path vs group commit + write-through",
               "paper Sec. 5.6/6.4 write-side cost model");
  const int P = 4;
  const int scale = bench_scale(11);
  const auto net = rma::NetParams::xc40();

  struct Mode {
    const char* name;
    bool pr5 = false;
  };
  const Mode modes[] = {{"pr4", false}, {"pr5", true}};

  struct StreamRow {
    double qps = 0;
    double flushes_per_txn = 0;
    std::uint64_t bytes_get = 0, bytes_put = 0;
    std::uint64_t scache_hits = 0, scache_misses = 0, restamps = 0;
    std::uint64_t gc_epochs = 0, gc_enrolled = 0;
    double fail = 0;
  };
  StreamRow ws[2];   // write stream, per mode
  StreamRow raw[2];  // read-after-write, per mode
  double mix_qps[2] = {0, 0};

  for (int m = 0; m < 2; ++m) {
    for (const bool read_back : {false, true}) {
      rma::Runtime rt(P, net);
      rt.run([&](rma::Rank& self) {
        SetupOpts o;
        o.scale = scale;
        // Lean holders (single-block for most vertices): the write stream
        // measures the commit protocol, not adjacency-fetch volume -- a row
        // store's hot rows, not a supernode's edge list.
        o.edge_factor = 4;
        o.write_through = modes[m].pr5;
        o.commit_pipeline = modes[m].pr5;
        auto env = setup_db(self, o);
        work::WriteStreamConfig cfg;
        cfg.updates_per_rank = bench_queries(2000);
        cfg.hot_ids = std::min<std::uint64_t>(256, env.n / 2);
        // Hot rows = a hashed subset of the id space, not the low ids (the
        // Kronecker supernodes), per the WriteStreamConfig contract.
        cfg.existing_ids = env.n;
        cfg.ptype = env.ptype_ids[0];
        cfg.read_back = read_back;
        self.reset_counters();
        auto res = work::run_write_stream(env.db, self, cfg);
        auto counters = global_counters(self);
        if (self.id() == 0) {
          StreamRow& row = read_back ? raw[m] : ws[m];
          row.qps = res.throughput_qps;
          row.fail = res.attempted
                         ? static_cast<double>(res.failed) /
                               static_cast<double>(res.attempted)
                         : 0;
          row.flushes_per_txn =
              res.attempted ? static_cast<double>(counters.flushes) /
                                  static_cast<double>(res.attempted)
                            : 0;
          row.bytes_get = counters.bytes_get;
          row.bytes_put = counters.bytes_put;
          row.scache_hits = counters.scache_hits;
          row.scache_misses = counters.scache_misses;
          row.restamps = counters.scache_restamps;
          row.gc_epochs = counters.gc_epochs;
          row.gc_enrolled = counters.gc_enrolled;
        }
      });
    }
    // Context row: the same knobs under the paper-shaped OLTP driver.
    {
      rma::Runtime rt(P, net);
      rt.run([&](rma::Rank& self) {
        SetupOpts o;
        o.scale = scale;
        o.write_through = modes[m].pr5;
        o.commit_pipeline = modes[m].pr5;
        auto env = setup_db(self, o);
        work::OltpConfig cfg;
        cfg.queries_per_rank = bench_queries(2000);
        cfg.existing_ids = env.n;
        cfg.hot_write_ids = std::min<std::uint64_t>(256, env.n / 2);
        cfg.ptype_for_update = env.ptype_ids[0];
        self.reset_counters();
        auto res =
            work::run_oltp(env.db, self, work::OpMix::update_stream(), cfg);
        if (self.id() == 0) mix_qps[m] = res.throughput_qps;
      });
    }
  }

  const double ws_speedup = ws[0].qps > 0 ? ws[1].qps / ws[0].qps : 0;
  const double raw_speedup = raw[0].qps > 0 ? raw[1].qps / raw[0].qps : 0;
  const double mix_speedup = mix_qps[0] > 0 ? mix_qps[1] / mix_qps[0] : 0;
  const double commits_per_epoch =
      ws[1].gc_epochs ? static_cast<double>(ws[1].gc_enrolled) /
                            static_cast<double>(ws[1].gc_epochs)
                      : 0;
  const double raw_hit_rate =
      raw[1].scache_hits + raw[1].scache_misses > 0
          ? static_cast<double>(raw[1].scache_hits) /
                static_cast<double>(raw[1].scache_hits + raw[1].scache_misses)
          : 0;
  const bool bytes_equal =
      ws[0].bytes_get == ws[1].bytes_get && ws[0].bytes_put == ws[1].bytes_put;

  stats::Table table({"shape", "pr4 Mq/s", "pr5 Mq/s", "speedup",
                      "pr4 flush/txn", "pr5 flush/txn", "pr5 scache_hit"});
  table.add_row({"write stream", fmt_mqps(ws[0].qps), fmt_mqps(ws[1].qps),
                 stats::Table::fmt(ws_speedup, 2) + "x",
                 stats::Table::fmt(ws[0].flushes_per_txn, 2),
                 stats::Table::fmt(ws[1].flushes_per_txn, 2),
                 std::to_string(ws[1].scache_hits)});
  table.add_row({"read-after-write", fmt_mqps(raw[0].qps), fmt_mqps(raw[1].qps),
                 stats::Table::fmt(raw_speedup, 2) + "x",
                 stats::Table::fmt(raw[0].flushes_per_txn, 2),
                 stats::Table::fmt(raw[1].flushes_per_txn, 2),
                 std::to_string(raw[1].scache_hits)});
  table.add_row({"update-stream mix", fmt_mqps(mix_qps[0]), fmt_mqps(mix_qps[1]),
                 stats::Table::fmt(mix_speedup, 2) + "x",
                 "-", "-", "-"});
  std::cout << table.to_string();
  std::cout << "write stream GET/PUT bytes " << (bytes_equal ? "EQUAL" : "UNEQUAL")
            << " across modes (get " << ws[0].bytes_get << "/" << ws[1].bytes_get
            << ", put " << ws[0].bytes_put << "/" << ws[1].bytes_put << ")\n"
            << "pr4 read-after-write scache hits: " << raw[0].scache_hits
            << " (invalidate-on-writeback goes cold); pr5 hits: "
            << raw[1].scache_hits << " (restamps " << raw[1].restamps << ")\n"
            << "pr5 group commit: " << ws[1].gc_epochs << " epochs, "
            << stats::Table::fmt(commits_per_epoch, 1) << " commits/epoch\n";

  Record()
      .str("bench", "pr5_group_commit")
      .str("description",
           "write hot path: PR4 flush-per-commit + invalidate-on-writeback vs PR5 "
           "group commit + write-through")
      .str("net", "xc40")
      .num("ranks", P)
      .num("scale", scale)
      .num("updates_per_rank", 2000)
      .num("write_stream_pr4_qps", ws[0].qps, 1)
      .num("write_stream_pr5_qps", ws[1].qps, 1)
      .num("write_stream_speedup", ws_speedup, 2)
      .flag("write_stream_bytes_equal", bytes_equal)
      .num("write_stream_pr4_flushes_per_txn", ws[0].flushes_per_txn, 3)
      .num("write_stream_pr5_flushes_per_txn", ws[1].flushes_per_txn, 3)
      .num("write_stream_commits_per_epoch", commits_per_epoch, 1)
      .num("read_after_write_pr4_qps", raw[0].qps, 1)
      .num("read_after_write_pr5_qps", raw[1].qps, 1)
      .num("read_after_write_speedup", raw_speedup, 2)
      .num("read_after_write_pr4_scache_hits", raw[0].scache_hits)
      .num("read_after_write_pr5_scache_hits", raw[1].scache_hits)
      .num("read_after_write_hit_rate", raw_hit_rate, 4)
      .num("update_stream_mix_pr4_qps", mix_qps[0], 1)
      .num("update_stream_mix_pr5_qps", mix_qps[1], 1)
      .num("update_stream_mix_speedup", mix_speedup, 2)
      .print();
  std::cout << "\nExpected shape: write-stream >= 1.5x at byte-identical GET/PUT\n"
               "(pure fence amortization; acceptance bar), read-after-write hits\n"
               "go zero -> ~all (write-through), mix row smaller but positive\n"
               "(DHT translation and remote ids dilute the commit share).\n";
  return 0;
}
