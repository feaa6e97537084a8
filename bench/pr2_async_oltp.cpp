// PR 2 perf snapshot: the async-first transaction API on the OLTP read path.
//
// Same graph, mixes, and query streams as the Figure 4a harness; the only
// variable is OltpConfig::read_batch. read_batch=1 is PR 1's shape (one
// transaction and one serial network round-trip chain per point read);
// read_batch=32 is the async-first shape (consecutive independent point reads
// share one kRead transaction whose BatchScope::execute batches the DHT
// translation, overlaps the read-lock CAS rounds, and fetches all holder
// blocks in one nonblocking batch). Write transactions additionally ride the
// commit-time put_nb writeback in both configurations.
//
// Emits a paper-style table plus a JSON blob (committed as BENCH_pr2.json)
// recording the read-path win.
#include "harness.hpp"

int main() {
  using namespace gdi;
  using namespace gdi::bench;

  print_header("PR 2 -- OLTP read path: serial transactions vs BatchScope",
               "paper Fig. 4a harness");
  const int P = 4;
  const int scale = bench_scale(11);
  const auto net = rma::NetParams::xc40();

  struct Row {
    std::string mix;
    double serial_qps = 0;
    double batched_qps = 0;
    double serial_fail = 0;
    double batched_fail = 0;
    std::uint64_t serial_flushes = 0;
    std::uint64_t batched_flushes = 0;
    std::uint64_t batched_batches = 0;
    std::uint64_t batched_max_depth = 0;
  };
  std::vector<Row> rows;

  for (const auto& mix : {work::OpMix::read_mostly(), work::OpMix::read_intensive(),
                          work::OpMix::linkbench()}) {
    Row row;
    row.mix = mix.name;
    for (const std::uint32_t read_batch : {1u, 32u}) {
      rma::Runtime rt(P, net);
      rt.run([&](rma::Rank& self) {
        SetupOpts o;
        o.scale = scale;
        auto env = setup_db(self, o);
        work::OltpConfig cfg;
        cfg.queries_per_rank = bench_queries(2000);
        cfg.existing_ids = env.n;
        cfg.label_for_new = env.label_ids[0];
        cfg.ptype_for_update = env.ptype_ids[0];
        cfg.read_batch = read_batch;
        self.reset_counters();
        auto res = work::run_oltp(env.db, self, mix, cfg);
        auto counters = global_counters(self);
        if (self.id() == 0) {
          if (read_batch == 1) {
            row.serial_qps = res.throughput_qps;
            row.serial_fail = res.failed_fraction();
            row.serial_flushes = counters.flushes;
          } else {
            row.batched_qps = res.throughput_qps;
            row.batched_fail = res.failed_fraction();
            row.batched_flushes = counters.flushes;
            row.batched_batches = counters.batches;
            row.batched_max_depth = counters.max_batch_ops;
          }
        }
      });
    }
    rows.push_back(row);
  }

  stats::Table table({"mix", "serial Mq/s", "batched Mq/s", "speedup", "serial fail",
                      "batched fail", "flushes s/b"});
  for (const auto& r : rows) {
    table.add_row({r.mix, fmt_mqps(r.serial_qps), fmt_mqps(r.batched_qps),
                   stats::Table::fmt(r.batched_qps / r.serial_qps, 2) + "x",
                   fmt_pct(r.serial_fail), fmt_pct(r.batched_fail),
                   std::to_string(r.serial_flushes) + "/" +
                       std::to_string(r.batched_flushes)});
  }
  std::cout << table.to_string();

  Record rec;
  rec.str("bench", "pr2_async_oltp")
      .str("description",
           "OLTP point reads: serial txn-per-query (PR1) vs BatchScope frontier "
           "groups (read_batch=32)")
      .str("net", "xc40")
      .num("ranks", P)
      .num("scale", scale)
      .num("queries_per_rank", 2000);
  for (const auto& r : rows) {
    const std::string m = r.mix + "/";
    rec.num(m + "serial_qps", r.serial_qps, 1)
        .num(m + "batched_qps", r.batched_qps, 1)
        .num(m + "speedup", r.batched_qps / r.serial_qps, 2)
        .num(m + "serial_failed", r.serial_fail, 4)
        .num(m + "batched_failed", r.batched_fail, 4)
        .num(m + "serial_flushes", r.serial_flushes)
        .num(m + "batched_flushes", r.batched_flushes)
        .num(m + "batched_nb_batches", r.batched_batches)
        .num(m + "batched_max_batch_depth", r.batched_max_depth);
  }
  rec.print();
  std::cout << "\nExpected shape: read-heavy mixes gain the most (RM > RI > LB).\n"
               "Each batched flush is an overlapped completion point amortizing\n"
               "up to read_batch lookups/locks/fetches (see max_batch_depth);\n"
               "serial reads instead pay one full latency chain per query.\n";
  return 0;
}
