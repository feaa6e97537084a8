// PR 6 perf snapshot: the price of durability -- the epoch WAL riding the
// group-commit write path vs the same path with the log off.
//
// One measurement, on the xc40 model at P=4: the partition-affine update
// stream of work::run_write_stream (each rank rewrites its own slice of a
// hot set through the commit pipeline + write-through, the PR 5 production
// write path), with cfg.wal off vs on.
//
// The WAL adds ZERO window operations -- every commit's redo record goes to
// a per-rank file, and its cost is modeled time only (wal_append_ns_per_byte
// while buffering, wal_fsync_ns once per sealed epoch). Exact byte-parity is
// pinned deterministically (single-rank) in test_wal.cpp; here, with four
// rank threads racing on the shared cache, op counts jitter ~0.04% run to
// run regardless of WAL, so the bench checks parity to a 0.2% drift bound
// and prices the overhead: wal_ratio = on/off throughput, and appends/fsync
// shows how the pipeline's flush epochs amortize the group fsync exactly as
// they amortize the flush itself.
//
// Per-phase counters come from OpCounters::snapshot()/delta() (PR 6): the
// load phase is excluded without resetting the rank's counters.
//
// Emits a paper-style table plus a JSON blob (committed as BENCH_pr6.json).
#include <cmath>
#include <filesystem>

#include "harness.hpp"

int main() {
  using namespace gdi;
  using namespace gdi::bench;

  print_header("PR 6 -- durability: epoch WAL on the group-commit write path",
               "README 'Durability protocol'; SPEEDEX-style group persistence");
  const int P = 4;
  const int scale = bench_scale(11);
  const auto net = rma::NetParams::xc40();

  const std::string wal_dir =
      (std::filesystem::temp_directory_path() / "gdi_bench_pr6_wal").string();
  std::filesystem::remove_all(wal_dir);
  std::filesystem::create_directories(wal_dir);

  struct Row {
    double qps = 0;
    rma::OpCounters ops;  ///< measured phase only (snapshot/delta)
  };
  Row rows[2];  // [0] = wal off, [1] = wal on

  for (int m = 0; m < 2; ++m) {
    rma::Runtime rt(P, net);
    rt.run([&](rma::Rank& self) {
      SetupOpts o;
      o.scale = scale;
      o.edge_factor = 4;  // lean holders: measure the commit protocol
      o.write_through = true;
      o.commit_pipeline = true;
      o.wal = m == 1;
      o.wal_dir = wal_dir;
      auto env = setup_db(self, o);
      work::WriteStreamConfig cfg;
      cfg.updates_per_rank = bench_queries(2000);
      cfg.hot_ids = std::min<std::uint64_t>(256, env.n / 2);
      cfg.existing_ids = env.n;
      cfg.ptype = env.ptype_ids[0];
      // Per-phase counters without a reset: delta against a snapshot taken
      // after the bulk load, so the load's traffic stays out of the row.
      const rma::OpCounters before = self.counters().snapshot();
      auto res = work::run_write_stream(env.db, self, cfg);
      const rma::OpCounters phase = self.counters().delta(before);
      auto all = self.allgather(phase);
      if (self.id() == 0) {
        rows[m].qps = res.throughput_qps;
        for (const auto& c : all) rows[m].ops += c;
      }
    });
  }

  const Row& off = rows[0];
  const Row& on = rows[1];
  const double ratio = off.qps > 0 ? on.qps / off.qps : 0;
  const auto window_ops = [](const rma::OpCounters& c) {
    return c.puts + c.gets + c.atomics;
  };
  const double drift =
      std::abs(static_cast<double>(window_ops(on.ops)) -
               static_cast<double>(window_ops(off.ops))) /
      std::max<double>(1.0, static_cast<double>(window_ops(off.ops)));
  const bool ops_parity = drift <= 0.002;  // scheduler jitter, not WAL traffic
  const double appends_per_fsync =
      on.ops.wal_fsyncs > 0 ? static_cast<double>(on.ops.wal_appends) /
                                  static_cast<double>(on.ops.wal_fsyncs)
                            : 0;

  stats::Table table({"mode", "Mq/s", "vs off", "wal appends", "fsyncs",
                      "appends/fsync", "window ops"});
  table.add_row({"wal off", fmt_mqps(off.qps), "1.00x", "0", "0", "-",
                 std::to_string(window_ops(off.ops))});
  table.add_row({"wal on", fmt_mqps(on.qps),
                 stats::Table::fmt(ratio, 2) + "x",
                 std::to_string(on.ops.wal_appends),
                 std::to_string(on.ops.wal_fsyncs),
                 stats::Table::fmt(appends_per_fsync, 1),
                 std::to_string(window_ops(on.ops))});
  std::cout << table.to_string();
  std::cout << "window traffic drift across modes: " << fmt_pct(drift)
            << (ops_parity ? " (PARITY: the WAL is file IO + modeled time only)"
                           : " (DIVERGED beyond scheduler jitter!)")
            << "\n";

  Record()
      .str("bench", "pr6_wal")
      .str("description", "epoch WAL overhead on the group-commit write stream (wal off vs on)")
      .str("net", "xc40")
      .num("ranks", P)
      .num("scale", scale)
      .num("updates_per_rank", 2000)
      .num("wal_off_qps", off.qps, 1)
      .num("wal_on_qps", on.qps, 1)
      .num("wal_ratio", ratio, 4)
      .flag("window_op_parity", ops_parity)
      .num("wal_appends", on.ops.wal_appends)
      .num("wal_fsyncs", on.ops.wal_fsyncs)
      .num("appends_per_fsync", appends_per_fsync, 2)
      .print();
  std::cout << "\nExpected shape: wal_ratio around 0.4 on this model -- the 20us\n"
               "group fsync, even amortized over ~32 commits/epoch, adds ~0.6us\n"
               "to a ~0.8us pipelined commit; without the epoch grouping every\n"
               "commit would pay the full 20us (~25x, not ~2.4x). Window ops\n"
               "match across modes to scheduler jitter (<0.2%), appends/fsync\n"
               "tracks commits/epoch.\n";
  std::filesystem::remove_all(wal_dir);
  return 0;
}
