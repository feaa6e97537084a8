// PR 1 perf record: baseline (blocking per-GET reads, no cache -- the seed's
// behaviour) vs the nonblocking batched RMA engine + per-transaction block
// cache, on the fig6a (PageRank/CDLP/WCC) and fig6e (BFS/k-hop) workloads.
//
// Prints a bench::Record JSON blob; the committed snapshot lives in
// BENCH_pr1.json so the perf trajectory of the repo starts with this PR.
#include "harness.hpp"

namespace {

struct Measurement {
  double sim_ns = 0;
  std::uint64_t remote_ops = 0;
  gdi::rma::OpCounters counters;
};

struct WorkloadRow {
  std::string name;
  Measurement baseline, batched;
};

}  // namespace

int main() {
  using namespace gdi;
  using namespace gdi::bench;

  constexpr int kRanks = 4;
  constexpr int kScale = 11;
  std::vector<WorkloadRow> rows;
  auto row = [&](const std::string& name) -> WorkloadRow& {
    for (auto& r : rows)
      if (r.name == name) return r;
    rows.push_back(WorkloadRow{name, {}, {}});
    return rows.back();
  };

  for (const bool batched : {false, true}) {
    rma::Runtime rt(kRanks, rma::NetParams::xc40());
    rt.run([&](rma::Rank& self) {
      SetupOpts o;
      o.scale = kScale;
      o.batched_reads = batched;
      o.block_cache = batched;
      auto env = setup_db(self, o);
      auto record = [&](const std::string& name, double ns, std::uint64_t remote) {
        auto g = global_counters(self);  // collective
        if (self.id() == 0) {
          Measurement& m = batched ? row(name).batched : row(name).baseline;
          m.sim_ns = ns;
          m.remote_ops = remote;
          m.counters = g;
        }
      };
      // fig6a workload set.
      auto pr = work::pagerank(env.db, self, env.n, 10, 0.85);
      record("fig6a_olap_weak/pagerank", pr.sim_time_ns, pr.remote_ops);
      auto cd = work::cdlp(env.db, self, env.n, 5);
      record("fig6a_olap_weak/cdlp", cd.sim_time_ns, cd.remote_ops);
      auto wc = work::wcc(env.db, self, env.n, 5);
      record("fig6a_olap_weak/wcc", wc.sim_time_ns, wc.remote_ops);
      // fig6e workload set.
      for (int k : {2, 3, 4}) {
        auto kh = work::k_hop(env.db, self, env.n, 0, k);
        record("fig6e_bfs_khop_weak/" + std::to_string(k) + "-hop", kh.sim_time_ns,
               kh.remote_ops);
      }
      auto bfs = work::bfs(env.db, self, env.n, 0);
      record("fig6e_bfs_khop_weak/bfs", bfs.sim_time_ns, bfs.remote_ops);
      self.barrier();
    });
  }

  // Group totals (the acceptance-criterion figures).
  double base6a = 0, bat6a = 0, base6e = 0, bat6e = 0;
  for (const auto& r : rows) {
    if (r.name.starts_with("fig6a")) {
      base6a += r.baseline.sim_ns;
      bat6a += r.batched.sim_ns;
    } else {
      base6e += r.baseline.sim_ns;
      bat6e += r.batched.sim_ns;
    }
  }

  Record rec;
  rec.str("bench", "pr1_batched_vs_baseline")
      .str("description",
           "seed blocking reads vs nonblocking batched RMA engine + per-txn block cache")
      .str("net", "xc40")
      .num("ranks", kRanks)
      .num("scale", kScale);
  auto group = [&](const std::string& name, double base, double bat) {
    const std::string g = "groups/" + name + "/";
    rec.num(g + "baseline_ns", base, 1)
        .num(g + "batched_ns", bat, 1)
        .num(g + "speedup", base / bat, 1);
  };
  group("fig6a_olap_weak", base6a, bat6a);
  group("fig6e_bfs_khop_weak", base6e, bat6e);
  for (const auto& r : rows) {
    const std::string w = "workloads/" + r.name + "/";
    rec.num(w + "baseline_ns", r.baseline.sim_ns, 1)
        .num(w + "batched_ns", r.batched.sim_ns, 1)
        .num(w + "speedup", r.baseline.sim_ns / r.batched.sim_ns, 1)
        .num(w + "baseline_remote_ops", r.baseline.remote_ops)
        .num(w + "batched_remote_ops", r.batched.remote_ops)
        .num(w + "batched_batches", r.batched.counters.batches)
        .num(w + "batched_max_batch_depth", r.batched.counters.max_batch_ops)
        .num(w + "batched_cache_hit_rate", stats::cache_hit_rate(r.batched.counters), 4);
  }
  rec.print();
  return 0;
}
