// PR 4 perf snapshot: warm read-mostly OLTP with the shared version-validated
// block cache (src/cache/) on vs off.
//
// Same graph, mix, and query stream as the Figure 4a harness, with a hot
// working set (OltpConfig::hot_ids): production point-read traffic
// concentrates on a small popular subset, so most transactions re-read
// holders some earlier transaction already fetched. Without the shared cache
// (the PR 3 shape) every transaction starts cold and pays the full block
// rounds again; with it, a read lock's own acquisition CAS doubles as the
// version validation and a hit skips the holder's block fetches entirely.
// The stream still contains writes (the RM mix's add-edge fraction), whose
// commit writebacks bump lock-word versions -- so the measured hit rate is
// what survives real invalidation traffic, not a read-only idealization.
//
// Emits a paper-style table plus a JSON blob (committed as BENCH_pr4.json)
// recording the warm-read win.
#include "harness.hpp"

int main() {
  using namespace gdi;
  using namespace gdi::bench;

  print_header("PR 4 -- warm OLTP: shared block cache off (PR 3 shape) vs on",
               "paper Fig. 4a harness");
  const int P = 4;
  const int scale = bench_scale(11);
  const std::uint64_t kHotIds = 256;
  const auto net = rma::NetParams::xc40();

  struct Row {
    std::string mix;
    double cold_qps = 0;       ///< shared cache off
    double warm_qps = 0;       ///< shared cache on
    double hit_rate = 0;
    double cold_fail = 0;
    double warm_fail = 0;
    std::uint64_t validations = 0;
    std::uint64_t invalidations = 0;
  };
  std::vector<Row> rows;

  for (const auto& mix : {work::OpMix::read_mostly(), work::OpMix::read_intensive()}) {
    Row row;
    row.mix = mix.name;
    for (const bool shared : {false, true}) {
      rma::Runtime rt(P, net);
      rt.run([&](rma::Rank& self) {
        SetupOpts o;
        o.scale = scale;
        o.shared_cache = shared;
        auto env = setup_db(self, o);
        work::OltpConfig cfg;
        cfg.queries_per_rank = bench_queries(2000);
        cfg.existing_ids = env.n;
        cfg.hot_ids = kHotIds;
        cfg.label_for_new = env.label_ids[0];
        cfg.ptype_for_update = env.ptype_ids[0];
        self.reset_counters();
        auto res = work::run_oltp(env.db, self, mix, cfg);
        auto counters = global_counters(self);
        if (self.id() == 0) {
          if (!shared) {
            row.cold_qps = res.throughput_qps;
            row.cold_fail = res.failed_fraction();
          } else {
            row.warm_qps = res.throughput_qps;
            row.warm_fail = res.failed_fraction();
            row.hit_rate = stats::scache_hit_rate(counters);
            row.validations = counters.scache_validations;
            row.invalidations = counters.scache_invalidations;
          }
        }
      });
    }
    rows.push_back(row);
  }

  stats::Table table({"mix", "cold Mq/s", "warm Mq/s", "speedup", "scache hit",
                      "cold fail", "warm fail"});
  for (const auto& r : rows) {
    table.add_row({r.mix, fmt_mqps(r.cold_qps), fmt_mqps(r.warm_qps),
                   stats::Table::fmt(r.warm_qps / r.cold_qps, 2) + "x",
                   fmt_pct(r.hit_rate), fmt_pct(r.cold_fail), fmt_pct(r.warm_fail)});
  }
  std::cout << table.to_string();

  Record rec;
  rec.str("bench", "pr4_cached_oltp")
      .str("description",
           "warm hot-set OLTP (fig4a harness): shared version-validated cache off "
           "(PR3 shape) vs on")
      .str("net", "xc40")
      .num("ranks", P)
      .num("scale", scale)
      .num("hot_ids", kHotIds)
      .num("queries_per_rank", 2000);
  for (const auto& r : rows) {
    const std::string m = r.mix + "/";
    rec.num(m + "cold_qps", r.cold_qps, 1)
        .num(m + "warm_qps", r.warm_qps, 1)
        .num(m + "speedup", r.warm_qps / r.cold_qps, 2)
        .num(m + "scache_hit_rate", r.hit_rate, 4)
        .num(m + "validations", r.validations)
        .num(m + "invalidations", r.invalidations)
        .num(m + "cold_failed", r.cold_fail, 4)
        .num(m + "warm_failed", r.warm_fail, 4);
  }
  rec.print();
  std::cout << "\nExpected shape: read-mostly gains most (>= 1.3x acceptance bar);\n"
               "hit rate tracks the hot-set-to-stream ratio minus invalidations\n"
               "from the mix's writes. Validation is free for locked reads (the\n"
               "lock CAS observes the version), so cold == PR 3 op counts.\n";
  return 0;
}
