// PR 7 perf snapshot: the multi-tenant front end (src/server/).
//
// Two measurements:
//
//  * multi-tenant OLTP, scheduler vs eager: 4 client sessions per rank at
//    P=2 (8 tenants total) drive the same open-loop request streams through
//    (a) the TenantScheduler with read coalescing (up to 32 reads from ANY
//    tenant share one kRead transaction / one BatchScope::execute) plus the
//    commit pipeline (cross-tenant commits share flush epochs and their
//    acknowledgements ride the epoch close), and (b) the *eager* baseline:
//    the identical scheduler loop with server_read_coalesce = 1 and the
//    pipeline off -- one transaction and one completion fence per request,
//    which is exactly what N independent clients each owning a Transaction
//    would pay. Same streams, same arrival stamps, same admission caps
//    (sized to never shed), so the delta is pure cross-tenant batching.
//    Reported: throughput, p50/p99/p999 end-to-end latency (arrival ->
//    acknowledgement, so queueing delay is in the tails), per-tenant p99
//    spread (the DRR fairness observable), coalescing rate, epochs.
//
//  * HTAP scan resistance, FIFO vs 2Q shared-cache admission: an OLTP hot
//    set is warmed (two passes -- the second touch is what 2Q rewards), then
//    OLAP-style full scans interleave with hot re-reads. Under kFifo each
//    scan washes the hot set out of the holder cache; under k2Q one-touch
//    scan fills churn only the probationary share and the hot set keeps
//    hitting. Reported: hot-pass scache hit rate after scans, per policy.
//
// Emits a paper-style table plus a JSON blob (committed as BENCH_pr7.json).
#include "harness.hpp"

int main() {
  using namespace gdi;
  using namespace gdi::bench;

  print_header("PR 7 -- multi-tenant front end: shared batches/epochs vs eager, FIFO vs 2Q",
               "paper Sec. 4/6 multi-client serving model");
  const int P = 2;
  const int scale = bench_scale(11);
  const auto net = rma::NetParams::xc50();
  const int tenants = 4;  // per rank; P * tenants = 8 clients total

  // -------------------------------------------------------------------------
  // Section 1: scheduler (coalesce + shared epochs) vs eager per-request
  // -------------------------------------------------------------------------
  struct ModeRow {
    double qps = 0;
    double p50 = 0, p99 = 0, p999 = 0;
    double tenant_p99_min = 0, tenant_p99_max = 0;
    double avg_coalesce = 0;
    std::uint64_t epochs = 0;
    std::uint64_t rejected = 0;
    std::uint64_t committed = 0, attempted = 0;
  };
  ModeRow rows[2];  // [0] = eager, [1] = scheduler

  for (int m = 0; m < 2; ++m) {
    const bool sched = m == 1;
    rma::Runtime rt(P, net);
    rt.run([&](rma::Rank& self) {
      SetupOpts o;
      o.scale = scale;
      o.edge_factor = 4;  // lean holders: serving cost, not adjacency volume
      o.server = true;
      o.server_read_coalesce = sched ? 32 : 1;
      o.commit_pipeline = sched;
      auto env = setup_db(self, o);

      work::ServerOltpConfig cfg;
      cfg.tenants = tenants;
      cfg.requests_per_tenant = bench_queries(2000);
      cfg.interarrival_ns = 1500.0;
      cfg.read_fraction = 0.8;
      cfg.existing_ids = env.n;
      cfg.hot_ids = std::min<std::uint64_t>(256, env.n / 2);
      cfg.ptype = env.ptype_ids[0];
      self.reset_counters();
      const auto res = work::run_server_oltp(env.db, self, cfg);
      if (self.id() == 0) {
        ModeRow& r = rows[m];
        r.qps = res.throughput_qps;
        r.p50 = res.all_latency.p50_ns();
        r.p99 = res.all_latency.p99_ns();
        r.p999 = res.all_latency.p999_ns();
        r.tenant_p99_min = 1e300;
        for (const auto& h : res.tenant_latency) {
          r.tenant_p99_min = std::min(r.tenant_p99_min, h.p99_ns());
          r.tenant_p99_max = std::max(r.tenant_p99_max, h.p99_ns());
        }
        r.avg_coalesce = res.avg_coalesce;
        r.epochs = res.epochs;
        r.rejected = res.rejected;
        r.committed = res.committed;
        r.attempted = res.attempted;
      }
    });
  }

  const double speedup = rows[0].qps > 0 ? rows[1].qps / rows[0].qps : 0;
  stats::Table t1({"mode", "Mq/s", "p50 us", "p99 us", "p999 us",
                   "tenant p99 spread", "coalesced", "epochs"});
  const char* names[2] = {"eager", "scheduler"};
  for (int m = 0; m < 2; ++m) {
    const ModeRow& r = rows[m];
    t1.add_row({names[m], fmt_mqps(r.qps), stats::Table::fmt(r.p50 / 1e3, 1),
                stats::Table::fmt(r.p99 / 1e3, 1),
                stats::Table::fmt(r.p999 / 1e3, 1),
                stats::Table::fmt(r.tenant_p99_min / 1e3, 1) + ".." +
                    stats::Table::fmt(r.tenant_p99_max / 1e3, 1),
                fmt_pct(r.avg_coalesce), std::to_string(r.epochs)});
  }
  std::cout << t1.to_string();
  std::cout << "scheduler vs eager speedup: " << stats::Table::fmt(speedup, 2)
            << "x at " << P * tenants << " tenants ("
            << rows[1].committed << "/" << rows[1].attempted
            << " committed, " << rows[1].rejected << " shed)\n\n";

  // -------------------------------------------------------------------------
  // Section 2: HTAP scan resistance -- shared-cache admission FIFO vs 2Q
  // -------------------------------------------------------------------------
  struct PolicyRow {
    double hot_hit_rate = 0;  ///< hot-pass hits/(hits+misses) after scans
    std::uint64_t hot_hits = 0, hot_misses = 0;
  };
  PolicyRow prow[2];  // [0] = kFifo, [1] = k2Q

  for (int pi = 0; pi < 2; ++pi) {
    rma::Runtime rt(P, net);
    rt.run([&](rma::Rank& self) {
      SetupOpts o;
      o.scale = bench_scale(10);
      o.edge_factor = 4;
      o.scache_policy =
          pi == 1 ? cache::ScachePolicy::k2Q : cache::ScachePolicy::kFifo;
      // A holder budget far below the scanned set: the scan MUST evict
      // something; the question is only whether it evicts the hot set. The
      // hot set fits the 2Q *resident* share (1 - probation_fraction) with
      // headroom even for multi-block holders.
      o.shared_cache_bytes = 64 * o.block_size;
      auto env = setup_db(self, o);
      const std::uint32_t pt = env.ptype_ids[0];
      // Hashed hot ids (not the low-id Kronecker supernodes).
      std::vector<std::uint64_t> hot;
      for (std::uint64_t i = 0; i < 12; ++i)
        hot.push_back((i * 7919 + 13) % env.n);

      const auto hot_pass = [&] {
        Transaction txn(env.db, self, TxnMode::kRead);
        for (const auto id : hot) {
          auto vh = txn.find_vertex(id);
          if (vh.ok()) (void)txn.get_properties(*vh, pt);
        }
        (void)txn.commit();
      };
      const auto scan_pass = [&] {
        Transaction txn(env.db, self, TxnMode::kRead);
        for (std::uint64_t id = 0; id < env.n; ++id) {
          auto vh = txn.find_vertex(id);
          if (vh.ok()) (void)txn.get_properties(*vh, pt);
        }
        (void)txn.commit();
      };

      hot_pass();  // fill (2Q: probation)
      hot_pass();  // second touch (2Q: promote to resident)
      std::uint64_t hits = 0;
      std::uint64_t misses = 0;
      for (int round = 0; round < 3; ++round) {
        scan_pass();  // OLAP interference: one-touch flood over the budget
        const auto c0 = self.counters();
        hot_pass();   // does the OLTP hot set still hit?
        const auto d = self.counters().delta(c0);
        hits += d.scache_hits;
        misses += d.scache_misses;
      }
      const auto ghits = self.allreduce_sum(hits);
      const auto gmisses = self.allreduce_sum(misses);
      if (self.id() == 0) {
        prow[pi].hot_hits = ghits;
        prow[pi].hot_misses = gmisses;
        prow[pi].hot_hit_rate =
            ghits + gmisses > 0
                ? static_cast<double>(ghits) / static_cast<double>(ghits + gmisses)
                : 0;
      }
    });
  }

  stats::Table t2({"policy", "hot hits", "hot misses", "hot hit rate"});
  const char* pnames[2] = {"fifo", "2q"};
  for (int pi = 0; pi < 2; ++pi)
    t2.add_row({pnames[pi], std::to_string(prow[pi].hot_hits),
                std::to_string(prow[pi].hot_misses), fmt_pct(prow[pi].hot_hit_rate)});
  std::cout << t2.to_string();
  std::cout << "hot-set survival across scans: fifo "
            << fmt_pct(prow[0].hot_hit_rate) << " vs 2q "
            << fmt_pct(prow[1].hot_hit_rate) << "\n";

  Record()
      .str("bench", "pr7_server")
      .str("description",
           "multi-tenant scheduler (coalesce + shared epochs) vs eager per-request; "
           "FIFO vs 2Q scache admission under HTAP scans")
      .str("net", "xc50")
      .num("ranks", P)
      .num("scale", scale)
      .num("tenants", P * tenants)
      .num("eager_qps", rows[0].qps, 1)
      .num("sched_qps", rows[1].qps, 1)
      .num("sched_speedup", speedup, 2)
      .num("sched_p50_us", rows[1].p50 / 1e3, 2)
      .num("sched_p99_us", rows[1].p99 / 1e3, 2)
      .num("sched_p999_us", rows[1].p999 / 1e3, 2)
      .num("coalesced_frac", rows[1].avg_coalesce, 4)
      .num("epochs", rows[1].epochs)
      .num("rejected", rows[1].rejected)
      .num("fifo_hot_hit_rate", prow[0].hot_hit_rate, 4)
      .num("q2_hot_hit_rate", prow[1].hot_hit_rate, 4)
      .print();
  std::cout << "\nExpected shape: scheduler >= 1x eager at 8 tenants (coalesced\n"
               "reads amortize lookup/lock/fetch rounds; epoch commits amortize\n"
               "fences -- acceptance bar), tenant p99 spread tight (DRR), and\n"
               "2q hot hit rate >> fifo under the same scan interference.\n";
  return 0;
}
