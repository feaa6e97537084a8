// olap: BFS and 3-hop from seeded fixed roots, then PageRank (10 iterations,
// damping 0.85), all collective read-only transactions on P=4 ranks over the
// scale-15 graph. The suite repeats until --seconds have passed (at least
// four times); each kernel call is one op, throughputs are medians over
// suites and latency percentiles come from every call. The kernels reset the
// rank clocks and counters on entry, so every simulated number is taken per
// kernel call.
//
// Check: after the run the benchmark reads the stored graph back through plain
// Transaction::edges_of and compares every kernel's output with gdi::ref
// run on that edge list.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <unordered_map>

#include "bench.hpp"
#include "workloads/olap.hpp"
#include "workloads/reference.hpp"

namespace perfbench {
namespace {

constexpr int kRanks = 4;
constexpr int kSetups = 5;  // set-ups per run; setup_s is their median
constexpr int kRoots = 16;
constexpr int kHops = 3;
constexpr int kPrIters = 10;
constexpr double kDamping = 0.85;
constexpr std::uint64_t kReferenceSeed = 1;
// Pinned fingerprint of the reference seed's inputs (graph and roots).
constexpr std::uint64_t kRefInputFp = 0x76a039c57ae19641ULL;

std::vector<std::uint64_t> roots_of(const gen::LpgConfig& g) {
  // Sources of seeded generated edges: every root has at least one edge.
  gen::KroneckerGenerator kg(g, {}, {});
  std::vector<std::uint64_t> roots;
  for (int i = 0; i < kRoots; ++i)
    roots.push_back(kg.edge_endpoints(splitmix64(hash_combine(g.seed, 0xB0F5 + i)) %
                                      g.num_edges())
                        .first);
  return roots;
}

std::uint64_t input_fingerprint(const gen::LpgConfig& g) {
  gen::KroneckerGenerator kg(g, {}, {});
  Fingerprint fp;
  for (std::uint64_t k = 0; k < g.num_edges(); ++k) {
    const auto [s, d] = kg.edge_endpoints(k);
    fp.add(s);
    fp.add(d);
  }
  for (auto r : roots_of(g)) fp.add(r);
  fp.add(kHops);
  fp.add(kPrIters);
  return fp.value();
}

struct StoredEdge {
  std::uint64_t src, dst;
  std::uint8_t out;  ///< 1 = a kOut record of src
};

/// Collective: every stored edge record, read back through a plain
/// read-only transaction (find, edges_of, then 8-byte id peeks).
std::vector<StoredEdge> read_back(const std::shared_ptr<Database>& db, rma::Rank& self,
                                  std::uint64_t n) {
  const auto P = static_cast<std::uint64_t>(self.nranks());
  std::vector<StoredEdge> mine;
  Transaction txn(db, self, TxnMode::kReadShared, TxnScope::kCollective);
  std::unordered_map<std::uint64_t, std::uint64_t> id_of;  // DPtr raw -> app id
  std::vector<std::uint64_t> ids;
  for (std::uint64_t v = static_cast<std::uint64_t>(self.id()); v < n; v += P) ids.push_back(v);
  for (std::size_t base = 0; base < ids.size(); base += 128) {
    const std::size_t end = std::min(base + 128, ids.size());
    BatchScope finds = txn.batch();
    std::vector<Future<VertexHandle>> fs;
    for (std::size_t j = base; j < end; ++j) fs.push_back(finds.find(ids[j]));
    (void)finds.execute();
    std::vector<std::pair<std::uint64_t, EdgeDesc>> recs;
    BatchScope peeks = txn.batch();
    std::unordered_map<std::uint64_t, Future<std::uint64_t>> peeked;
    for (std::size_t j = base; j < end; ++j) {
      const auto& f = fs[j - base];
      if (!f.ok()) continue;
      auto edges = txn.edges_of(*f, DirFilter::kAll);
      if (!edges.ok()) continue;
      for (const auto& e : *edges) {
        const auto raw = e.neighbor.raw();
        if (!id_of.contains(raw) && !peeked.contains(raw))
          peeked.emplace(raw, peeks.peek_app_id(e.neighbor));
        recs.emplace_back(ids[j], e);
      }
    }
    (void)peeks.execute();
    for (auto& [raw, fut] : peeked) id_of.emplace(raw, fut.ok() ? *fut : ~std::uint64_t{0});
    for (const auto& [v, e] : recs)
      mine.push_back({v, id_of.at(e.neighbor.raw()),
                      static_cast<std::uint8_t>(e.dir == layout::Dir::kOut ? 1 : 0)});
  }
  (void)txn.commit();
  return self.allgatherv(mine);
}

struct KernelSample {
  double sim_ms = 0, wall_s = 0;
  rma::OpCounters ctr;  ///< summed over ranks
};

/// Collective: every rank is here, so the wall clock starts with the call.
double start_call(rma::Rank& self) {
  self.barrier();
  return wall_s();
}

/// Collective: this kernel call's counters summed over ranks (the kernels
/// reset counters on entry, so the totals are the call's own). The wall
/// clock stops once the gather shows every rank has returned from the call.
KernelSample kernel_sample(rma::Rank& self, double sim_ns, double t0) {
  const rma::OpCounters mine = self.counters();
  KernelSample k;
  k.sim_ms = sim_ns / 1e6;
  for (const auto& c : self.allgather(mine)) k.ctr += c;
  k.wall_s = wall_s() - t0;
  return k;
}

struct Shared {
  Measured m;  ///< units are suites; set-up entries are filled here too
  std::vector<double> bfs_sim_ms, pr_sim_ms;
  std::vector<KernelSample> bfs, khop, pr;
  std::uint64_t stored = 0, input_fp = 0, ref_fp = 0;
  std::vector<std::string> failures;
};

}  // namespace

int run_olap(const Args& a) {
  const gen::LpgConfig g = graph_config(a.seed);
  const std::uint64_t n = g.num_vertices();
  const auto roots = roots_of(g);
  Report rep;
  Shared sh;
  std::uint64_t attempted = 0;
  std::mutex spans_mu;
  std::vector<Span> spans;
  const std::string wal_base = a.run_dir + "/wal-olap-" + std::to_string(::getpid());

  rma::Runtime rt(kRanks, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    const int r = self.id();
    Loaded ld;
    std::string wal_dir;
    for (int k = 0; k < kSetups; ++k) {
      ld = Loaded{};
      self.barrier();
      if (r == 0 && !wal_dir.empty()) std::filesystem::remove_all(wal_dir);
      wal_dir = wal_base + "-" + std::to_string(k);
      ld = setup_graph(self, g, production_config(g, kRanks, wal_dir, 6));
      if (r == 0) {
        sh.m.setup_s.push_back(ld.setup_wall_s);
        sh.m.gen_wall_s.push_back(ld.gen_wall_s);
        sh.m.load_wall_s.push_back(ld.load_wall_s);
        sh.m.load_sim_ms.push_back(ld.load_sim_ns / 1e6);
      }
      if (!ld.ok) {
        if (r == 0) sh.failures.push_back("bulk load failed on some rank");
        return;
      }
    }
    const auto& db = ld.db;
    const std::uint64_t stored = self.allreduce_sum(ld.stats.edges_loaded);
    const std::uint64_t skipped = self.allreduce_sum(ld.stats.edges_skipped);
    const std::uint64_t blocks_load =
        self.allreduce_sum(db->blocks().allocated_count(self, static_cast<std::uint32_t>(r)));
    if (r == 0) {
      sh.stored = stored;
      sh.m.edges_skipped = skipped;
      sh.m.blocks_load = blocks_load;
      if (stored + skipped != 2 * g.num_edges())
        sh.failures.push_back("stored + skipped edge records != 2 x generated edges");
      sh.input_fp = input_fingerprint(g);
      gen::LpgConfig ref = g;
      ref.seed = kReferenceSeed;
      sh.ref_fp = input_fingerprint(ref);
    }

    Tracer tr(false, &self);
    std::vector<Span> kept;
    std::vector<std::vector<std::uint64_t>> levels0;
    std::vector<std::uint64_t> khop0;
    std::vector<double> pr0;
    self.barrier();
    const double t_start = wall_s();
    for (int suite = 0;; ++suite) {
      int go = r == 0 && (suite < 4 || wall_s() - t_start < a.seconds) ? 1 : 0;
      go = self.broadcast(go);
      if (!go) break;
      tr.set_on(a.trace && suite % 2 == 1);
      if (r == 0)
        std::printf("progress attempted=%llu\n",
                    static_cast<unsigned long long>((suite + 1) * (2 * kRoots + 1)));
      double bfs_ms = 0;
      // The kernels only, not the checks between them.
      double suite_wall = 0;
      for (std::size_t i = 0; i < roots.size(); ++i) {
        double t0 = start_call(self);
        work::ShardResult<std::uint64_t> b;
        {
          SpanScope s(tr, "olap.bfs", static_cast<std::uint64_t>(suite));
          b = work::bfs(db, self, n, roots[i]);
        }
        const auto kb = kernel_sample(self, b.sim_time_ns, t0);
        t0 = start_call(self);
        work::ShardResult<std::uint64_t> h;
        {
          SpanScope s(tr, "olap.khop", static_cast<std::uint64_t>(suite));
          h = work::k_hop(db, self, n, roots[i], kHops);
        }
        const auto kh = kernel_sample(self, h.sim_time_ns, t0);
        bfs_ms += (b.sim_time_ns + h.sim_time_ns) / 1e6;
        suite_wall += kb.wall_s + kh.wall_s;
        auto lv = merge_shards(self, n, b.values);
        if (r == 0) {
          sh.bfs.push_back(kb);
          sh.khop.push_back(kh);
          if (suite == 0) {
            levels0.push_back(std::move(lv));
            khop0.push_back(h.values[0]);
          } else if (lv != levels0[i] || h.values[0] != khop0[i]) {
            sh.failures.push_back("BFS/3-hop result changed between suites");
          }
        }
      }
      const double t0 = start_call(self);
      work::ShardResult<double> p;
      {
        SpanScope s(tr, "olap.pagerank", static_cast<std::uint64_t>(suite));
        p = work::pagerank(db, self, n, kPrIters, kDamping);
      }
      const auto kp = kernel_sample(self, p.sim_time_ns, t0);
      suite_wall += kp.wall_s;
      auto prv = merge_shards(self, n, p.values);
      if (r == 0) {
        sh.pr.push_back(kp);
        sh.bfs_sim_ms.push_back(bfs_ms);
        sh.pr_sim_ms.push_back(p.sim_time_ns / 1e6);
        sh.m.unit_sim_s.push_back((bfs_ms + p.sim_time_ns / 1e6) / 1e3);
        sh.m.unit_wall_s.push_back(suite_wall);
        sh.m.unit_traced.push_back(tr.on());
        attempted += roots.size() * 2 + 1;
        if (suite == 0) pr0 = std::move(prv);
        else if (prv != pr0) sh.failures.push_back("PageRank result changed between suites");
      }
      auto sp = tr.take();
      if (kept.empty()) kept = std::move(sp);
    }
    const std::uint64_t wal_errors = self.allreduce_sum(self.counters().wal_io_errors);
    const std::uint64_t blocks_end =
        self.allreduce_sum(db->blocks().allocated_count(self, static_cast<std::uint32_t>(r)));

    // Compare with gdi::ref on the stored graph.
    const auto edges = read_back(db, self, n);
    if (r == 0) {
      sh.m.wal_io_errors = wal_errors;
      sh.m.blocks_end = blocks_end;
      if (edges.size() != stored) sh.failures.push_back("read-back edge records != stored");
      std::vector<BulkEdge> all, out;
      all.reserve(edges.size());
      for (const auto& e : edges) {
        if (e.dst >= n) {
          sh.failures.push_back("read-back neighbor id out of range");
          break;
        }
        BulkEdge be;
        be.src = e.src;
        be.dst = e.dst;
        if (e.out) out.push_back(be);
        all.push_back(std::move(be));
      }
      const auto csr_all = ref::Csr::build(n, all, false);
      for (std::size_t i = 0; i < roots.size() && !levels0.empty(); ++i) {
        if (ref::bfs_levels(csr_all, roots[i]) != levels0[i])
          sh.failures.push_back("BFS levels differ from gdi::ref");
        if (ref::k_hop_count(csr_all, roots[i], kHops) != khop0[i])
          sh.failures.push_back("3-hop count differs from gdi::ref");
      }
      const auto expect = ref::pagerank(ref::Csr::build(n, out, false), kPrIters, kDamping);
      for (std::uint64_t v = 0; v < n && !pr0.empty(); ++v) {
        if (std::abs(pr0[v] - expect[v]) > 1e-9 * std::max(std::abs(expect[v]), 1.0 / n)) {
          sh.failures.push_back("PageRank differs from gdi::ref at vertex " + std::to_string(v));
          break;
        }
      }
    }
    if (a.trace) {
      std::lock_guard<std::mutex> lk(spans_mu);
      spans.insert(spans.end(), kept.begin(), kept.end());
    }
    ld = Loaded{};
    self.barrier();
    if (r == 0) {
      sh.m.wal_bytes = dir_bytes(wal_dir);
      std::filesystem::remove_all(wal_dir);
    }
  });

  for (const auto& f : sh.failures) rep.fail(f);
  Measured& m = sh.m;
  if (m.setup_s.size() < kSetups || m.unit_wall_s.empty()) {
    rep.fail("run did not complete");
    return rep.finish(attempted, attempted);
  }
  std::printf("info   input fingerprint seed=%llu %016llx; reference seed=%llu %016llx\n",
              static_cast<unsigned long long>(a.seed),
              static_cast<unsigned long long>(sh.input_fp),
              static_cast<unsigned long long>(kReferenceSeed),
              static_cast<unsigned long long>(sh.ref_fp));
  if (sh.ref_fp != kRefInputFp) rep.fail("reference input fingerprint changed");
  if (m.wal_io_errors != 0) rep.fail("WAL reported I/O errors");
  std::printf("info   suites=%zu roots=%zu stored=%llu skipped=%llu\n",
              m.unit_wall_s.size(), roots.size(),
              static_cast<unsigned long long>(sh.stored),
              static_cast<unsigned long long>(m.edges_skipped));

  // Every kernel call is an op; its counters are its own (the kernels reset
  // them on entry), so the window's counters are their sum.
  m.ops_per_unit = static_cast<double>(2 * kRoots + 1);
  for (const auto* ks : {&sh.bfs, &sh.khop, &sh.pr}) {
    for (const auto& k : *ks) {
      m.ops += 1;
      m.ctr += k.ctr;
      m.op_sim_ns.push_back(k.sim_ms * 1e6);
      m.read.sim_us.push_back(k.sim_ms * 1e3);
      m.read.wall_us.push_back(k.wall_s * 1e6);
      m.read.ctr[0] += k.ctr.remote_ops;
    }
  }
  // OLAP-only detail: printed for reading, not part of the JSON result.
  if (!a.trace) {
    rep.info("bfs_sim_ms", median(sh.bfs_sim_ms), "ms", "sim");
    rep.info("pagerank_sim_ms", median(sh.pr_sim_ms), "ms", "sim");
  } else {
    auto kernel = [&](const char* name, const std::vector<KernelSample>& ks) {
      std::vector<double> sim, wall, remote, per_batch, coll;
      for (const auto& k : ks) {
        const auto& c = k.ctr;
        sim.push_back(k.sim_ms);
        wall.push_back(k.wall_s);
        remote.push_back(static_cast<double>(c.remote_ops));
        per_batch.push_back(c.batches ? static_cast<double>(c.nb_gets + c.nb_puts + c.nb_atomics) /
                                            static_cast<double>(c.batches)
                                      : 0.0);
        coll.push_back(static_cast<double>(c.collectives));
      }
      const std::string p = std::string("olap.") + name;
      rep.info(p + ".sim_ms", median(sim), "ms", "sim");
      rep.info(p + ".wall_s", median(wall), "s", "wall");
      rep.info(p + ".remote_ops", median(remote), "ops", "count");
      rep.info(p + ".ops_per_batch", median(per_batch), "ops", "count");
      rep.info(p + ".collectives", median(coll), "count", "count");
    };
    kernel("bfs", sh.bfs);
    kernel("khop", sh.khop);
    kernel("pagerank", sh.pr);
    write_spans(a.run_dir + "/spans-olap.csv", spans);
  }
  report_measured(a.trace, m, rep);
  return rep.finish(attempted, 0);
}

}  // namespace perfbench
