// PR 4 perf snapshot: constraint-filtered edges_of over heavy edges --
// serial lock-and-fetch per holder (the pre-PR4 shape) vs the batched
// holder fetch path (one overlapped lock CAS round + one primary and
// one continuation block round for every heavy holder a query touches).
//
// The graph gives half its edges their own holders (heavy_edge_fraction),
// with the label stored in the holder -- so a label-constrained edges_of
// must fetch every direction-matching heavy holder to evaluate the filter,
// which is exactly the access the ROADMAP's "Batched edge-holder fetch"
// item wanted overlapped. The serial baseline is batched_reads=false (each
// holder pays its own lock CAS + GET chain).
//
// Emits a paper-style table plus a JSON blob (committed as BENCH_pr4.json).
#include "harness.hpp"

int main() {
  using namespace gdi;
  using namespace gdi::bench;

  print_header("PR 4 -- constraint-filtered edges_of: serial vs batched heavy fetch",
               "paper Sec. 6.5 access pattern");
  const int P = 4;
  const int scale = bench_scale(10);
  const auto net = rma::NetParams::xc40();
  const std::uint64_t kQueries = bench_queries(600);

  struct Config {
    const char* name;
    bool batched;
  };
  struct Row {
    double time_ns = 0;
    std::uint64_t gets = 0;
    std::uint64_t flushes = 0;
    std::uint64_t edge_batches = 0;
    std::uint64_t edge_batch_items = 0;
  };
  Row serial, batched;

  for (const Config& c : {Config{"serial", false}, Config{"batched", true}}) {
    rma::Runtime rt(P, net);
    rt.run([&](rma::Rank& self) {
      SetupOpts o;
      o.scale = scale;
      o.heavy_edge_fraction = 0.5;
      o.batched_reads = c.batched;
      o.shared_cache = false;  // isolate the batching effect
      auto env = setup_db(self, o);
      // Every rank scans a slice of vertices with a label-constrained
      // edges_of; labels of heavy edges live in their holders, so the filter
      // forces the heavy fetches.
      const Constraint cn = Constraint::with_label(env.label_ids[1 % env.label_ids.size()]);
      std::uint64_t matched = 0;
      self.barrier();
      self.reset_clock();
      self.reset_counters();
      {
        Transaction txn(env.db, self, TxnMode::kRead);
        for (std::uint64_t q = 0; q < kQueries; ++q) {
          const std::uint64_t id =
              (q * static_cast<std::uint64_t>(P) + static_cast<std::uint64_t>(self.id())) %
              env.n;
          auto vh = txn.find_vertex(id);
          if (!vh.ok()) continue;
          auto edges = txn.edges_of(*vh, DirFilter::kAll, &cn);
          if (edges.ok()) matched += edges->size();
        }
        (void)txn.commit();
      }
      const double t = self.allreduce_max(self.sim_time_ns());
      auto counters = global_counters(self);
      (void)self.allreduce_sum(matched);  // keep ranks in lockstep
      if (self.id() == 0) {
        Row& row = c.batched ? batched : serial;
        row.time_ns = t;
        row.gets = counters.gets;
        row.flushes = counters.flushes;
        row.edge_batches = counters.edge_batches;
        row.edge_batch_items = counters.edge_batch_items;
      }
    });
  }

  const double speedup = batched.time_ns > 0 ? serial.time_ns / batched.time_ns : 0;
  stats::Table table({"path", "runtime s", "gets", "flushes", "edge batches",
                      "avg batch size"});
  auto avg = [](const Row& r) {
    return r.edge_batches ? static_cast<double>(r.edge_batch_items) /
                                static_cast<double>(r.edge_batches)
                          : 0.0;
  };
  table.add_row({"serial", fmt_s(serial.time_ns), std::to_string(serial.gets),
                 std::to_string(serial.flushes), std::to_string(serial.edge_batches),
                 stats::Table::fmt(avg(serial), 1)});
  table.add_row({"batched", fmt_s(batched.time_ns), std::to_string(batched.gets),
                 std::to_string(batched.flushes), std::to_string(batched.edge_batches),
                 stats::Table::fmt(avg(batched), 1)});
  std::cout << table.to_string();
  std::cout << "speedup: " << stats::Table::fmt(speedup, 2) << "x\n";

  Record()
      .str("bench", "pr4_edge_batch")
      .str("description",
           "label-constrained edges_of over 50% heavy edges: serial holder fetches "
           "vs one batched holder fetch")
      .str("net", "xc40")
      .num("ranks", P)
      .num("scale", scale)
      .num("queries_per_rank", kQueries)
      .num("serial_time_ns", serial.time_ns, 1)
      .num("batched_time_ns", batched.time_ns, 1)
      .num("edge_batch_speedup", speedup, 2)
      .num("batched_edge_batches", batched.edge_batches)
      .num("batched_avg_edge_batch", avg(batched), 1)
      .print();
  std::cout << "\nExpected shape: the batched path overlaps every heavy holder's\n"
               "lock CAS and block GET behind one flush per round, so it wins by\n"
               "roughly the mean heavy degree of the filtered scan.\n";
  return 0;
}
