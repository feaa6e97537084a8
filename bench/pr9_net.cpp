// PR 9 perf snapshot: the socket front end (src/net/).
//
// Three measurements, all on one rank with real loopback TCP clients (the
// listener and the scheduler share the rank thread, as in production):
//
//  * wire serving: T socket tenants push mixed open-window request streams
//    (70% reads) through the CRC-framed protocol into the shared scheduler.
//    Reported: wall-clock wire throughput (informational -- kernel timing,
//    not the simulated clock) and the committed fraction, which must be 1.0:
//    every request admitted over the wire is answered exactly once.
//
//  * backpressure isolation: one tenant sends its full credit window and
//    then refuses to read replies while the other tenants stream normally.
//    The slow reader's backlog is bounded by its window, and the gated
//    metric is the *other* tenants' completed fraction -- 1.0 means a slow
//    reader throttles only itself, never the rank thread or its neighbours.
//
//  * connection churn: every client runs with seeded fault injection
//    (corrupt/truncate/stall/disconnect/reorder) and reconnect-replay. The
//    gated metric is again the completed fraction after exactly-once
//    resumption -- 1.0 means no committed work was lost or double-applied
//    under churn (the byte-identical oracle lives in tests/test_net.cpp).
//
// The gated metrics are completion fractions rather than wall-clock rates:
// loopback timing varies across CI machines, but "everything admitted gets
// answered exactly once" must not. Emits a paper-style table plus a JSON
// blob (committed as BENCH_pr9.json).
#include <atomic>
#include <chrono>
#include <thread>

#include "harness.hpp"
#include "net/client.hpp"
#include "net/listener.hpp"
#include "rma/fault.hpp"

namespace {

using namespace gdi;
using namespace gdi::bench;

constexpr std::uint64_t kToken = 0x9dbadf00d1ceULL;

struct NetBenchEnv {
  std::shared_ptr<Database> db;
  std::uint32_t pt = 0;
  net::Listener* L = nullptr;
  std::uint16_t port = 0;
};

NetBenchEnv setup_net(rma::Rank& self, std::uint64_t n_vertices,
                      std::uint32_t credits) {
  DatabaseConfig c;
  c.block.block_size = 512;
  c.block.blocks_per_rank = n_vertices * 2 + 8192;
  c.dht.entries_per_rank = n_vertices * 2 + 4096;
  c.dht.buckets_per_rank = (n_vertices * 2 + 4096) / 8;
  c.commit_pipeline = true;
  c.server = true;
  c.net_listen = true;
  c.net_auth_token = kToken;
  c.net_credits = credits;
  NetBenchEnv env;
  env.db = Database::create(self, c);
  PropertyType pd{.name = "val", .dtype = Datatype::kInt64};
  env.pt = *env.db->create_ptype(self, pd);
  for (std::uint64_t id = 0; id < n_vertices; ++id) {
    Transaction txn(env.db, self, TxnMode::kWrite);
    auto vh = txn.create_vertex(id);
    if (vh.ok()) (void)txn.update_property(*vh, env.pt, PropValue{std::int64_t{1}});
    (void)txn.commit();
  }
  env.L = env.db->listener(self);
  (void)env.L->start();
  env.port = env.L->port();
  return env;
}

std::vector<server::Request> make_stream(int tenant, std::uint64_t n,
                                         std::uint64_t keys, std::uint32_t pt) {
  std::vector<server::Request> reqs;
  reqs.reserve(n);
  std::uint64_t state = 0x9e3779b9u + static_cast<std::uint64_t>(tenant);
  for (std::uint64_t k = 0; k < n; ++k) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    server::Request r;
    r.op = (state >> 33) % 10 < 7 ? server::OpKind::kGetProps
                                  : server::OpKind::kUpdateProp;
    r.a = (state >> 17) % keys;
    r.ptype = pt;
    r.value = static_cast<std::int64_t>(k);
    r.client_tag = k + 1;
    reqs.push_back(r);
  }
  return reqs;
}

net::ClientConfig client_cfg(const NetBenchEnv& env, int tenant) {
  net::ClientConfig cc;
  cc.port = env.port;
  cc.auth_token = kToken;
  cc.tenant_id = 1 + static_cast<std::uint64_t>(tenant);
  cc.io_timeout_ms = 2000;
  return cc;
}

}  // namespace

int main() {
  print_header("PR 9 -- socket front end: wire serving, backpressure isolation, churn",
               "transport robustness over the PR 7 scheduler");
  const int tenants = 4;
  const std::uint64_t keys = 256;
  const std::uint64_t per_tenant = bench_queries(4000);

  // -------------------------------------------------------------------------
  // Section 1: wire serving throughput + committed fraction
  // -------------------------------------------------------------------------
  double wire_kqps = 0, committed_frac = 0;
  std::uint64_t frames_rx = 0, frames_tx = 0;
  {
    rma::Runtime rt(1);
    rt.run([&](rma::Rank& self) {
      auto env = setup_net(self, keys, 32);
      std::vector<net::StreamResult> res(tenants);
      const auto t0 = std::chrono::steady_clock::now();
      std::vector<std::thread> cls;
      for (int t = 0; t < tenants; ++t)
        cls.emplace_back([&, t] {
          res[static_cast<std::size_t>(t)] = net::NetClient(client_cfg(env, t))
                                                 .run_stream(make_stream(
                                                     t, per_tenant, keys, env.pt));
        });
      std::thread stopper([&] {
        for (auto& c : cls) c.join();
        env.L->request_stop();
      });
      env.L->serve(env.db, self);
      stopper.join();
      const double secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      std::uint64_t completed = 0;
      for (const auto& r : res) completed += r.completed;
      wire_kqps = completed / secs / 1e3;
      committed_frac = static_cast<double>(completed) /
                       static_cast<double>(tenants * per_tenant);
      frames_rx = self.counters().net_frames_rx;
      frames_tx = self.counters().net_frames_tx;
    });
  }

  // -------------------------------------------------------------------------
  // Section 2: backpressure isolation (one slow reader)
  // -------------------------------------------------------------------------
  double isolation_frac = 0;
  std::size_t slow_peak_buffered = 0;
  std::uint64_t stalls = 0;
  {
    rma::Runtime rt(1);
    rt.run([&](rma::Rank& self) {
      const std::uint32_t credits = 16;
      auto env = setup_net(self, keys, credits);
      std::vector<net::StreamResult> res(tenants);
      std::atomic<bool> fast_done{false};
      std::thread slow([&] {
        net::NetClient cl(client_cfg(env, 0));
        if (cl.connect_handshake() != Status::kOk) return;
        auto reqs = make_stream(0, credits, keys, env.pt);
        for (const auto& r : reqs) (void)cl.send_request(r);
        while (!fast_done.load())
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        std::vector<server::Reply> reps;
        for (int i = 0; i < 20 && reps.size() < credits; ++i)
          (void)cl.poll_frames(&reps, 100);
        cl.finish();
      });
      std::vector<std::thread> cls;
      for (int t = 1; t < tenants; ++t)
        cls.emplace_back([&, t] {
          res[static_cast<std::size_t>(t)] = net::NetClient(client_cfg(env, t))
                                                 .run_stream(make_stream(
                                                     t, per_tenant, keys, env.pt));
        });
      std::thread stopper([&] {
        for (auto& c : cls) c.join();
        fast_done.store(true);
        slow.join();
        env.L->request_stop();
      });
      while (!env.L->stop_requested()) {
        (void)env.L->poll_once(env.db, self, 1);
        slow_peak_buffered = std::max(slow_peak_buffered, env.L->buffered_bytes());
      }
      env.L->serve(env.db, self);
      stopper.join();
      std::uint64_t completed = 0;
      for (int t = 1; t < tenants; ++t)
        completed += res[static_cast<std::size_t>(t)].completed;
      isolation_frac = static_cast<double>(completed) /
                       static_cast<double>((tenants - 1) * per_tenant);
      stalls = self.counters().net_backpressure_stalls;
    });
  }

  // -------------------------------------------------------------------------
  // Section 3: connection churn with seeded faults
  // -------------------------------------------------------------------------
  double churn_frac = 0;
  std::uint64_t reconnects = 0, bad_frames = 0, disconnects = 0;
  {
    rma::Runtime rt(1);
    rt.run([&](rma::Rank& self) {
      auto env = setup_net(self, keys, 8);
      const std::uint64_t churn_n = std::min<std::uint64_t>(per_tenant, 800);
      std::vector<net::StreamResult> res(tenants);
      std::vector<std::thread> cls;
      for (int t = 0; t < tenants; ++t)
        cls.emplace_back([&, t] {
          net::ClientConfig cc = client_cfg(env, t);
          cc.fault.seed = rma::fault_stream(rma::fault_seed_env(),
                                            rma::FaultLayer::kNetClient,
                                            static_cast<std::uint64_t>(t));
          cc.fault.corrupt_p = 0.01;
          cc.fault.truncate_p = 0.01;
          cc.fault.disconnect_p = 0.02;
          cc.fault.reorder_p = 0.03;
          cc.io_timeout_ms = 300;
          res[static_cast<std::size_t>(t)] =
              net::NetClient(cc).run_stream(make_stream(t, churn_n, keys, env.pt));
        });
      std::thread stopper([&] {
        for (auto& c : cls) c.join();
        env.L->request_stop();
      });
      env.L->serve(env.db, self);
      stopper.join();
      std::uint64_t completed = 0;
      for (const auto& r : res) {
        completed += r.completed;
        reconnects += r.reconnects;
      }
      churn_frac = static_cast<double>(completed) /
                   static_cast<double>(tenants * churn_n);
      bad_frames = self.counters().net_bad_frames;
      disconnects = self.counters().net_disconnects;
    });
  }

  stats::Table t({"measurement", "value"});
  t.add_row({"wire throughput kq/s (wall)", stats::Table::fmt(wire_kqps, 1)});
  t.add_row({"committed fraction", stats::Table::fmt(committed_frac, 4)});
  t.add_row({"frames rx/tx", std::to_string(frames_rx) + "/" + std::to_string(frames_tx)});
  t.add_row({"isolation fraction (slow reader)", stats::Table::fmt(isolation_frac, 4)});
  t.add_row({"slow-reader peak buffer B", std::to_string(slow_peak_buffered)});
  t.add_row({"backpressure stalls", std::to_string(stalls)});
  t.add_row({"churn committed fraction", stats::Table::fmt(churn_frac, 4)});
  t.add_row({"churn reconnects", std::to_string(reconnects)});
  t.add_row({"churn bad frames / drops",
             std::to_string(bad_frames) + "/" + std::to_string(disconnects)});
  std::cout << t.to_string();

  Record()
      .str("bench", "pr9_net")
      .str("description",
           "socket front end: wire serving, slow-reader isolation, churn with "
           "seeded faults")
      .num("ranks", 1)
      .num("tenants", tenants)
      .num("per_tenant", per_tenant)
      .num("wire_kqps", wire_kqps, 1)
      .num("committed_frac", committed_frac, 4)
      .num("isolation_frac", isolation_frac, 4)
      .num("churn_committed_frac", churn_frac, 4)
      .num("slow_peak_buffered", slow_peak_buffered)
      .num("reconnects", reconnects)
      .num("bad_frames", bad_frames)
      .print();
  std::cout << "\nExpected shape: every completed fraction is 1.0000 -- the\n"
               "transport never loses admitted work, a slow reader only stalls\n"
               "itself (its backlog is bounded by its credit window), and the\n"
               "churn stream completes exactly-once through reconnect-replay.\n";
  return (committed_frac == 1.0 && isolation_frac == 1.0 && churn_frac == 1.0)
             ? 0
             : 1;
}
