// PR 10 perf snapshot: crash-restart survivability of the socket front end.
//
// One measurement on one rank with real loopback TCP clients, the WAL on,
// and a server-side kill switch armed: flaky-free clients stream increments,
// the rank dies at the pre-ack point (commit durable, reply unsent), the
// database recovers into the SAME port, and the clients ride the restart
// through their ordinary reconnect-replay path.
//
//  * committed fraction (gated, pinned 1.0): every increment acknowledged
//    exactly once across the death -- nothing lost in the
//    committed-but-unacked window, nothing double-executed after it.
//
//  * replay hit rate (gated, pinned 1.0): of the completed writes the
//    clients replay at the recovered server, the fraction answered from the
//    WAL-rebuilt reply cache. A miss would mean the recovered watermark or
//    cache lost an acknowledgement the log carries.
//
//  * recovery wall-clock and wire throughput are reported informationally
//    (kernel timing, machine-dependent, not gated).
//
// The gated metrics are fractions rather than rates for the same reason as
// BENCH_pr9: loopback timing varies across CI machines, but "a crash is
// indistinguishable from a slow network" must not. Emits a paper-style table
// plus a JSON blob (committed as BENCH_pr10.json).
#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#include "harness.hpp"
#include "net/client.hpp"
#include "net/listener.hpp"
#include "rma/fault.hpp"

namespace {

using namespace gdi;
using namespace gdi::bench;

constexpr std::uint64_t kToken = 0xbadc0ffee0ddf00dULL;

DatabaseConfig recovery_cfg(const std::string& dir) {
  DatabaseConfig c;
  c.block.block_size = 512;
  c.block.blocks_per_rank = 16384;
  c.dht.entries_per_rank = 8192;
  c.dht.buckets_per_rank = 1024;
  c.server = true;
  c.net_listen = true;
  c.net_auth_token = kToken;
  c.wal = true;
  c.wal_dir = dir;
  c.wal_checkpoint_epochs = 64;
  // Pipeline off: each commit seals eagerly, so every harvested reply is
  // already durable -- the pre-ack kill point is exactly the
  // committed-durable-but-unacked window.
  c.commit_pipeline = false;
  return c;
}

std::uint32_t ensure_ptype(const std::shared_ptr<Database>& db,
                           rma::Rank& self) {
  auto existing = db->ptype_from_name(self, "val");
  if (existing.ok()) return *existing;
  PropertyType pd{.name = "val", .dtype = Datatype::kInt64};
  return *db->create_ptype(self, pd);
}

std::vector<server::Request> increment_stream(std::uint64_t base,
                                              std::uint64_t stripe,
                                              std::uint64_t n,
                                              std::uint32_t pt) {
  std::vector<server::Request> reqs;
  reqs.reserve(n);
  for (std::uint64_t k = 0; k < n; ++k) {
    server::Request r;
    r.op = server::OpKind::kIncrement;
    r.a = base + k % stripe;
    r.ptype = pt;
    r.client_tag = k + 1;
    reqs.push_back(r);
  }
  return reqs;
}

}  // namespace

int main() {
  print_header(
      "PR 10 -- crash-restart survivability: pre-ack kill, recover, replay",
      "durable session replay state over the PR 9 socket front end");
  const int tenants = 3;
  const std::uint64_t per_tenant = bench_queries(2400);
  // Wide stripes: few increments per vertex, so no holder regrows a block
  // mid-run and the recovered image stays history-independent.
  const std::uint64_t stripe = std::max<std::uint64_t>(per_tenant / 3, 8);
  const std::uint64_t base_seed = rma::fault_seed_env();

  const std::string dir =
      (std::filesystem::temp_directory_path() / "gdi_bench_pr10").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  std::atomic<bool> done{false};
  std::atomic<int> remaining{tenants};
  std::vector<std::thread> clients;
  std::vector<net::StreamResult> res(tenants);
  std::uint16_t port = 0;
  std::vector<std::unique_ptr<net::ServerFaultInjector>> sinjs;
  std::vector<std::unique_ptr<rma::FaultInjector>> rinjs;

  int kills = 0, passes = 0;
  double recovery_ms = 0;
  std::uint64_t replay_hits = 0, replay_misses = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int pass = 0; pass < 16; ++pass) {
    passes = pass + 1;
    net::ServerFaultConfig sfc;
    if (pass == 0) {
      sfc.kill_at = net::ServerKillPoint::kPreAck;
      sfc.kill_after = std::max<std::uint64_t>(per_tenant / 2, 8);
    }
    sinjs.push_back(std::make_unique<net::ServerFaultInjector>(sfc));
    rma::FaultConfig rfc;
    rfc.seed = rma::fault_stream(base_seed, rma::FaultLayer::kRma,
                                 static_cast<std::uint64_t>(pass));
    rinjs.push_back(std::make_unique<rma::FaultInjector>(rfc));

    bool pass_killed = false;
    try {
      rma::Runtime rt(1);
      rt.run([&](rma::Rank& self) {
        auto cfg = recovery_cfg(dir);
        cfg.net_port = port;  // 0 on pass 0 (ephemeral), then pinned
        const auto r0 = std::chrono::steady_clock::now();
        auto db = pass == 0 ? Database::create(self, cfg)
                            : Database::recover(self, cfg);
        if (db == nullptr) return;
        // Rank-local schema: a restarted server re-declares it before the
        // socket reopens (the same id comes back).
        const std::uint32_t pt = ensure_ptype(db, self);
        if (pass == 0)
          for (std::uint64_t v = 0; v < tenants * stripe; ++v) {
            Transaction txn(db, self, TxnMode::kWrite);
            auto vh = txn.create_vertex(v);
            if (vh.ok())
              (void)txn.update_property(*vh, pt, PropValue{std::int64_t{0}});
            (void)txn.commit();
          }
        self.set_fault_injector(rinjs.back().get());
        net::Listener* L = db->listener(self);
        if (L->start() != Status::kOk) return;
        L->set_fault_injector(sinjs.back().get());
        if (pass > 0)
          recovery_ms +=
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - r0)
                  .count();
        if (pass == 0) {
          port = L->port();
          for (int t = 0; t < tenants; ++t)
            clients.emplace_back([&, pt, t] {
              net::ClientConfig cc;
              cc.port = port;
              cc.auth_token = kToken;
              cc.tenant_id = 1 + static_cast<std::uint64_t>(t);
              cc.io_timeout_ms = 300;
              cc.max_reconnects = 1u << 20;  // ride out the restart gap
              cc.fault.seed = rma::fault_stream(
                  base_seed, rma::FaultLayer::kNetClient,
                  static_cast<std::uint64_t>(t));
              cc.fault.corrupt_p = 0.01;
              cc.fault.truncate_p = 0.01;
              cc.fault.disconnect_p = 0.02;
              cc.fault.reorder_p = 0.03;
              res[static_cast<std::size_t>(t)] =
                  net::NetClient(cc).run_stream(increment_stream(
                      static_cast<std::uint64_t>(t) * stripe, stripe,
                      per_tenant, pt));
              if (remaining.fetch_sub(1) == 1)
                done.store(true, std::memory_order_release);
            });
        }
        while (!done.load(std::memory_order_acquire))
          (void)L->poll_once(db, self, 5);
        if (pass > 0) {
          // Deterministic replay probe against the RECOVERED cache: a
          // "stale" reconnect replays tenant 1's final committed write. The
          // restart must answer it from the WAL-rebuilt reply cache (one
          // guaranteed hit), never re-execute it.
          std::atomic<bool> probe_done{false};
          std::thread probe([&] {
            net::ClientConfig cc;
            cc.port = port;
            cc.auth_token = kToken;
            cc.tenant_id = 1;
            net::NetClient p(cc);
            if (p.connect_handshake() == Status::kOk) {
              server::Request r;
              r.op = server::OpKind::kIncrement;
              r.a = (per_tenant - 1) % stripe;
              r.ptype = pt;
              r.client_tag = per_tenant;
              (void)p.send_request(r);
              std::vector<server::Reply> got;
              net::ByeReason why = net::ByeReason::kDone;
              (void)p.poll_frames(&got, 2000, &why);
              p.finish();
            }
            probe_done.store(true, std::memory_order_release);
          });
          while (!probe_done.load(std::memory_order_acquire))
            (void)L->poll_once(db, self, 5);
          probe.join();
        }
        L->request_stop();
        L->serve(db, self);
        replay_hits += self.counters().net_replay_hits;
        replay_misses += self.counters().net_replay_cache_misses;
      });
    } catch (const rma::FaultKill&) {
      pass_killed = true;
      ++kills;
    }
    if (!pass_killed) break;
  }
  for (auto& c : clients) c.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::uint64_t completed = 0, failed = 0;
  std::uint64_t reconnects = 0;
  bool finished = true;
  for (const auto& r : res) {
    completed += r.ok;
    failed += r.failed;
    reconnects += r.reconnects;
    finished = finished && r.finished;
  }
  const double committed_frac =
      failed == 0 && finished
          ? static_cast<double>(completed) /
                static_cast<double>(tenants * per_tenant)
          : 0.0;
  // Every replayed completed write must be a cache hit; a miss means the
  // recovered replay state lost an acknowledgement the WAL carries.
  const double replay_hit_rate =
      replay_hits > 0 ? static_cast<double>(replay_hits) /
                            static_cast<double>(replay_hits + replay_misses)
                      : 0.0;
  const double wire_kqps = completed / secs / 1e3;

  stats::Table t({"measurement", "value"});
  t.add_row({"committed fraction (across kill+restart)",
             stats::Table::fmt(committed_frac, 4)});
  t.add_row({"replay hit rate (recovered cache)",
             stats::Table::fmt(replay_hit_rate, 4)});
  t.add_row({"server deaths / passes",
             std::to_string(kills) + "/" + std::to_string(passes)});
  t.add_row({"replay hits / misses", std::to_string(replay_hits) + "/" +
                                         std::to_string(replay_misses)});
  t.add_row({"recover + rebind ms", stats::Table::fmt(recovery_ms, 1)});
  t.add_row({"client reconnects", std::to_string(reconnects)});
  t.add_row({"wire throughput kq/s (wall)", stats::Table::fmt(wire_kqps, 1)});
  std::cout << t.to_string();

  Record()
      .str("bench", "pr10_recovery")
      .str("description",
           "pre-ack server kill + recover-integrated restart: exactly-once across "
           "the death")
      .num("ranks", 1)
      .num("tenants", tenants)
      .num("per_tenant", per_tenant)
      .num("committed_frac", committed_frac, 4)
      .num("replay_hit_rate", replay_hit_rate, 4)
      .num("kills", kills)
      .num("passes", passes)
      .num("replay_hits", replay_hits)
      .num("replay_misses", replay_misses)
      .num("recovery_ms", recovery_ms, 1)
      .num("reconnects", reconnects)
      .print();
  std::cout << "\nExpected shape: both fractions are 1.0000 -- the server "
               "died at least\nonce with a committed-but-unacked write, the "
               "restart answered every\nreplayed write from the recovered "
               "cache, and no increment was lost or\ndouble-executed.\n";
  std::filesystem::remove_all(dir);
  return (committed_frac == 1.0 && replay_hit_rate == 1.0 && kills >= 1) ? 0
                                                                         : 1;
}
