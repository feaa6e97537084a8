// Tests for the socket front end (src/net/): the per-rank poll-based
// listener speaking the CRC-framed wire protocol into the multi-tenant
// scheduler, and the exactly-once socket client driving it.
//
// Invariants pinned here:
//  * transport off by default: no cfg.net_listen -> no listener object, no
//    socket, byte-identical traffic to a server-only build;
//  * handshake: a wrong auth token is answered Bye(kAuthFailed) and the
//    server keeps serving well-behaved clients;
//  * malformed frames -- garbage, oversize lengths, CRC flips, torn frames,
//    credit overruns -- never crash the server, never leak a connection or a
//    session, never wedge admission: each counts net_bad_frames, the stream
//    closes with Bye(kProtocolError), and a clean client still completes;
//  * exactly-once resumption: a committed write replayed across a reconnect
//    is answered from the reply cache, never re-applied (kIncrement is the
//    witness: its final value counts executions);
//  * overload is a typed shed (kOverloaded + retry-after), and the shared
//    RetryBackoff client completes the stream through it;
//  * a slow reader throttles only itself: its tx backlog is bounded by its
//    credit window while another tenant's stream completes unimpeded;
//  * graceful drain: request_stop answers or typed-sheds everything admitted
//    and every kOk-acknowledged write is visible afterwards -- zero committed
//    loss, the WalTeardown guarantee at the transport layer;
//  * churn soak: N flaky clients (seeded corrupt/truncate/stall/disconnect/
//    reorder) complete exactly-once; the post-drain serialized rank is
//    byte-identical to a fault-free oracle run; no session/buffer leaks.
//
// NOTE: inside Runtime::run all assertions must be EXPECT_* (non-fatal);
// a fatal ASSERT would return from one rank's lambda and deadlock the team.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "gdi/gdi.hpp"
#include "net/client.hpp"
#include "net/listener.hpp"
#include "net/wire.hpp"
#include "rma/fault.hpp"
#include "server/scheduler.hpp"

namespace gdi {
namespace {

using net::ClientConfig;
using net::NetClient;
using server::OpKind;
using server::Reply;
using server::Request;

constexpr std::uint64_t kToken = 0xfeedfacecafef00dULL;

DatabaseConfig net_cfg() {
  DatabaseConfig c;
  c.block.block_size = 512;
  c.block.blocks_per_rank = 8192;
  c.dht.entries_per_rank = 4096;
  c.dht.buckets_per_rank = 512;
  c.server = true;
  c.net_listen = true;
  c.net_auth_token = kToken;
  return c;
}

std::uint32_t load_vertices(const std::shared_ptr<Database>& db,
                            rma::Rank& self, std::uint64_t n,
                            std::int64_t init) {
  PropertyType pd{.name = "val", .dtype = Datatype::kInt64};
  const std::uint32_t pt = *db->create_ptype(self, pd);
  for (std::uint64_t id = 0; id < n; ++id) {
    if (db->owner_rank(id) != static_cast<std::uint32_t>(self.id())) continue;
    Transaction txn(db, self, TxnMode::kWrite);
    auto vh = txn.create_vertex(id);
    EXPECT_TRUE(vh.ok());
    if (vh.ok()) EXPECT_EQ(txn.update_property(*vh, pt, PropValue{init}), Status::kOk);
    EXPECT_EQ(txn.commit(), Status::kOk);
  }
  self.barrier();
  return pt;
}

Request make_req(OpKind op, std::uint64_t a, std::uint32_t pt,
                 std::int64_t value = 0, std::uint64_t b = 0,
                 std::uint64_t tag = 0) {
  Request r;
  r.op = op;
  r.a = a;
  r.b = b;
  r.ptype = pt;
  r.value = value;
  r.arrival_ns = 0;
  r.client_tag = tag;
  return r;
}

ClientConfig client_cfg(std::uint16_t port, std::uint64_t tenant) {
  ClientConfig c;
  c.port = port;
  c.auth_token = kToken;
  c.tenant_id = tenant;
  c.io_timeout_ms = 2000;
  return c;
}

/// Read property `pt` of vertex `a` directly (rank thread, post-serve).
std::int64_t direct_read(const std::shared_ptr<Database>& db, rma::Rank& self,
                         std::uint64_t a, std::uint32_t pt) {
  Transaction txn(db, self, TxnMode::kRead);
  auto vh = txn.find_vertex(a);
  if (!vh.ok()) return -1;
  auto props = txn.get_properties(*vh, pt);
  if (!props.ok() || props->empty()) return -1;
  return std::get<std::int64_t>(props->front());
}

// ---------------------------------------------------------------------------
// Transport off by default
// ---------------------------------------------------------------------------

TEST(NetTransport, OffByDefault) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto cfg = net_cfg();
    cfg.net_listen = false;
    auto db = Database::create(self, cfg);
    EXPECT_NE(db->scheduler(self), nullptr);
    EXPECT_EQ(db->listener(self), nullptr);
  });
}

// ---------------------------------------------------------------------------
// Handshake + a full request/reply conversation, orderly close
// ---------------------------------------------------------------------------

TEST(NetTransport, HandshakeStreamAndOrderlyClose) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, net_cfg());
    const std::uint32_t pt = load_vertices(db, self, 64, 0);
    net::Listener* L = db->listener(self);
    EXPECT_NE(L, nullptr);
    EXPECT_EQ(L->start(), Status::kOk);
    const std::uint16_t port = L->port();
    EXPECT_NE(port, 0);

    const int T = 2;
    std::vector<net::StreamResult> results(T);
    std::vector<std::thread> clients;
    for (int t = 0; t < T; ++t) {
      clients.emplace_back([&, t] {
        NetClient cl(client_cfg(port, 1 + static_cast<std::uint64_t>(t)));
        std::vector<Request> reqs;
        std::uint64_t tag = 0;
        // Each tenant strides its own 16-key stripe: write then read back.
        const std::uint64_t base = static_cast<std::uint64_t>(t) * 16;
        for (std::uint64_t k = 0; k < 16; ++k) {
          reqs.push_back(make_req(OpKind::kUpdateProp, base + k, pt,
                                  static_cast<std::int64_t>(100 + k), 0, ++tag));
          reqs.push_back(make_req(OpKind::kGetProps, base + k, pt, 0, 0, ++tag));
        }
        results[static_cast<std::size_t>(t)] = cl.run_stream(reqs);
      });
    }
    std::thread stopper([&] {
      for (auto& c : clients) c.join();
      L->request_stop();
    });
    L->serve(db, self);
    stopper.join();

    for (int t = 0; t < T; ++t) {
      EXPECT_TRUE(results[static_cast<std::size_t>(t)].finished);
      EXPECT_EQ(results[static_cast<std::size_t>(t)].completed, 32u);
      EXPECT_EQ(results[static_cast<std::size_t>(t)].failed, 0u);
    }
    // Every write visible post-drain.
    for (int t = 0; t < T; ++t)
      for (std::uint64_t k = 0; k < 16; ++k)
        EXPECT_EQ(direct_read(db, self, static_cast<std::uint64_t>(t) * 16 + k, pt),
                  static_cast<std::int64_t>(100 + k));
    EXPECT_EQ(L->live_connections(), 0u);
    EXPECT_EQ(L->buffered_bytes(), 0u);
    const auto& c = self.counters();
    EXPECT_GE(c.net_accepted, 2u);
    EXPECT_GT(c.net_frames_rx, 0u);
    EXPECT_GT(c.net_frames_tx, 0u);
    EXPECT_EQ(c.net_bad_frames, 0u);
  });
}

// ---------------------------------------------------------------------------
// Auth
// ---------------------------------------------------------------------------

TEST(NetTransport, AuthRejectedThenGoodClientServed) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, net_cfg());
    const std::uint32_t pt = load_vertices(db, self, 8, 7);
    net::Listener* L = db->listener(self);
    EXPECT_EQ(L->start(), Status::kOk);
    const std::uint16_t port = L->port();

    std::atomic<int> bad_status{-1};
    bool good_ok = false;
    std::thread client([&] {
      ClientConfig bad = client_cfg(port, 1);
      bad.auth_token = kToken ^ 1;
      NetClient cb(bad);
      bad_status.store(static_cast<int>(cb.connect_handshake()));
      NetClient cg(client_cfg(port, 2));
      auto res = cg.run_stream({make_req(OpKind::kGetProps, 3, pt, 0, 0, 1)});
      good_ok = res.finished && res.ok == 1;
      L->request_stop();
    });
    L->serve(db, self);
    client.join();
    EXPECT_EQ(bad_status.load(), static_cast<int>(Status::kInvalidArgument));
    EXPECT_TRUE(good_ok);
    EXPECT_EQ(L->live_connections(), 0u);
  });
}

// ---------------------------------------------------------------------------
// Exactly-once resumption across a reconnect
// ---------------------------------------------------------------------------

TEST(NetResume, ReplayedCommittedWriteNotReapplied) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, net_cfg());
    const std::uint32_t pt = load_vertices(db, self, 8, 0);
    net::Listener* L = db->listener(self);
    EXPECT_EQ(L->start(), Status::kOk);
    const std::uint16_t port = L->port();

    bool hs1 = false, got1 = false, hs2 = false, replay_acked = false;
    std::uint64_t wm2 = 0;
    std::int64_t read_back = -1;
    std::thread client([&] {
      NetClient cl(client_cfg(port, 9));
      hs1 = cl.connect_handshake() == Status::kOk;
      // One increment, acknowledged, then a hard disconnect (no Bye).
      const Request inc = make_req(OpKind::kIncrement, 5, pt, 0, 0, 1);
      (void)cl.send_request(inc);
      std::vector<Reply> reps;
      (void)cl.poll_frames(&reps, 2000);
      got1 = reps.size() == 1 && reps[0].status == Status::kOk;
      cl.close_socket();

      // Reconnect: the watermark must cover tag 1, and replaying the same
      // increment must be answered without re-executing it.
      hs2 = cl.connect_handshake() == Status::kOk;
      wm2 = cl.watermark();
      (void)cl.send_request(inc);  // deliberate replay of a committed write
      reps.clear();
      (void)cl.poll_frames(&reps, 2000);
      replay_acked = reps.size() == 1 && reps[0].client_tag == 1;
      (void)cl.send_request(make_req(OpKind::kGetProps, 5, pt, 0, 0, 2));
      reps.clear();
      (void)cl.poll_frames(&reps, 2000);
      if (reps.size() == 1 && reps[0].status == Status::kOk) read_back = reps[0].v0;
      cl.finish();
      L->request_stop();
    });
    L->serve(db, self);
    client.join();

    EXPECT_TRUE(hs1);
    EXPECT_TRUE(got1);
    EXPECT_TRUE(hs2);
    EXPECT_GE(wm2, 1u);
    EXPECT_TRUE(replay_acked);
    EXPECT_EQ(read_back, 1);  // incremented ONCE despite the replay
    EXPECT_EQ(direct_read(db, self, 5, pt), 1);
  });
}

// ---------------------------------------------------------------------------
// Malformed frames (satellite: seeded truncation/corruption/oversize)
// ---------------------------------------------------------------------------

TEST(NetMalformed, GarbageNeverWedgesTheServer) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto cfg = net_cfg();
    cfg.net_credits = 1;  // makes the credit-overrun case deterministic
    auto db = Database::create(self, cfg);
    const std::uint32_t pt = load_vertices(db, self, 8, 3);
    net::Listener* L = db->listener(self);
    EXPECT_EQ(L->start(), Status::kOk);
    const std::uint16_t port = L->port();
    const auto c0 = self.counters();

    bool clean_ok = false;
    std::thread client([&] {
      const Request probe = make_req(OpKind::kGetProps, 1, pt, 0, 0, 1);
      // (a) pure garbage after a valid handshake.
      {
        NetClient cl(client_cfg(port, 1));
        if (cl.connect_handshake() == Status::kOk) {
          std::vector<std::byte> junk(64, std::byte{0xAB});
          (void)cl.send_raw(junk.data(), junk.size());
          net::ByeReason why = net::ByeReason::kDone;
          std::vector<Reply> sink;
          while (cl.poll_frames(&sink, 500, &why) && cl.connected()) {
          }
          EXPECT_EQ(why, net::ByeReason::kProtocolError);
        }
      }
      // (b) oversize length field.
      {
        NetClient cl(client_cfg(port, 2));
        if (cl.connect_handshake() == Status::kOk) {
          net::FrameHeader h;
          h.type = static_cast<std::uint8_t>(net::FrameType::kRequest);
          h.len = net::kMaxFrameLen + 1;
          h.crc = 0;
          (void)cl.send_raw(&h, sizeof(h));
          std::vector<Reply> sink;
          while (cl.poll_frames(&sink, 500) && cl.connected()) {
          }
        }
      }
      // (c) CRC flip inside an otherwise valid request frame.
      {
        NetClient cl(client_cfg(port, 3));
        if (cl.connect_handshake() == Status::kOk) {
          std::vector<std::byte> f;
          net::encode_frame(f, net::FrameType::kRequest, probe);
          f[sizeof(net::FrameHeader) + 4] ^= std::byte{0x01};
          (void)cl.send_raw(f.data(), f.size());
          std::vector<Reply> sink;
          while (cl.poll_frames(&sink, 500) && cl.connected()) {
          }
        }
      }
      // (d) torn frame: a prefix, then the connection dies.
      {
        NetClient cl(client_cfg(port, 4));
        if (cl.connect_handshake() == Status::kOk) {
          std::vector<std::byte> f;
          net::encode_frame(f, net::FrameType::kRequest, probe);
          (void)cl.send_raw(f.data(), 10);
          cl.close_socket();
        }
      }
      // (e) credit overrun: two back-to-back requests on a 1-credit window.
      {
        NetClient cl(client_cfg(port, 5));
        if (cl.connect_handshake() == Status::kOk) {
          std::vector<std::byte> f;
          net::encode_frame(f, net::FrameType::kRequest,
                            make_req(OpKind::kGetProps, 1, pt, 0, 0, 1));
          net::encode_frame(f, net::FrameType::kRequest,
                            make_req(OpKind::kGetProps, 2, pt, 0, 0, 2));
          (void)cl.send_raw(f.data(), f.size());
          net::ByeReason why = net::ByeReason::kDone;
          std::vector<Reply> sink;
          while (cl.poll_frames(&sink, 500, &why) && cl.connected()) {
          }
          EXPECT_EQ(why, net::ByeReason::kProtocolError);
        }
      }
      // After all of that, a clean client must still be served.
      {
        NetClient cl(client_cfg(port, 6));
        auto res = cl.run_stream({make_req(OpKind::kGetProps, 2, pt, 0, 0, 1),
                                  make_req(OpKind::kUpdateProp, 2, pt, 42, 0, 2)});
        clean_ok = res.finished && res.failed == 0;
      }
      L->request_stop();
    });
    L->serve(db, self);
    client.join();

    EXPECT_TRUE(clean_ok);
    EXPECT_EQ(direct_read(db, self, 2, pt), 42);
    const auto d = self.counters().delta(c0);
    EXPECT_GE(d.net_bad_frames, 4u);  // (a), (b), (c), (e)
    EXPECT_EQ(L->live_connections(), 0u);
    EXPECT_EQ(L->buffered_bytes(), 0u);
  });
}

// ---------------------------------------------------------------------------
// Handshake + idle deadlines: silent peers cannot pin a connection slot
// ---------------------------------------------------------------------------

TEST(NetTimeouts, HandshakeAndIdleDeadlinesClose) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto cfg = net_cfg();
    cfg.net_handshake_timeout_ms = 100;
    cfg.net_idle_timeout_ms = 100;
    auto db = Database::create(self, cfg);
    (void)load_vertices(db, self, 4, 7);
    net::Listener* L = db->listener(self);
    EXPECT_EQ(L->start(), Status::kOk);
    const std::uint16_t port = L->port();
    const auto c0 = self.counters();

    bool mute_dropped = false;
    bool idle_disconnected = false;
    net::ByeReason idle_why = net::ByeReason::kDone;
    std::thread client([&] {
      // (1) connect and never send Hello: the handshake deadline drops us.
      {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in a{};
        a.sin_family = AF_INET;
        a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        a.sin_port = htons(port);
        if (fd >= 0 &&
            ::connect(fd, reinterpret_cast<sockaddr*>(&a), sizeof(a)) == 0) {
          std::byte buf[256];
          ssize_t n;
          while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
          }  // drain the Bye flush attempt, then EOF
          mute_dropped = (n == 0);
        }
        if (fd >= 0) ::close(fd);
      }
      // (2) handshake, then silence: the idle deadline sends a typed Bye.
      {
        NetClient cl(client_cfg(port, 1));
        if (cl.connect_handshake() == Status::kOk) {
          std::vector<Reply> sink;
          while (cl.poll_frames(&sink, 2000, &idle_why) && cl.connected()) {
          }
          idle_disconnected = !cl.connected();
        }
      }
      L->request_stop();
    });
    L->serve(db, self);
    client.join();

    EXPECT_TRUE(mute_dropped);
    EXPECT_TRUE(idle_disconnected);
    EXPECT_EQ(idle_why, net::ByeReason::kIdleTimeout);
    EXPECT_EQ(L->live_connections(), 0u);
    EXPECT_GE(self.counters().delta(c0).net_disconnects, 1u);
  });
}

TEST(NetTimeouts, ZeroTimeoutPollReadsBufferedReply) {
  // poll_frames(..., 0) must read what the kernel already holds: a reply
  // sitting in the socket buffer is returned without a wait. Repeated zero
  // polls (bounded by a deadline) cover a reply still in flight.
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, net_cfg());
    const std::uint32_t pt = load_vertices(db, self, 4, 7);
    net::Listener* L = db->listener(self);
    EXPECT_EQ(L->start(), Status::kOk);
    const std::uint16_t port = L->port();

    std::vector<Reply> got;
    int zero_polls = 0;
    std::thread client([&] {
      NetClient cl(client_cfg(port, 1));
      if (cl.connect_handshake() == Status::kOk &&
          cl.send_request(make_req(OpKind::kGetProps, 2, pt, 0, 0, 1)) == Status::kOk) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
        while (got.empty() && std::chrono::steady_clock::now() < deadline) {
          ++zero_polls;
          if (!cl.poll_frames(&got, 0)) break;
        }
        cl.finish();
      }
      L->request_stop();
    });
    L->serve(db, self);
    client.join();

    EXPECT_EQ(got.size(), 1u) << "after " << zero_polls << " zero-timeout polls";
    if (!got.empty()) {
      EXPECT_EQ(got[0].client_tag, 1u);
      EXPECT_EQ(got[0].status, Status::kOk);
      EXPECT_EQ(got[0].v0, 7);
    }
  });
}

// ---------------------------------------------------------------------------
// Overload: typed shed + shared retry policy completes the stream
// ---------------------------------------------------------------------------

TEST(NetOverload, TypedShedAndBackoffCompletes) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto cfg = net_cfg();
    cfg.server_inflight_per_tenant = 1;  // shed nearly every burst
    cfg.net_credits = 8;
    auto db = Database::create(self, cfg);
    const std::uint32_t pt = load_vertices(db, self, 16, 0);
    net::Listener* L = db->listener(self);
    EXPECT_EQ(L->start(), Status::kOk);
    const std::uint16_t port = L->port();

    net::StreamResult res;
    std::thread client([&] {
      NetClient cl(client_cfg(port, 1));
      std::vector<Request> reqs;
      for (std::uint64_t k = 0; k < 64; ++k)
        reqs.push_back(make_req(OpKind::kUpdateProp, k % 16, pt,
                                static_cast<std::int64_t>(k), 0, k + 1));
      res = cl.run_stream(reqs);
      L->request_stop();
    });
    L->serve(db, self);
    client.join();

    EXPECT_TRUE(res.finished);
    EXPECT_EQ(res.completed, 64u);
    EXPECT_EQ(res.failed, 0u);
    // An 8-deep burst against a 1-deep admission cap must shed.
    EXPECT_GT(res.overload_sheds, 0u);
    EXPECT_GT(self.counters().sched_admission_rejects, 0u);
  });
}

// ---------------------------------------------------------------------------
// Backpressure isolation: a slow reader throttles only itself
// ---------------------------------------------------------------------------

TEST(NetBackpressure, SlowReaderBoundedAndIsolated) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto cfg = net_cfg();
    cfg.net_credits = 4;
    auto db = Database::create(self, cfg);
    const std::uint32_t pt = load_vertices(db, self, 64, 5);
    net::Listener* L = db->listener(self);
    EXPECT_EQ(L->start(), Status::kOk);
    const std::uint16_t port = L->port();
    const std::size_t frame_cap =
        (cfg.net_credits + 2) * (sizeof(net::FrameHeader) + sizeof(Reply));

    std::atomic<bool> slow_connected{false};
    std::atomic<bool> fast_done{false};
    net::StreamResult fast_res;
    std::size_t slow_peak_buffered = 0;
    std::uint64_t slow_replies = 0;

    std::thread slow([&] {
      // Sends its whole window, then refuses to read until the fast tenant
      // has finished. The server may buffer at most ~window replies for it.
      NetClient cl(client_cfg(port, 1));
      if (cl.connect_handshake() != Status::kOk) return;
      slow_connected.store(true);
      for (std::uint64_t k = 0; k < cfg.net_credits; ++k)
        (void)cl.send_request(make_req(OpKind::kGetProps, k, pt, 0, 0, k + 1));
      while (!fast_done.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      std::vector<Reply> reps;
      for (int i = 0; i < 20 && reps.size() < cfg.net_credits; ++i)
        (void)cl.poll_frames(&reps, 100);
      slow_replies = reps.size();
      cl.finish();
    });
    std::thread fast([&] {
      while (!slow_connected.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      NetClient cl(client_cfg(port, 2));
      std::vector<Request> reqs;
      for (std::uint64_t k = 0; k < 128; ++k)
        reqs.push_back(make_req(k % 2 == 0 ? OpKind::kGetProps : OpKind::kUpdateProp,
                                32 + (k % 32), pt, 9, 0, k + 1));
      fast_res = cl.run_stream(reqs);
      fast_done.store(true);
    });
    std::thread stopper([&] {
      slow.join();
      fast.join();
      L->request_stop();
    });
    // Sample the buffered-bytes high water from the rank thread's own loop.
    while (!L->stop_requested()) {
      (void)L->poll_once(db, self, 1);
      slow_peak_buffered = std::max(slow_peak_buffered, L->buffered_bytes());
    }
    L->serve(db, self);
    stopper.join();

    EXPECT_TRUE(fast_res.finished);  // the fast tenant never waited on the slow one
    EXPECT_EQ(fast_res.completed, 128u);
    EXPECT_EQ(slow_replies, cfg.net_credits);  // nothing lost, window-bounded
    // The slow reader's backlog stayed within its credit window (plus the
    // fast tenant's transient frames).
    EXPECT_LE(slow_peak_buffered, 2 * frame_cap);
    EXPECT_EQ(L->live_connections(), 0u);
    EXPECT_EQ(L->buffered_bytes(), 0u);
  });
}

// ---------------------------------------------------------------------------
// Graceful drain: zero committed loss
// ---------------------------------------------------------------------------

TEST(NetDrain, StopMidStreamAnswersOrShedsEverything) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, net_cfg());
    const std::uint32_t pt = load_vertices(db, self, 256, 0);
    net::Listener* L = db->listener(self);
    EXPECT_EQ(L->start(), Status::kOk);
    const std::uint16_t port = L->port();

    std::vector<std::uint64_t> acked_keys;
    std::uint64_t shed_shutdown = 0, answered = 0, sent = 0;
    std::thread client([&] {
      NetClient cl(client_cfg(port, 1));
      if (cl.connect_handshake() != Status::kOk) return;
      // One write at a time; the stop lands mid-stream.
      for (std::uint64_t k = 0; k < 256 && cl.connected(); ++k) {
        if (k == 64) L->request_stop();
        const Request w = make_req(OpKind::kUpdateProp, k, pt,
                                   static_cast<std::int64_t>(k + 1), 0, k + 1);
        if (cl.send_request(w) != Status::kOk) break;
        ++sent;
        std::vector<Reply> reps;
        const bool alive = cl.poll_frames(&reps, 2000);
        for (const Reply& rep : reps) {
          ++answered;
          if (rep.status == Status::kOk) acked_keys.push_back(rep.client_tag - 1);
          if (rep.status == Status::kShutdown) ++shed_shutdown;
        }
        if (!alive) break;
      }
      cl.finish();
    });
    L->serve(db, self);
    client.join();

    // Every request that went out was answered (reply or typed kShutdown
    // shed) except at most the one the closing Bye overtook in flight --
    // nothing silently vanished.
    EXPECT_LE(sent - answered, 1u);
    EXPECT_GT(acked_keys.size(), 0u);
    (void)shed_shutdown;  // possible but timing-dependent; typed-shed
                          // correctness is unit-tested at the Session level
    // Zero committed loss: every kOk-acknowledged write is visible.
    for (const std::uint64_t k : acked_keys)
      EXPECT_EQ(direct_read(db, self, k, pt), static_cast<std::int64_t>(k + 1));
    EXPECT_EQ(L->live_connections(), 0u);
    EXPECT_EQ(L->buffered_bytes(), 0u);
  });
}

// ---------------------------------------------------------------------------
// Churn soak: flaky clients, byte-identical to a fault-free oracle
// ---------------------------------------------------------------------------

TEST(NetChurnSoak, ExactlyOnceAndByteIdenticalToOracle) {
  constexpr int T = 4;            // tenants (one flaky client each)
  constexpr std::uint64_t K = 24; // disjoint key stripe per tenant
  constexpr std::uint64_t N = 3 * K;  // requests per tenant

  // Each tenant's stream over its own stripe: two kIncrements per key plus a
  // read. kIncrement is the exactly-once witness -- a lost commit leaves the
  // key at 1, a replayed execution pushes it to 3, only exactly-once lands on
  // 2. Increments also commute, which matters: the reorder fault legitimately
  // swaps adjacent in-window frames, so an order-DEPENDENT pair (update then
  // increment) would diverge from the oracle without any transport bug.
  const auto build_stream = [](int t, std::uint32_t pt) {
    std::vector<Request> reqs;
    const std::uint64_t base = static_cast<std::uint64_t>(t) * K;
    std::uint64_t tag = 0;
    for (std::uint64_t k = 0; k < K; ++k) {
      reqs.push_back(make_req(OpKind::kIncrement, base + k, pt, 0, 0, ++tag));
      reqs.push_back(make_req(OpKind::kIncrement, base + k, pt, 0, 0, ++tag));
      reqs.push_back(make_req(OpKind::kGetProps, base + k, pt, 0, 0, ++tag));
    }
    return reqs;
  };

  const auto run_pass = [&](bool faulty, std::vector<std::byte>* bytes,
                            bool* all_finished, std::uint64_t* reconnects) {
    rma::Runtime rt(1);
    rt.run([&](rma::Rank& self) {
      auto cfg = net_cfg();
      cfg.net_credits = 8;
      auto db = Database::create(self, cfg);
      const std::uint32_t pt = load_vertices(db, self, T * K, 0);
      net::Listener* L = db->listener(self);
      EXPECT_EQ(L->start(), Status::kOk);
      const std::uint16_t port = L->port();

      std::vector<net::StreamResult> results(T);
      std::vector<std::thread> clients;
      for (int t = 0; t < T; ++t) {
        clients.emplace_back([&, t] {
          ClientConfig cc = client_cfg(port, 1 + static_cast<std::uint64_t>(t));
          if (faulty) {
            cc.fault.seed = rma::fault_stream(rma::fault_seed_env(),
                                              rma::FaultLayer::kNetClient,
                                              static_cast<std::uint64_t>(t));
            cc.fault.corrupt_p = 0.02;
            cc.fault.truncate_p = 0.02;
            cc.fault.disconnect_p = 0.03;
            cc.fault.reorder_p = 0.05;
            cc.fault.stall_p = 0.02;
            cc.fault.stall_ms = 0.5;
            cc.io_timeout_ms = 500;  // wedged-window recovery, not patience
          }
          results[static_cast<std::size_t>(t)] = NetClient(cc).run_stream(
              build_stream(t, pt));
        });
      }
      std::thread stopper([&] {
        for (auto& c : clients) c.join();
        L->request_stop();
      });
      L->serve(db, self);
      stopper.join();

      *all_finished = true;
      *reconnects = 0;
      for (int t = 0; t < T; ++t) {
        const auto& r = results[static_cast<std::size_t>(t)];
        EXPECT_TRUE(r.finished) << "tenant " << t;
        EXPECT_EQ(r.completed, N) << "tenant " << t;
        EXPECT_EQ(r.failed, 0u) << "tenant " << t;
        *all_finished = *all_finished && r.finished;
        *reconnects += r.reconnects;
      }
      // No leaked connections, buffers, or sessions: the roster is bounded
      // by peak concurrency (<= one live + one draining orphan per tenant).
      EXPECT_EQ(L->live_connections(), 0u);
      EXPECT_EQ(L->buffered_bytes(), 0u);
      EXPECT_LE(L->tenant_states(), static_cast<std::size_t>(T));
      EXPECT_LE(db->scheduler(self)->sessions(), static_cast<std::size_t>(2 * T));
      *bytes = db->serialize_rank(0);
    });
  };

  std::vector<std::byte> oracle_bytes, soak_bytes;
  bool oracle_finished = false, soak_finished = false;
  std::uint64_t oracle_reconnects = 0, soak_reconnects = 0;
  run_pass(/*faulty=*/false, &oracle_bytes, &oracle_finished, &oracle_reconnects);
  run_pass(/*faulty=*/true, &soak_bytes, &soak_finished, &soak_reconnects);

  ASSERT_TRUE(oracle_finished);
  ASSERT_TRUE(soak_finished);
  EXPECT_EQ(oracle_reconnects, static_cast<std::uint64_t>(T));  // initial connects only
  EXPECT_GT(soak_reconnects, static_cast<std::uint64_t>(T));    // the faults bit
  // The acceptance bar: despite corruption, torn frames, disconnects, and
  // replays, the final rank image is byte-identical to the fault-free run.
  ASSERT_EQ(oracle_bytes.size(), soak_bytes.size());
  EXPECT_EQ(std::memcmp(oracle_bytes.data(), soak_bytes.data(),
                        oracle_bytes.size()),
            0);
}

}  // namespace
}  // namespace gdi
