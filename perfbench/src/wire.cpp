// wire: the socket front end. One rank runs the listener, the tenant
// scheduler, the commit pipeline and the WAL over a bulk-loaded scale-15
// graph; one load generator with two client threads drives three
// connections (one tenant each) open loop.
//
// Phases, each drained before the next: a warm-up at the `lo` rate, the
// fixed rates `lo` and `hi`, then a rate ladder above `hi`: 25% steps up to the
// first rung whose p99 breaks kP99LimitUs or whose backlog grows, then 5%
// steps from the last passing rate up to the next such rung. Every request
// is timed from when it was due to when its reply was read, so a stalled
// generator or a queue that builds up shows in the latency; the generator's
// own lateness is reported too.
//
// Requests are 80% kGetProps and 20% kUpdateProp over Zipf-skewed ids; each
// tenant updates only its own partition (id % 3 == tenant - 1), so a tenant's
// read of its own id must return its last acknowledged write or a later one.
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "net/client.hpp"
#include "net/listener.hpp"
#include "server/scheduler.hpp"

namespace perfbench {
namespace {

constexpr int kSetups = 5;  // set-ups per run; setup_s is their median
constexpr int kConns = 3;
constexpr int kClientThreads = 2;
constexpr double kLoKqps = 10;
constexpr double kHiKqps = 40;
constexpr double kCoarseStep = 1.25;
constexpr double kFineStep = 1.05;
constexpr double kRungSeconds = 0.4;
constexpr double kWarmSeconds = 0.5;
/// p99 limit of the ladder (µs), fixed from calibration runs on a 4-vCPU box.
constexpr double kP99LimitUs = 2000;
constexpr double kZipfS = 0.99;
constexpr double kReadFrac = 0.8;
constexpr std::uint64_t kToken = 0x5eedbe4c4ULL;
constexpr std::uint64_t kReferenceSeed = 1;
constexpr std::uint64_t kRefStreamFp = 0xa1ceda7c19b80cbfULL;

/// One request of a connection's stream, with what the generator saw.
struct Req {
  server::Request r;
  double due = 0, sent = -1, done = -1;  ///< wall seconds
  std::int64_t floor = -1;  ///< own-partition reads: last acked value at send
  std::int64_t v0 = 0;
  Status st = Status::kOk;
  int phase = 0;
};

struct Phase {
  const char* name;
  double kqps;
  double seconds;
};

/// Zipf(kZipfS) ranks over [0, n) mapped through a bijection of [0, n)
/// (n a power of two), so hot ids are spread over the id space.
class ZipfIds {
 public:
  ZipfIds(std::uint64_t n, std::uint64_t seed) : n_(n), off_(splitmix64(seed) & (n - 1)) {
    cdf_.resize(n);
    double acc = 0;
    for (std::uint64_t i = 0; i < n; ++i) cdf_[i] = acc += 1.0 / std::pow(double(i + 1), kZipfS);
    for (auto& c : cdf_) c /= acc;
  }
  std::uint64_t draw(CounterRng& rng) const {
    const double u = rng.next_unit();
    const auto rank = static_cast<std::uint64_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return (std::min(rank, n_ - 1) * 0x9E3779B97F4A7C15ULL + off_) & (n_ - 1);
  }

 private:
  std::uint64_t n_, off_;
  std::vector<double> cdf_;
};

/// Connection c's request for global request index k of its stream.
server::Request make_request(const ZipfIds& z, std::uint64_t seed, int c, std::uint64_t k,
                             std::uint64_t n, std::uint32_t ptype) {
  CounterRng rng(hash_combine(hash_combine(seed, 0x3172E + static_cast<std::uint64_t>(c)), k));
  server::Request r;
  r.ptype = ptype;
  r.client_tag = k + 1;
  std::uint64_t id = z.draw(rng);
  if (rng.next_unit() < kReadFrac) {
    r.op = server::OpKind::kGetProps;
  } else {
    r.op = server::OpKind::kUpdateProp;
    id = id - id % kConns + static_cast<std::uint64_t>(c);  // own partition
    if (id >= n) id -= kConns;
    r.value = 1000 + static_cast<std::int64_t>((static_cast<std::uint64_t>(c + 1) << 40) | (k + 1));
  }
  r.a = id;
  return r;
}

std::uint64_t stream_fingerprint(std::uint64_t seed, std::uint64_t n) {
  const ZipfIds z(n, seed);
  Fingerprint fp;
  for (int c = 0; c < kConns; ++c)
    for (std::uint64_t k = 0; k < 4096; ++k) {
      const auto r = make_request(z, seed, c, k, n, 1);
      fp.add(static_cast<std::uint64_t>(r.op));
      fp.add(r.a);
      fp.add(static_cast<std::uint64_t>(r.value));
    }
  return fp.value();
}

struct PhaseResult {
  std::vector<double> lat_us, write_lat_us, tail_lat_us;
  double late_ms_max = 0;
  std::uint64_t completed = 0;
  double first_due = 1e300, last_done = 0;
  [[nodiscard]] double achieved_kqps() const {
    return static_cast<double>(completed) / (last_done - first_due) / 1e3;
  }
  [[nodiscard]] double p(double q) const { return percentile(lat_us, q); }
  [[nodiscard]] bool within_limit() const {
    return !lat_us.empty() && p(0.99) < kP99LimitUs && percentile(tail_lat_us, 0.99) < kP99LimitUs;
  }
};

/// One client thread: owns some connections and drives their streams.
class Generator {
 public:
  Generator(const std::vector<int>& owned, std::uint16_t port, const ZipfIds& z,
            std::uint64_t seed, std::uint64_t n, std::uint32_t ptype, bool trace)
      : z_(z), seed_(seed), n_(n), ptype_(ptype), tr_(trace, nullptr) {
    for (int c : owned) {
      net::ClientConfig cc;
      cc.port = port;
      cc.auth_token = kToken;
      cc.tenant_id = static_cast<std::uint64_t>(c + 1);
      cc.io_timeout_ms = 5000;
      conns.emplace_back(std::make_unique<ConnState>(c, cc));
    }
  }

  bool connect() {
    for (auto& s : conns)
      if (s->cl.connect_handshake() != Status::kOk) return false;
    return true;
  }

  /// Run one phase at `kqps` total over all kConns connections; returns
  /// false if a connection broke.
  bool run_phase(int phase, double kqps, double seconds) {
    const double gap = kConns / (kqps * 1e3);  // per-connection spacing
    const auto count = static_cast<std::uint64_t>(seconds / gap);
    for (auto& s : conns) {
      s->first = s->reqs.size();
      for (std::uint64_t i = 0; i < count; ++i) {
        Req q;
        q.r = make_request(z_, seed_, s->c, s->reqs.size(), n_, ptype_);
        q.due = (static_cast<double>(i) + static_cast<double>(s->c) / kConns) * gap;
        q.phase = phase;
        s->reqs.push_back(q);
      }
      s->next = s->first;
      s->head = s->first;
    }
    const double t0 = wall_s() + 0.001;  // the schedule starts once it is built
    for (auto& s : conns)
      for (std::size_t i = s->first; i < s->reqs.size(); ++i) s->reqs[i].due += t0;
    for (;;) {
      const double now = wall_s();
      bool pending = false;
      double next_due = 1e300;
      for (auto& s : conns) {
        while (s->next < s->reqs.size() && s->reqs[s->next].due <= now &&
               s->inflight < s->cl.credits()) {
          Req& q = s->reqs[s->next];
          if (server::is_read(q.r.op) && q.r.a % kConns == static_cast<std::uint64_t>(s->c)) {
            const auto it = s->acked.find(q.r.a);
            q.floor = it == s->acked.end() ? -1 : it->second;
          }
          Status st;
          {
            SpanScope sp(tr_, "net.send", q.r.client_tag);
            st = s->cl.send_request(q.r);
          }
          q.sent = wall_s();
          if (st != Status::kOk) return false;
          ++s->inflight;
          ++s->next;
        }
        if (s->next < s->reqs.size()) next_due = std::min(next_due, s->reqs[s->next].due);
        pending = pending || s->inflight > 0 || s->next < s->reqs.size();
      }
      if (!pending) return true;
      // Read from the connection whose oldest in-flight request is oldest.
      ConnState* pick = nullptr;
      for (auto& s : conns)
        if (s->inflight > 0 && (pick == nullptr || s->oldest() < pick->oldest())) pick = s.get();
      if (pick == nullptr) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            std::max(0.0, std::min(next_due - wall_s(), 0.001))));
        continue;
      }
      // poll_frames needs a timeout of at least 2 ms to read the socket at
      // all (a timeout below 2 ms returns before the first recv).
      std::vector<server::Reply> got;
      if (!pick->cl.poll_frames(&got, 2)) return false;
      const double t = wall_s();
      for (const auto& rep : got) {
        if (rep.client_tag == 0 || rep.client_tag > pick->reqs.size()) return false;
        Req& q = pick->reqs[rep.client_tag - 1];
        if (q.done >= 0) continue;
        q.done = t;
        q.st = rep.status;
        q.v0 = rep.v0;
        --pick->inflight;
        if (!server::is_read(q.r.op) && rep.status == Status::kOk) {
          auto& a = pick->acked[q.r.a];
          a = std::max(a, q.r.value);
        }
      }
    }
  }

  void finish() {
    for (auto& s : conns) s->cl.finish();
  }

  struct ConnState {
    ConnState(int c_, const net::ClientConfig& cc) : c(c_), cl(cc) {}
    int c;
    net::NetClient cl;
    std::vector<Req> reqs;
    std::size_t first = 0, next = 0;
    std::uint32_t inflight = 0;
    std::unordered_map<std::uint64_t, std::int64_t> acked;  ///< own ids: last acked value
    std::size_t head = 0;  ///< first request not yet answered
    [[nodiscard]] double oldest() {
      while (head < next && reqs[head].done >= 0) ++head;
      return head < next ? reqs[head].sent : 1e300;
    }
  };
  std::vector<std::unique_ptr<ConnState>> conns;
  Tracer& tracer() { return tr_; }

 private:
  const ZipfIds& z_;
  std::uint64_t seed_, n_;
  std::uint32_t ptype_;
  Tracer tr_;
};

struct Shared {
  std::vector<double> setup_s;
  std::vector<std::int64_t> load_value;  ///< load value of the read ptype (0 = none)
  rma::OpCounters ctr;
  std::uint64_t wal_bytes = 0;
  double busy_poll_wall_s = 0, serve_wall_s = 0;
  std::vector<Span> server_spans;
  std::vector<std::string> failures;
};

/// Per-phase results over every connection.
PhaseResult collect(const std::vector<std::unique_ptr<Generator>>& gens, int phase) {
  PhaseResult pr;
  for (const auto& g : gens)
    for (const auto& s : g->conns) {
      std::vector<const Req*> mine;
      for (std::size_t i = s->first; i < s->reqs.size(); ++i)
        if (s->reqs[i].phase == phase) mine.push_back(&s->reqs[i]);
      for (std::size_t i = 0; i < mine.size(); ++i) {
        const Req& q = *mine[i];
        if (q.done < 0) continue;
        const double us = (q.done - q.due) * 1e6;
        pr.lat_us.push_back(us);
        if (!server::is_read(q.r.op)) pr.write_lat_us.push_back(us);
        if (i >= mine.size() - mine.size() / 10) pr.tail_lat_us.push_back(us);
        pr.late_ms_max = std::max(pr.late_ms_max, (q.sent - q.due) * 1e3);
        pr.first_due = std::min(pr.first_due, q.due);
        pr.last_done = std::max(pr.last_done, q.done);
        ++pr.completed;
      }
    }
  return pr;
}

}  // namespace

int run_wire(const Args& a) {
  const gen::LpgConfig g = graph_config(a.seed);
  const std::uint64_t n = g.num_vertices();
  Report rep;
  Shared sh;
  const std::string wal_base = a.run_dir + "/wal-wire-" + std::to_string(::getpid());
  const ZipfIds zipf(n, a.seed);

  // Phase plan: warm-up, lo, hi; ladder rungs are appended as results come.
  std::vector<Phase> plan{{"warm", kLoKqps, kWarmSeconds},
                          {"lo", kLoKqps, 0.25 * a.seconds},
                          {"hi", kHiKqps, 0.35 * a.seconds}};
  const double ladder_budget_s = 0.4 * a.seconds;

  std::vector<std::unique_ptr<Generator>> gens;
  std::vector<PhaseResult> results;
  std::vector<std::string> client_errors;
  std::mutex err_mu;

  rma::Runtime rt(1, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    Loaded ld;
    std::string wal_dir;
    net::Listener* L = nullptr;
    for (int k = 0; k < kSetups; ++k) {
      ld = Loaded{};
      if (!wal_dir.empty()) std::filesystem::remove_all(wal_dir);
      wal_dir = wal_base + "-" + std::to_string(k);
      DatabaseConfig cfg = production_config(g, 1, wal_dir, 6);
      cfg.server = true;
      cfg.net_listen = true;
      cfg.net_auth_token = kToken;
      const double t0 = wall_s();
      ld = setup_graph(self, g, cfg);
      L = ld.ok ? ld.db->listener(self) : nullptr;
      const bool bound = L != nullptr && L->start() == Status::kOk;
      sh.setup_s.push_back(wall_s() - t0);
      if (!ld.ok || !bound) {
        sh.failures.push_back(!ld.ok ? "bulk load failed" : "listener did not bind");
        return;
      }
    }
    const std::uint32_t ptype = ld.ptype_ids[0];
    {
      gen::KroneckerGenerator kg(g, ld.label_ids, ld.ptype_ids);
      sh.load_value.assign(n, 0);
      for (std::uint64_t v = 0; v < n; ++v)
        for (const auto& [pt, bytes] : kg.vertex_props(v))
          if (pt == ptype) std::memcpy(&sh.load_value[v], bytes.data(), 8);
    }

    // Client side: two threads, three connections.
    std::vector<std::vector<int>> owned(kClientThreads);
    for (int c = 0; c < kConns; ++c) owned[static_cast<std::size_t>(c % kClientThreads)].push_back(c);
    for (int t = 0; t < kClientThreads; ++t)
      gens.push_back(std::make_unique<Generator>(owned[static_cast<std::size_t>(t)], L->port(),
                                                 zipf, a.seed, n, ptype, a.trace));
    std::barrier sync(kClientThreads);
    // Ladder: from the last passing rate, climb in coarse steps; after the
    // first failure, climb from the last passing rate in fine steps until
    // the next failure or until the ladder's time budget is spent.
    double last_ok = 0, step = kCoarseStep, ladder_s = 0;
    std::uint64_t scheduled = 0;
    auto next_rung = [&](std::size_t p) {
      const bool passed = results.back().within_limit();
      if (passed) last_ok = plan[p].kqps;
      else if (p == 2) return;  // hi itself is over the limit
      if (!passed) {
        if (step == kFineStep) return;
        step = kFineStep;
      }
      if (ladder_s + kRungSeconds > ladder_budget_s + 1e-9) return;
      ladder_s += kRungSeconds;
      plan.push_back({"rung", last_ok * step, kRungSeconds});
    };
    auto client = [&](int t) {
      Generator& gen = *gens[static_cast<std::size_t>(t)];
      auto fail = [&](const std::string& why) {
        std::lock_guard<std::mutex> lk(err_mu);
        client_errors.push_back(why);
      };
      bool alive = gen.connect();
      if (!alive) fail("client could not connect");
      for (std::size_t p = 0;; ++p) {
        sync.arrive_and_wait();
        if (p >= plan.size()) break;
        if (t == 0) {
          scheduled += static_cast<std::uint64_t>(plan[p].kqps * 1e3 * plan[p].seconds);
          std::printf("progress attempted=%llu\n", static_cast<unsigned long long>(scheduled));
        }
        if (alive && !gen.run_phase(static_cast<int>(p), plan[p].kqps, plan[p].seconds)) {
          alive = false;
          fail("connection broke during phase " + std::to_string(p));
        }
        sync.arrive_and_wait();
        if (t == 0) {
          results.push_back(collect(gens, static_cast<int>(p)));
          if (p >= 2) next_rung(p);
        }
      }
      gen.finish();
      sync.arrive_and_wait();
      if (t == 0) L->request_stop();
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < kClientThreads; ++t) threads.emplace_back(client, t);

    // Server side: the same `busy ? 0 : 1` loop as Listener::serve, with a
    // span around every poll_once, then serve() for the graceful drain.
    Tracer tr(a.trace, &self);
    const double s0 = wall_s();
    bool busy = true;
    while (!L->stop_requested()) {
      const double w0 = a.trace ? wall_s() : 0;
      {
        SpanScope sp(tr, "net.poll", 0);
        busy = L->poll_once(ld.db, self, busy ? 0 : 1);
      }
      if (a.trace) {
        if (busy) sh.busy_poll_wall_s += wall_s() - w0;
        if (tr.spans().size() >= 65536) {
          auto sp = tr.take();
          if (sh.server_spans.empty()) sh.server_spans = std::move(sp);
        }
      }
    }
    L->serve(ld.db, self);
    sh.serve_wall_s = wall_s() - s0;
    for (auto& th : threads) th.join();
    if (sh.server_spans.empty()) sh.server_spans = tr.take();
    sh.ctr = self.counters();
    ld = Loaded{};
    sh.wal_bytes = dir_bytes(wal_dir);
    std::filesystem::remove_all(wal_dir);
  });

  for (const auto& f : sh.failures) rep.fail(f);
  for (const auto& f : client_errors) rep.fail(f);
  if (sh.setup_s.size() < kSetups || results.size() < 3) {
    rep.fail("run did not complete");
    return rep.finish(1, 1);
  }

  // --- output checks -------------------------------------------------------
  std::uint64_t attempted = 0, failed = 0;
  std::unordered_map<std::uint64_t, std::vector<std::int64_t>> written;  // id -> acked values
  for (const auto& gen : gens)
    for (const auto& s : gen->conns)
      for (const auto& q : s->reqs)
        if (!server::is_read(q.r.op) && q.done >= 0 && q.st == Status::kOk)
          written[q.r.a].push_back(q.r.value);
  int reported = 0;
  auto bad = [&](const std::string& why) {
    if (reported++ < 8) rep.fail(why);
  };
  for (const auto& gen : gens)
    for (const auto& s : gen->conns)
      for (const auto& q : s->reqs) {
        if (q.sent < 0) continue;
        ++attempted;
        if (q.done < 0 || q.st != Status::kOk) {
          ++failed;
          continue;
        }
        if (!server::is_read(q.r.op)) {
          if (q.v0 != q.r.value) bad("update ack carries a different value");
          continue;
        }
        const auto it = written.find(q.r.a);
        const bool from_write = it != written.end() &&
                                std::find(it->second.begin(), it->second.end(), q.v0) !=
                                    it->second.end();
        if (q.v0 != sh.load_value[q.r.a] && !from_write)
          bad("read of id " + std::to_string(q.r.a) + " returned " + std::to_string(q.v0) +
              ", neither loaded nor written");
        if (q.floor >= 0 && q.v0 < q.floor)
          bad("tenant read of its own id " + std::to_string(q.r.a) +
              " missed its acknowledged write");
      }
  if (!rep.correct() && reported > 8)
    std::printf("info   %d further check failures not shown\n", reported - 8);

  const std::uint64_t ref_fp = stream_fingerprint(kReferenceSeed, n);
  std::printf("info   op-stream fingerprint seed=%llu %016llx; reference seed=%llu %016llx\n",
              static_cast<unsigned long long>(a.seed),
              static_cast<unsigned long long>(stream_fingerprint(a.seed, n)),
              static_cast<unsigned long long>(kReferenceSeed),
              static_cast<unsigned long long>(ref_fp));
  if (ref_fp != kRefStreamFp) rep.fail("reference op-stream fingerprint changed");
  if (sh.ctr.wal_io_errors != 0) rep.fail("WAL reported I/O errors");

  const PhaseResult& lo = results[1];
  const PhaseResult& hi = results[2];
  // The highest passing rung; the hi phase counts as the rung below the first.
  double max_kqps = 0, best_offered = 0;
  double late_max = 0;
  for (std::size_t p = 1; p < results.size(); ++p) {
    late_max = std::max(late_max, results[p].late_ms_max);
    if (p >= 2 && results[p].within_limit() && plan[p].kqps > best_offered) {
      best_offered = plan[p].kqps;
      max_kqps = results[p].achieved_kqps();
    }
    std::printf("info   phase %-5s offered %8.2f kq/s  p50 %9.1f us  p99 %9.1f us  late_max %7.3f ms  %s\n",
                plan[p].name, plan[p].kqps, results[p].p(0.5), results[p].p(0.99),
                results[p].late_ms_max, results[p].within_limit() ? "ok" : "OVER LIMIT");
  }
  if (!lo.within_limit()) std::printf("info   wire_lo is over the p99 limit (%g us)\n", kP99LimitUs);
  if (!hi.within_limit()) std::printf("info   wire_hi is over the p99 limit (%g us)\n", kP99LimitUs);
  if (max_kqps <= 0) rep.fail("no rate met the p99 limit");

  const auto& c = sh.ctr;
  auto ratio = [](double x, double y) { return y > 0 ? x / y : 0.0; };
  if (!a.trace) {
    rep.metric("setup_s", median(sh.setup_s), "s", "wall");
    rep.metric("rss_mb", peak_rss_mb(), "MB", "none");
    rep.metric("wire_lo_p50_us", lo.p(0.5), "us", "wall");
    rep.metric("wire_hi_p50_us", hi.p(0.5), "us", "wall");
    rep.metric("wire_hi_p99_us", hi.p(0.99), "us", "wall");
    rep.metric("wire_write_hi_p50_us", percentile(hi.write_lat_us, 0.5), "us", "wall");
    rep.metric("wire_max_kqps", max_kqps, "kq/s", "wall");
  } else {
    std::vector<Span> spans = sh.server_spans;
    SpanStats send;
    for (const auto& gen : gens) {
      auto sp = gen->tracer().take();
      collect_span(sp, self_times(sp), "net.send", &send);
      spans.insert(spans.end(), sp.begin(), sp.end());
    }
    const double served = static_cast<double>(c.sched_served);
    rep.info("wire_hi_p50_us.traced", hi.p(0.5), "us", "wall");
    rep.metric("net.poll.busy_frac", ratio(sh.busy_poll_wall_s, sh.serve_wall_s), "ratio", "wall");
    rep.metric("net.poll.wall_us_per_request", ratio(sh.busy_poll_wall_s * 1e6, served), "us", "wall");
    rep.metric("net.send.wall_us_p50", percentile(send.wall_us, 0.5), "us", "wall");
    rep.metric("net.frames_per_request", ratio(c.net_frames_rx + c.net_frames_tx, served), "count", "count");
    rep.metric("net.gen_late_ms_max", late_max, "ms", "wall");
    rep.metric("server.coalesced_frac", ratio(c.sched_coalesced, served), "ratio", "count");
    std::uint64_t writes = 0;
    for (const auto& [id, vs] : written) writes += vs.size();
    rep.metric("server.acks_per_epoch", ratio(writes, c.sched_epochs), "count", "count");
    rep.metric("server.admission_rejects", static_cast<double>(c.sched_admission_rejects), "count", "count");
    rep.metric("gdi.commits_per_epoch", ratio(c.gc_enrolled, c.gc_epochs), "count", "count");
    rep.metric("wal.appends_per_fsync", ratio(c.wal_appends, c.wal_fsyncs), "count", "count");
    rep.metric("wal.bytes_per_commit", ratio(static_cast<double>(sh.wal_bytes), c.wal_appends), "B", "count");
    rep.metric("wal.io_errors", static_cast<double>(c.wal_io_errors), "count", "count");
    write_spans(a.run_dir + "/spans-wire.csv", spans);
  }
  return rep.finish(attempted, failed);
}

}  // namespace perfbench
