// oltp_linkbench and oltp_hot: P=4 closed-loop clients, one per rank, on the
// production configuration over a scale-15 Kronecker graph.
//
// The run is a sequence of rounds. In each round every rank draws a fresh
// stream of kQueriesPerRound queries from (seed, round, rank) over the ids
// that are live at the round's start, runs it, and then all ranks exchange
// what they committed so every read of the round can be checked against the
// load and the acknowledged writes. The metrics cover the first
// kMeasuredRounds rounds, a fixed amount of work: the edge adds grow the
// graph round by round, so a time-bounded window would let the machine's
// speed shift even the simulated numbers. Rounds then continue, checked but
// not measured, until --seconds have passed. Throughputs are medians over the
// measured rounds; latency percentiles come from their raw per-query samples.
//
// With --trace 1, odd rounds record spans and even rounds do not, so the
// tracing overhead and the traced-vs-untraced simulated numbers come from
// the same process.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <span>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "bench.hpp"

namespace perfbench {
namespace {

constexpr int kRanks = 4;
constexpr int kSetups = 5;  // set-ups per run; setup_s is their median
constexpr std::uint64_t kQueriesPerRound = 6144;
constexpr std::uint64_t kMeasuredRounds = 64;
// Rounds run until --seconds have passed, but never more than kMaxRounds:
// the edge adds grow the graph by ~950 blocks a round, and the block pool
// (kBlocksPerVertex per loaded vertex, the load takes ~2.2) is sized for
// kMaxRounds of that growth.
constexpr std::uint64_t kMaxRounds = 300;
constexpr std::uint64_t kBlocksPerVertex = 13;
constexpr std::size_t kReadBatch = 32;   // consecutive reads sharing one execute
constexpr int kAttempts = 64;            // tries of a query that hits lock conflicts
constexpr double kCpuNsPerQuery = 180.0; // modeled client-side work per query
constexpr std::uint64_t kHotIds = 1024;  // oltp_hot read set (hashed ids)
constexpr std::uint64_t kReferenceSeed = 1;

enum class Op : std::uint8_t { kProps = 0, kCount, kEdges, kAddV, kDelV, kUpd, kAddE, kNum };
constexpr int kNumOps = static_cast<int>(Op::kNum);

[[nodiscard]] bool is_read(Op op) { return op == Op::kProps || op == Op::kCount || op == Op::kEdges; }

/// Paper Table 3 mixes, in Op order.
struct Mix {
  std::array<double, kNumOps> w;
  bool hot_reads;
};
// LinkBench: 69% reads, 2.6% vertex inserts, 1% deletes, 7.4% property
// updates, 20% edge adds; uniform targets.
constexpr Mix kLinkBench{{0.129, 0.049, 0.512, 0.026, 0.010, 0.074, 0.200}, false};
// Read Intensive: 75% reads (to the hashed hot set), 25% uniform edge adds.
constexpr Mix kReadIntensiveHot{{0.217, 0.088, 0.445, 0.0, 0.0, 0.0, 0.250}, true};

struct Query {
  Op op;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Ids every rank agrees on at a round boundary: the live ids (targets of
/// uniform draws), the ids deleted so far and the edge adds per vertex.
struct IdSpace {
  std::vector<std::uint64_t> live;
  std::unordered_map<std::uint64_t, std::size_t> pos;
  std::unordered_set<std::uint64_t> dead;
  std::unordered_map<std::uint64_t, std::uint64_t> added_edges;

  void init(std::uint64_t n) {
    live.resize(n);
    for (std::uint64_t v = 0; v < n; ++v) {
      live[v] = v;
      pos[v] = v;
    }
  }
  void add(std::uint64_t id) {
    if (pos.contains(id)) return;
    pos[id] = live.size();
    live.push_back(id);
  }
  void remove(std::uint64_t id) {
    dead.insert(id);
    auto it = pos.find(id);
    if (it == pos.end()) return;
    const std::size_t i = it->second;
    live[i] = live.back();
    pos[live[i]] = i;
    live.pop_back();
    pos.erase(it);
  }
};

std::vector<std::uint64_t> hot_set(std::uint64_t seed, std::uint64_t n) {
  std::vector<std::uint64_t> ids;
  std::unordered_set<std::uint64_t> seen;
  for (std::uint64_t k = 0; ids.size() < std::min(kHotIds, n); ++k) {
    const std::uint64_t id = splitmix64(hash_combine(seed ^ 0x407, k)) % n;
    if (seen.insert(id).second) ids.push_back(id);
  }
  return ids;
}

std::vector<Query> draw_stream(const Mix& mix, std::uint64_t seed, std::uint64_t round,
                               int rank, const IdSpace& ids,
                               const std::vector<std::uint64_t>& hot) {
  CounterRng rng(hash_combine(hash_combine(seed, round), static_cast<std::uint64_t>(rank) + 0x0177));
  std::vector<Query> qs(kQueriesPerRound);
  auto uniform = [&] { return ids.live[rng.next_below(ids.live.size())]; };
  for (auto& q : qs) {
    const double u = rng.next_unit();
    double acc = 0;
    q.op = Op::kProps;
    for (int i = 0; i < kNumOps; ++i) {
      acc += mix.w[static_cast<std::size_t>(i)];
      if (u < acc) {
        q.op = static_cast<Op>(i);
        break;
      }
    }
    if (is_read(q.op)) q.a = mix.hot_reads ? hot[rng.next_below(hot.size())] : uniform();
    else if (q.op != Op::kAddV) q.a = uniform();
    if (q.op == Op::kAddE) q.b = uniform();
  }
  return qs;
}

std::uint64_t stream_fingerprint(const std::vector<Query>& qs) {
  Fingerprint fp;
  for (const auto& q : qs) {
    fp.add(static_cast<std::uint64_t>(q.op));
    fp.add(q.a);
    fp.add(q.b);
  }
  return fp.value();
}

/// Generated-graph fingerprint, independent of the rank count.
std::uint64_t graph_fingerprint(const gen::LpgConfig& g, const std::vector<std::uint32_t>& labels,
                                const std::vector<std::uint32_t>& ptypes) {
  gen::KroneckerGenerator kg(g, labels, ptypes);
  Fingerprint fp;
  for (std::uint64_t v = 0; v < g.num_vertices(); ++v) {
    for (auto l : kg.vertex_labels(v)) fp.add(l);
    for (const auto& [pt, bytes] : kg.vertex_props(v)) {
      fp.add(pt);
      for (auto b : bytes) fp.add(static_cast<std::uint64_t>(b));
    }
  }
  for (std::uint64_t k = 0; k < g.num_edges(); ++k) {
    const auto [s, d] = kg.edge_endpoints(k);
    fp.add(s);
    fp.add(d);
    fp.add(kg.edge_label(k));
  }
  return fp.value();
}

/// A read's observation, checked once the round's writes are known.
struct ReadObs {
  std::uint64_t id;
  std::int64_t value;  ///< property value (-1 = no entry) or edge count
  Op op;
  bool not_found;
  bool own_deleted;  ///< this rank deleted `id` earlier in the round
};

/// A write that found a target missing; one of its targets must be deleted.
struct Missing {
  std::uint64_t a, b;
};
constexpr std::uint64_t kNone = ~std::uint64_t{0};

struct WriteLog {
  std::uint64_t id;
  std::int64_t value;
};

struct EdgeAdd {
  std::uint64_t a, b;
};

/// Everything one rank accumulates; read by the main thread after the run.
struct RankOut {
  std::vector<double> read_lat_ns, write_lat_ns;  ///< measured rounds only
  std::uint64_t attempted = 0, failed = 0, not_found = 0, conflicts = 0;
  std::uint64_t cap_refusals = 0, finds = 0, writes_ok = 0;
  /// conflicts, cap_refusals, finds and writes_ok at the end of the measured
  /// rounds (the per-layer ratios cover the same window as the metrics).
  std::array<std::uint64_t, 4> window{};
  std::uint64_t sim_mismatches = 0;
  std::array<std::uint64_t, 16> failed_by_status{};
  std::vector<std::string> failures;
  SpanStats execute, commit, local;
  std::vector<Span> kept_spans;
};

class Client {
 public:
  Client(std::shared_ptr<Database> db, rma::Rank& self, const Loaded& ld, std::uint64_t n,
         RankOut& out, Tracer& tr)
      : db_(std::move(db)), self_(self), out_(out), tr_(tr), uprop_(ld.ptype_ids[0]),
        new_label_(ld.label_ids[1]), first_new_id_(n) {}

  /// Run one round; `measured` says whether its latencies are samples.
  void run(const std::vector<Query>& qs, bool measured) {
    measured_ = measured;
    own_deleted_.clear();
    std::size_t i = 0;
    while (i < qs.size()) {
      if (is_read(qs[i].op)) {
        std::size_t j = i;
        while (j < qs.size() && is_read(qs[j].op) && j - i < kReadBatch) ++j;
        read_group(std::span<const Query>(qs.data() + i, j - i));
        i = j;
      } else {
        write(qs[i]);
        ++i;
      }
    }
    out_.attempted += qs.size();
  }

  // The round's log, exchanged and checked at the round's end.
  std::vector<ReadObs> reads;
  std::vector<Missing> missing;
  std::vector<WriteLog> writes;
  std::vector<std::uint64_t> deleted, created;
  std::vector<EdgeAdd> adds;

 private:
  std::uint64_t next_req() { return (static_cast<std::uint64_t>(self_.id()) << 48) | ++req_seq_; }

  /// Written values are >= 1000 (load values are 0..999) and unique.
  std::int64_t next_value() {
    return 1000 + static_cast<std::int64_t>((static_cast<std::uint64_t>(self_.id()) << 40) |
                                            ++value_seq_);
  }

  /// Unique across ranks: rank r creates n + r, n + r + P, ...
  std::uint64_t next_new_id() {
    return first_new_id_ + static_cast<std::uint64_t>(self_.id()) +
           created_seq_++ * static_cast<std::uint64_t>(self_.nranks());
  }

  /// Before retrying a conflicted query: fence this client's own open commit
  /// epoch (its deferred unlocks may be what another client waits on, and
  /// that client may hold what this one needs), then back off.
  void pause(int attempt) {
    if (auto* cp = db_->commit_pipeline(self_)) cp->sync(self_);
    if (attempt < 4) std::this_thread::yield();
    else std::this_thread::sleep_for(std::chrono::microseconds(25 << std::min(attempt - 4, 6)));
  }

  void count_conflict(Status s) {
    if (s == Status::kTxnConflict) ++out_.conflicts;
  }

  /// One read's body on an already-fetched vertex.
  Status read_local(Transaction& txn, VertexHandle vh, const Query& q, std::int64_t* value) {
    SpanScope s(tr_, "gdi.local", cur_req_);
    switch (q.op) {
      case Op::kProps: {
        auto p = txn.get_properties(vh, uprop_);
        if (!p.ok()) return p.status();
        // The load writes at most one entry of uprop_ and an update replaces
        // it, so more than one entry is itself a wrong result.
        if (p->size() > 1) return Status::kInvalidArgument;
        *value = p->empty() ? -1 : std::get<std::int64_t>(p->front());
        return Status::kOk;
      }
      case Op::kCount: {
        auto c = txn.count_edges(vh, DirFilter::kAll);
        if (!c.ok()) return c.status();
        *value = static_cast<std::int64_t>(*c);
        return Status::kOk;
      }
      case Op::kEdges: {
        auto e = txn.edges_of(vh, DirFilter::kAll);
        if (!e.ok()) return e.status();
        *value = static_cast<std::int64_t>(e->size());
        return Status::kOk;
      }
      default:
        return Status::kInvalidArgument;
    }
  }

  void read_group(std::span<const Query> g) {
    cur_req_ = next_req();
    const int root = tr_.begin("oltp.read_batch", cur_req_);
    const double t0 = self_.sim_time_ns();
    self_.charge_compute(kCpuNsPerQuery * static_cast<double>(g.size()));
    std::vector<Status> st(g.size(), Status::kOk);
    std::vector<std::int64_t> val(g.size(), 0);
    bool doomed = false;
    {
      Transaction txn(db_, self_, TxnMode::kRead);
      BatchScope scope = txn.batch();
      std::vector<Future<VertexHandle>> fs;
      fs.reserve(g.size());
      for (const auto& q : g) fs.push_back(scope.find(q.a));
      out_.finds += g.size();
      Status es;
      {
        SpanScope s(tr_, "gdi.execute", cur_req_);
        es = scope.execute();
      }
      count_conflict(es);
      doomed = is_transaction_critical(es);
      if (!doomed) {
        for (std::size_t i = 0; i < g.size(); ++i)
          st[i] = fs[i].ok() ? read_local(txn, *fs[i], g[i], &val[i]) : fs[i].status();
        Status cs;
        {
          SpanScope s(tr_, "gdi.read_commit", cur_req_);
          cs = txn.commit();
        }
        count_conflict(cs);
        doomed = is_transaction_critical(cs);
      }
    }
    // A writer doomed the shared transaction: every read retries alone, so
    // one conflicted vertex does not fail its batch siblings.
    if (doomed)
      for (std::size_t i = 0; i < g.size(); ++i) st[i] = read_single(g[i], &val[i]);
    const double lat = self_.sim_time_ns() - t0;
    tr_.end(root);
    check_root(root, lat);
    for (std::size_t i = 0; i < g.size(); ++i) {
      if (measured_) out_.read_lat_ns.push_back(lat);
      if (st[i] == Status::kOk || st[i] == Status::kNotFound) {
        reads.push_back(ReadObs{g[i].a, val[i], g[i].op, st[i] == Status::kNotFound,
                                own_deleted_.contains(g[i].a)});
        if (st[i] == Status::kNotFound) ++out_.not_found;
      } else {
        count_failed(st[i]);
      }
    }
  }

  Status read_single(const Query& q, std::int64_t* value) {
    Status outcome = Status::kTxnConflict;
    for (int attempt = 0; attempt < kAttempts && outcome == Status::kTxnConflict;
         ++attempt) {
      if (attempt > 0) pause(attempt);
      Transaction txn(db_, self_, TxnMode::kRead);
      BatchScope scope = txn.batch();
      auto f = scope.find(q.a);
      ++out_.finds;
      Status es;
      {
        SpanScope s(tr_, "gdi.execute", cur_req_);
        es = scope.execute();
      }
      if (is_transaction_critical(es)) {
        outcome = es;
      } else if (!f.ok()) {
        outcome = f.status();
      } else {
        outcome = read_local(txn, *f, q, value);
        SpanScope s(tr_, "gdi.read_commit", cur_req_);
        const Status cs = txn.commit();
        if (is_transaction_critical(cs)) outcome = cs;
      }
      count_conflict(outcome);
    }
    return outcome;
  }

  void write(const Query& q) {
    cur_req_ = next_req();
    const int root = tr_.begin("oltp.write", cur_req_);
    const double t0 = self_.sim_time_ns();
    self_.charge_compute(kCpuNsPerQuery);
    const std::uint64_t new_id = q.op == Op::kAddV ? next_new_id() : 0;
    const std::int64_t value = next_value();
    Status outcome = Status::kTxnConflict;
    for (int attempt = 0; attempt < kAttempts && outcome == Status::kTxnConflict;
         ++attempt) {
      if (attempt > 0) pause(attempt);
      outcome = write_once(q, new_id, value);
      count_conflict(outcome);
    }
    const double lat = self_.sim_time_ns() - t0;
    tr_.end(root);
    check_root(root, lat);
    if (measured_) out_.write_lat_ns.push_back(lat);
    if (outcome == Status::kOk) {
      ++out_.writes_ok;
      switch (q.op) {
        case Op::kAddV:
          created.push_back(new_id);
          writes.push_back({new_id, value});
          break;
        case Op::kUpd:
          writes.push_back({q.a, value});
          break;
        case Op::kDelV:
          deleted.push_back(q.a);
          own_deleted_.insert(q.a);
          break;
        default:
          adds.push_back({q.a, q.b});
          break;
      }
    } else if (outcome == Status::kNotFound && q.op != Op::kAddV) {
      missing.push_back({q.a, q.op == Op::kAddE ? q.b : kNone});
      ++out_.not_found;
    } else if (outcome == Status::kNoSpace && (q.op == Op::kAddE || q.op == Op::kUpd)) {
      // A holder at its degree limit cannot grow: a typed refusal, and the
      // aborted transaction leaves the holder as it was (later reads check).
      ++out_.cap_refusals;
    } else {
      count_failed(outcome);
    }
  }

  void count_failed(Status s) {
    ++out_.failed;
    ++out_.failed_by_status[static_cast<std::size_t>(s) & 15];
  }

  Status write_once(const Query& q, std::uint64_t new_id, std::int64_t value) {
    Transaction txn(db_, self_, TxnMode::kWrite);
    Status s = Status::kOk;
    if (q.op == Op::kAddV) {
      SpanScope m(tr_, "gdi.mutate", cur_req_);
      auto vh = txn.create_vertex(new_id);
      s = vh.status();
      if (vh.ok()) s = txn.add_label(*vh, new_label_);
      if (ok(s)) s = txn.add_property(*vh, uprop_, PropValue{value});
    } else {
      Result<VertexHandle> a = Status::kNotFound;
      Result<VertexHandle> b = Status::kNotFound;
      {
        SpanScope f(tr_, "gdi.find", cur_req_);
        a = txn.find_vertex(q.a);
        ++out_.finds;
        if (a.ok() && q.op == Op::kAddE) {
          b = txn.find_vertex(q.b);
          ++out_.finds;
        }
      }
      s = a.status();
      if (ok(s) && q.op == Op::kAddE) s = b.status();
      if (ok(s)) {
        SpanScope m(tr_, "gdi.mutate", cur_req_);
        if (q.op == Op::kDelV) s = txn.delete_vertex(*a);
        else if (q.op == Op::kUpd) s = txn.update_property(*a, uprop_, PropValue{value});
        else s = txn.create_edge(*a, *b, layout::Dir::kOut, new_label_).status();
      }
    }
    if (!ok(s)) {
      txn.abort();
      return s;
    }
    SpanScope c(tr_, "gdi.commit", cur_req_);
    return txn.commit();
  }

  /// A query's spans partition its simulated latency: the sim self times of
  /// the root and its descendants must sum to the latency sample recorded.
  void check_root(int root, double lat_ns) {
    if (root < 0) return;
    const auto& sp = tr_.spans();
    const auto r = static_cast<std::size_t>(root);
    std::vector<double> self(sp.size() - r);
    for (std::size_t i = r; i < sp.size(); ++i) self[i - r] = sp[i].s1 - sp[i].s0;
    for (std::size_t i = r + 1; i < sp.size(); ++i)
      self[static_cast<std::size_t>(sp[i].parent) - r] -= sp[i].s1 - sp[i].s0;
    double sum = 0;
    for (double x : self) sum += x;
    if (std::abs(sum - lat_ns) > 1e-6 * std::max(1.0, lat_ns)) ++out_.sim_mismatches;
  }

  std::shared_ptr<Database> db_;
  rma::Rank& self_;
  RankOut& out_;
  Tracer& tr_;
  std::uint32_t uprop_;
  std::uint32_t new_label_;
  std::uint64_t first_new_id_;
  std::uint64_t cur_req_ = 0;
  std::uint64_t req_seq_ = 0;
  std::uint64_t value_seq_ = 0;
  std::uint64_t created_seq_ = 0;
  bool measured_ = true;
  std::unordered_set<std::uint64_t> own_deleted_;
};

/// Collective: the edge count of every loaded vertex, read back through
/// plain transactions (the loader drops edges above the holder degree cap,
/// so the generated list is not the stored graph).
std::vector<std::uint64_t> loaded_degrees(const std::shared_ptr<Database>& db,
                                          rma::Rank& self, std::uint64_t n) {
  const auto P = static_cast<std::uint64_t>(self.nranks());
  std::vector<std::uint64_t> mine;
  {
    Transaction txn(db, self, TxnMode::kReadShared, TxnScope::kCollective);
    std::vector<std::uint64_t> ids;
    for (std::uint64_t v = static_cast<std::uint64_t>(self.id()); v < n; v += P) ids.push_back(v);
    for (std::size_t base = 0; base < ids.size(); base += 128) {
      const std::size_t end = std::min(base + 128, ids.size());
      BatchScope scope = txn.batch();
      std::vector<Future<VertexHandle>> fs;
      for (std::size_t j = base; j < end; ++j) fs.push_back(scope.find(ids[j]));
      (void)scope.execute();
      for (auto& f : fs) {
        auto c = f.ok() ? txn.count_edges(*f, DirFilter::kAll) : Result<std::size_t>(f.status());
        mine.push_back(c.ok() ? *c : kNone);
      }
    }
    (void)txn.commit();
  }
  return merge_shards(self, n, mine);
}

struct Shared {
  // Written by rank 0 only.
  Measured m;  ///< counters cover the measured rounds; wal_io_errors the whole run
  std::uint64_t graph_fp = 0, ref_graph_fp = 0, stream_fp = 0, ref_stream_fp = 0;
  std::vector<std::string> failures;
  std::vector<std::int64_t> load_uprop;  ///< load value of the update ptype (-1 = none)
};

rma::OpCounters sum_counters(rma::Rank& self) {
  const rma::OpCounters mine = self.counters();
  rma::OpCounters sum;
  for (const auto& c : self.allgather(mine)) sum += c;
  return sum;
}

}  // namespace

// Pinned fingerprints of the reference seed's inputs: a change to gen::, to
// a mix or to the id draws changes them and fails every run loudly.
constexpr std::uint64_t kRefGraphFp = 0x879dca8f0a246ff3ULL;
constexpr std::uint64_t kRefStreamFpLinkBench = 0x1055700f154004cdULL;
constexpr std::uint64_t kRefStreamFpHot = 0x6c1852fc8b62990fULL;

int run_oltp(const Args& a) {
  const bool hot = a.workload == "oltp_hot";
  const Mix& mix = hot ? kReadIntensiveHot : kLinkBench;
  const gen::LpgConfig g = graph_config(a.seed);
  const std::uint64_t n = g.num_vertices();
  Report rep;
  Shared sh;
  std::vector<RankOut> outs(kRanks);
  const std::string wal_base = a.run_dir + "/wal-" + a.workload + "-" + std::to_string(::getpid());

  rma::Runtime rt(kRanks, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    const int r = self.id();
    RankOut& out = outs[static_cast<std::size_t>(r)];
    Loaded ld;
    std::string wal_dir;
    for (int k = 0; k < kSetups; ++k) {
      ld = Loaded{};  // tear the previous database down before the next set-up
      self.barrier();
      if (r == 0) {
        if (!wal_dir.empty()) std::filesystem::remove_all(wal_dir);
      }
      wal_dir = wal_base + "-" + std::to_string(k);
      ld = setup_graph(self, g, production_config(g, kRanks, wal_dir, kBlocksPerVertex));
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

    // Input checks (outside set-up time).
    if (r == 0) {
      sh.graph_fp = graph_fingerprint(g, ld.label_ids, ld.ptype_ids);
      gen::LpgConfig ref = g;
      ref.seed = kReferenceSeed;
      sh.ref_graph_fp = graph_fingerprint(ref, ld.label_ids, ld.ptype_ids);
      gen::KroneckerGenerator kg(g, ld.label_ids, ld.ptype_ids);
      sh.load_uprop.assign(n, -1);
      for (std::uint64_t v = 0; v < n; ++v)
        for (const auto& [pt, bytes] : kg.vertex_props(v))
          if (pt == ld.ptype_ids[0]) std::memcpy(&sh.load_uprop[v], bytes.data(), 8);
    }
    const std::uint64_t stored = self.allreduce_sum(ld.stats.edges_loaded);
    const std::uint64_t skipped = self.allreduce_sum(ld.stats.edges_skipped);
    const auto deg0 = loaded_degrees(db, self, n);
    std::uint64_t deg_sum = 0;
    for (auto d : deg0) deg_sum += d;
    const std::uint64_t blocks_load =
        self.allreduce_sum(db->blocks().allocated_count(self, static_cast<std::uint32_t>(r)));
    if (r == 0) {
      sh.m.blocks_load = blocks_load;
      sh.m.edges_skipped = skipped;
      if (stored + skipped != 2 * g.num_edges())
        sh.failures.push_back("stored + skipped edge records != 2 x generated edges");
      if (deg_sum != stored)
        sh.failures.push_back("edge records read back != edge records stored");
    }

    IdSpace ids;
    ids.init(n);
    const auto hot_ids = hot_set(a.seed, n);
    {
      IdSpace ref_ids;
      ref_ids.init(n);
      const auto ref_stream = draw_stream(mix, kReferenceSeed, 0, r, ref_ids, hot_set(kReferenceSeed, n));
      const auto fps = self.allgather(stream_fingerprint(ref_stream));
      const auto my = self.allgather(stream_fingerprint(draw_stream(mix, a.seed, 0, r, ids, hot_ids)));
      if (r == 0) {
        Fingerprint ref_fp, fp;
        for (auto x : fps) ref_fp.add(x);
        for (auto x : my) fp.add(x);
        sh.ref_stream_fp = ref_fp.value();
        sh.stream_fp = fp.value();
      }
    }
    std::unordered_map<std::uint64_t, std::vector<std::int64_t>> written;

    Tracer tr(false, &self);
    Client client(db, self, ld, n, out, tr);
    self.reset_counters();
    self.barrier();
    const double t_start = wall_s();
    bool kept = false;
    for (std::uint64_t round = 0;; ++round) {
      const bool measured = round < kMeasuredRounds;
      int go = r == 0 && (measured || (round < kMaxRounds && wall_s() - t_start < a.seconds))
                   ? 1
                   : 0;
      go = self.broadcast(go);
      if (!go) break;
      tr.set_on(a.trace && measured && round % 2 == 1);
      // What is attempted once this round starts; a crash counts it as failed.
      if (r == 0)
        std::printf("progress attempted=%llu\n",
                    static_cast<unsigned long long>((round + 1) * kQueriesPerRound * kRanks));
      const auto qs = draw_stream(mix, a.seed, round, r, ids, hot_ids);
      self.barrier();
      const double w0 = wall_s();
      const double s0 = self.sim_time_ns();
      client.run(qs, measured);
      // Deferred commit work is real work: fence the open epoch inside the
      // measured window.
      if (auto* cp = db->commit_pipeline(self)) cp->sync(self);
      const double dsim = self.sim_time_ns() - s0;
      self.barrier();
      const double w1 = wall_s();
      const double max_sim = self.allreduce_max(dsim);
      if (r == 0 && measured) {
        sh.m.unit_sim_s.push_back(max_sim * 1e-9);
        sh.m.unit_wall_s.push_back(w1 - w0);
        sh.m.unit_traced.push_back(tr.on());
      }

      // Exchange what every client committed, then check this rank's reads.
      for (auto id : self.allgatherv(client.created)) ids.add(id);
      for (auto id : self.allgatherv(client.deleted)) ids.remove(id);
      for (const auto& e : self.allgatherv(client.adds)) {
        ++ids.added_edges[e.a];
        ++ids.added_edges[e.b];
      }
      for (const auto& w : self.allgatherv(client.writes)) written[w.id].push_back(w.value);
      auto fail = [&](const ReadObs& o, const std::string& why) {
        if (out.failures.size() < 8)
          out.failures.push_back("round " + std::to_string(round) + " id " +
                                 std::to_string(o.id) + ": " + why);
      };
      for (const auto& o : client.reads) {
        if (o.not_found) {
          if (!ids.dead.contains(o.id)) fail(o, "kNotFound for a vertex nobody deleted");
          continue;
        }
        if (o.own_deleted) {
          fail(o, "read a vertex this client had deleted");
          continue;
        }
        if (o.op == Op::kProps) {
          const bool load_ok = o.id < n && o.value == sh.load_uprop[o.id];
          const auto it = written.find(o.id);
          const bool write_ok = it != written.end() &&
                                std::find(it->second.begin(), it->second.end(), o.value) !=
                                    it->second.end();
          if (!load_ok && !write_ok)
            fail(o, "property value " + std::to_string(o.value) + " neither loaded nor written");
        } else {
          const std::uint64_t base = o.id < n ? deg0[o.id] : 0;
          const auto it = ids.added_edges.find(o.id);
          const std::uint64_t bound = base + (it == ids.added_edges.end() ? 0 : it->second);
          if (static_cast<std::uint64_t>(o.value) > bound)
            fail(o, std::to_string(o.value) + " edges, more than loaded + added (" +
                        std::to_string(bound) + ")");
        }
      }
      for (const auto& m : client.missing)
        if (!ids.dead.contains(m.a) && (m.b == kNone || !ids.dead.contains(m.b)))
          fail(ReadObs{m.a, 0, Op::kUpd, true, false}, "a write found this live vertex missing");
      client.reads.clear();
      client.missing.clear();
      client.writes.clear();
      client.deleted.clear();
      client.created.clear();
      client.adds.clear();

      if (tr.on()) {
        auto spans = tr.take();
        const SelfTimes st = self_times(spans);
        collect_span(spans, st, "gdi.execute", &out.execute);
        collect_span(spans, st, "gdi.commit", &out.commit);
        collect_span(spans, st, "gdi.local", &out.local);
        if (!kept) out.kept_spans = std::move(spans);
        kept = true;
      }
      if (round + 1 == kMeasuredRounds) {
        out.window = {out.conflicts, out.cap_refusals, out.finds, out.writes_ok};
        const rma::OpCounters ctr = sum_counters(self);
        if (r == 0) sh.m.ctr = ctr;
      }
    }
    const std::uint64_t blocks_end =
        self.allreduce_sum(db->blocks().allocated_count(self, static_cast<std::uint32_t>(r)));
    const std::uint64_t wal_io_errors = self.allreduce_sum(self.counters().wal_io_errors);
    if (r == 0) {
      sh.m.blocks_end = blocks_end;
      sh.m.wal_io_errors = wal_io_errors;
    }
    ld = Loaded{};  // drains every rank's open epoch and WAL tail
    self.barrier();
    if (r == 0) {
      sh.m.wal_bytes = dir_bytes(wal_dir);
      std::filesystem::remove_all(wal_dir);
    }
  });

  // --- checks ----------------------------------------------------------------
  for (const auto& f : sh.failures) rep.fail(f);
  std::uint64_t attempted = 0, failed = 0, not_found = 0, conflicts = 0, caps = 0,
                mismatches = 0;
  std::array<std::uint64_t, 4> window{};  // conflicts, caps, finds, writes_ok
  std::vector<double> rl, wl;
  SpanStats exec, commit, local;
  for (auto& o : outs) {
    for (const auto& f : o.failures) rep.fail(f);
    attempted += o.attempted;
    failed += o.failed;
    not_found += o.not_found;
    conflicts += o.conflicts;
    caps += o.cap_refusals;
    for (std::size_t k = 0; k < window.size(); ++k) window[k] += o.window[k];
    mismatches += o.sim_mismatches;
    rl.insert(rl.end(), o.read_lat_ns.begin(), o.read_lat_ns.end());
    wl.insert(wl.end(), o.write_lat_ns.begin(), o.write_lat_ns.end());
    exec.merge(o.execute);
    commit.merge(o.commit);
    local.merge(o.local);
  }
  for (std::size_t s = 0; s < 16; ++s) {
    std::uint64_t k = 0;
    for (const auto& o : outs) k += o.failed_by_status[s];
    if (k != 0)
      std::printf("info   failed with %s: %llu\n", std::string(to_string(static_cast<Status>(s))).c_str(),
                  static_cast<unsigned long long>(k));
  }
  if (sh.m.setup_s.size() < kSetups) {
    rep.fail("set-up did not complete");
    return rep.finish(attempted, attempted);
  }
  std::printf("info   input fingerprint seed=%llu graph=%016llx stream=%016llx\n",
              static_cast<unsigned long long>(a.seed),
              static_cast<unsigned long long>(sh.graph_fp),
              static_cast<unsigned long long>(sh.stream_fp));
  std::printf("info   reference fingerprint seed=%llu graph=%016llx stream=%016llx\n",
              static_cast<unsigned long long>(kReferenceSeed),
              static_cast<unsigned long long>(sh.ref_graph_fp),
              static_cast<unsigned long long>(sh.ref_stream_fp));
  if (sh.ref_graph_fp != kRefGraphFp) rep.fail("reference graph fingerprint changed");
  if (sh.ref_stream_fp != (hot ? kRefStreamFpHot : kRefStreamFpLinkBench))
    rep.fail("reference op-stream fingerprint changed");
  if (mismatches != 0) rep.fail("span sim self times do not sum to query latency");
  if (sh.m.wal_io_errors != 0) rep.fail("WAL reported I/O errors");

  Measured& m = sh.m;
  std::vector<double> sim_u, sim_t;
  for (std::size_t i = 0; i < m.unit_traced.size(); ++i)
    (m.unit_traced[i] ? sim_t : sim_u).push_back(kQueriesPerRound * kRanks / m.unit_sim_s[i] / 1e3);
  std::printf("info   rounds=%llu (measured %zu) queries=%llu not_found=%llu conflicts=%llu "
              "cap_refusals=%llu\n",
              static_cast<unsigned long long>(attempted / (kQueriesPerRound * kRanks)),
              m.unit_traced.size(), static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(not_found),
              static_cast<unsigned long long>(conflicts), static_cast<unsigned long long>(caps));

  // Per-layer ratios cover the measured rounds, like the end-to-end metrics.
  const auto [w_conflicts, w_caps, finds, writes_ok] = window;
  m.ops_per_unit = static_cast<double>(kQueriesPerRound * kRanks);
  m.ops = static_cast<double>(kMeasuredRounds) * m.ops_per_unit;
  m.conflicts = w_conflicts;
  m.cap_refusals = w_caps;
  m.op_sim_ns = rl;
  m.op_sim_ns.insert(m.op_sim_ns.end(), wl.begin(), wl.end());
  m.read = exec;
  const auto& c = m.ctr;
  std::printf("info   ratio bases: finds=%llu writes_ok=%llu scache_hits=%llu scache_misses=%llu "
              "xlate_hits=%llu xlate_fallbacks=%llu gc_epochs=%llu wal_fsyncs=%llu\n",
              static_cast<unsigned long long>(finds), static_cast<unsigned long long>(writes_ok),
              static_cast<unsigned long long>(c.scache_hits),
              static_cast<unsigned long long>(c.scache_misses),
              static_cast<unsigned long long>(c.xlate_hits),
              static_cast<unsigned long long>(c.xlate_fallbacks),
              static_cast<unsigned long long>(c.gc_epochs),
              static_cast<unsigned long long>(c.wal_fsyncs));
  auto ratio = [](double x, double y) { return y > 0 ? x / y : 0.0; };
  // OLTP-only detail: printed for reading, not part of the JSON result.
  if (!a.trace) {
    rep.info("read_sim_p50_us", percentile(rl, 0.5) / 1e3, "us", "sim");
    rep.info("read_sim_p99_us", percentile(rl, 0.99) / 1e3, "us", "sim");
    rep.info("write_sim_p50_us", percentile(wl, 0.5) / 1e3, "us", "sim");
    rep.info("write_sim_p99_us", percentile(wl, 0.99) / 1e3, "us", "sim");
  } else {
    rep.info("sim_kops.untraced_rounds", median(sim_u), "kop/s", "sim");
    rep.info("sim_kops.traced_rounds", median(sim_t), "kop/s", "sim");
    rep.info("dht.probe_rounds_per_find", ratio(c.dht_probe_rounds, finds), "count", "count");
    rep.info("cache.scache_restamps_per_write", ratio(c.scache_restamps, writes_ok), "count",
             "count");
    // Counts at the span boundaries: the DHT walks, lock CAS rounds and
    // holder fetches inside one execute or commit (times inside src/ are not
    // traced yet).
    auto per_call = [&](const SpanStats& st, std::size_t k) {
      return ratio(static_cast<double>(st.ctr[k]), static_cast<double>(st.sim_us.size()));
    };
    rep.info("gdi.execute.atomics_per_call", per_call(exec, 1), "ops", "count");
    rep.info("gdi.execute.bytes_get_per_call", per_call(exec, 2), "B", "count");
    rep.info("gdi.execute.probe_rounds_per_call", per_call(exec, 3), "count", "count");
    if (!commit.sim_us.empty()) {
      rep.info("gdi.commit.sim_us_p50", percentile(commit.sim_us, 0.5), "us", "sim");
      rep.info("gdi.commit.sim_us_p99", percentile(commit.sim_us, 0.99), "us", "sim");
      rep.info("gdi.commit.wall_us_p50", percentile(commit.wall_us, 0.5), "us", "wall");
      rep.info("gdi.commit.remote_ops_per_call", per_call(commit, 0), "ops", "count");
      rep.info("gdi.commit.atomics_per_call", per_call(commit, 1), "ops", "count");
    }
    double lsum = 0;
    for (double x : local.wall_us) lsum += x;
    rep.info("gdi.local.wall_us_per_query",
             ratio(lsum, static_cast<double>(local.wall_us.size())), "us", "wall");
    std::vector<Span> all;
    for (const auto& o : outs) all.insert(all.end(), o.kept_spans.begin(), o.kept_spans.end());
    write_spans(a.run_dir + "/spans-" + a.workload + ".csv", all);
  }
  report_measured(a.trace, m, rep);
  return rep.finish(attempted, failed);
}

}  // namespace perfbench
