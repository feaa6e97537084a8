// Shared pieces of the benchmark program: arguments, the two clocks, raw
// sample percentiles, input fingerprints, the span tracer, the metric report
// and the collective graph set-up used by the in-process workloads.
//
// The benchmark talks to the system only through its public API (Database,
// BulkLoader, Transaction/BatchScope, the work:: OLAP kernels, net::NetClient
// and net::Listener). Every op stream, mix and id distribution lives here, so
// a change inside src/ cannot change what is measured.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gdi/gdi.hpp"
#include "generator/kronecker.hpp"

namespace perfbench {

using namespace gdi;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string run_dir = ".bench_run";  ///< scratch space inside the checkout
};

/// Wall clock: std::chrono::steady_clock, in seconds since an arbitrary epoch.
[[nodiscard]] inline double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile of raw samples (q in [0, 1]); NaN when empty.
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// FNV-1a over 64-bit words: the input fingerprint of a workload.
class Fingerprint {
 public:
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// --- tracing ---------------------------------------------------------------
//
// One Tracer per thread. A span records its name, wall start/end, the rank's
// simulated start/end (read, never charged), its parent span, a request id
// and the rank. Spans only *read* the clocks, so a traced run's simulated
// numbers are those of an untraced run. When tracing is off, begin() returns
// -1 without touching a clock.
struct Span {
  const char* name = "";
  double w0 = 0, w1 = 0;  ///< wall seconds
  double s0 = 0, s1 = 0;  ///< simulated ns of `rank` (0 off-rank)
  int parent = -1;
  std::uint64_t req = 0;
  int rank = -1;
  /// rma::OpCounters deltas over the span (remote_ops, atomics, bytes_get,
  /// dht_probe_rounds), children included; zero off-rank.
  std::array<std::uint64_t, 4> ctr{};
};

class Tracer {
 public:
  Tracer(bool on, rma::Rank* rank) : on_(on), rank_(rank) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  int begin(const char* name, std::uint64_t req) {
    if (!on_) return -1;
    Span s;
    s.name = name;
    s.parent = open_;
    s.req = req;
    s.rank = rank_ != nullptr ? rank_->id() : -1;
    if (rank_ != nullptr) {
      s.s0 = rank_->sim_time_ns();
      s.ctr = counts();
    }
    s.w0 = wall_s();
    spans_.push_back(s);
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }
  void end(int id) {
    if (id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.w1 = wall_s();
    if (rank_ != nullptr) {
      s.s1 = rank_->sim_time_ns();
      const auto now = counts();
      for (std::size_t i = 0; i < now.size(); ++i) s.ctr[i] = now[i] - s.ctr[i];
    }
    open_ = s.parent;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Hand the recorded spans to the caller and start empty.
  std::vector<Span> take() {
    std::vector<Span> out;
    out.swap(spans_);
    open_ = -1;
    return out;
  }

 private:
  [[nodiscard]] std::array<std::uint64_t, 4> counts() const {
    const auto& c = rank_->counters();
    return {c.remote_ops, c.atomics, c.bytes_get, c.dht_probe_rounds};
  }

  bool on_ = false;
  rma::Rank* rank_ = nullptr;
  int open_ = -1;
  std::vector<Span> spans_;
};

/// RAII span on a Tracer.
class SpanScope {
 public:
  SpanScope(Tracer& t, const char* name, std::uint64_t req = 0)
      : t_(t), id_(t.begin(name, req)) {}
  ~SpanScope() { t_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

/// Per-span self times: duration minus the part its direct children cover
/// (children of one thread never overlap, so this is a plain subtraction).
struct SelfTimes {
  std::vector<double> wall_s;
  std::vector<double> sim_ns;
};
[[nodiscard]] SelfTimes self_times(const std::vector<Span>& spans);

/// Self-time samples of every span named `name` (wall in µs, sim in µs),
/// plus the summed counter deltas of those spans.
struct SpanStats {
  std::vector<double> sim_us;
  std::vector<double> wall_us;
  std::array<std::uint64_t, 4> ctr{};
  void merge(const SpanStats& o);
};
void collect_span(const std::vector<Span>& spans, const SelfTimes& self,
                  const char* name, SpanStats* out);

/// Write spans to `path` as CSV, one row per span after a header line.
void write_spans(const std::string& path, const std::vector<Span>& spans);

// --- report ------------------------------------------------------------------
//
// Every metric is printed as a human line naming its unit and clock; the
// last line of stdout is the JSON result: correct, attempted, failed and
// metrics (each with its value and unit).
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& clock);
  /// An informational line (not part of the JSON result).
  void info(const std::string& name, double value, const std::string& unit,
            const std::string& clock);
  void fail(const std::string& why);
  [[nodiscard]] bool correct() const { return correct_; }
  /// Prints the final JSON line; returns the process exit code.
  int finish(std::uint64_t attempted, std::uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  bool correct_ = true;
};

/// Peak resident set of this process in MB (getrusage).
[[nodiscard]] double peak_rss_mb();

/// What every in-process workload measures, in the same terms, so that each
/// one prints every metric of BENCHMARK.json. An *op* is the workload's unit
/// of client work: an OLTP query, or one OLAP kernel call (BFS or 3-hop from
/// one root, or PageRank). A *unit* is the fixed batch of ops a throughput
/// sample covers: an OLTP round or an OLAP suite.
struct Measured {
  /// One entry per set-up: create + generate + load + status collective,
  /// then generation alone, the bulk load (wall) and the bulk load (sim).
  std::vector<double> setup_s, gen_wall_s, load_wall_s, load_sim_ms;
  double ops_per_unit = 0;
  /// One entry per measured unit: its simulated seconds (max over ranks),
  /// its wall seconds, and whether it recorded spans.
  std::vector<double> unit_sim_s, unit_wall_s;
  std::vector<bool> unit_traced;
  std::vector<double> op_sim_ns;  ///< raw simulated latency of every measured op
  double ops = 0;                 ///< measured ops: the base of the per-op ratios
  rma::OpCounters ctr;            ///< the measured window, summed over ranks
  std::uint64_t conflicts = 0;    ///< kTxnConflict outcomes in the window
  std::uint64_t cap_refusals = 0; ///< kNoSpace at the degree cap in the window
  std::uint64_t blocks_load = 0, blocks_end = 0, edges_skipped = 0;
  std::uint64_t wal_bytes = 0, wal_io_errors = 0;
  /// Read calls into gdi: BatchScope::execute (OLTP, traced rounds) or one
  /// OLAP kernel call; ctr[0] sums their remote ops.
  SpanStats read;
};

/// Prints the end-to-end metrics (`--trace 0`) or the per-layer metrics
/// (`--trace 1`) of BENCHMARK.json from `m`.
void report_measured(bool trace, const Measured& m, Report& rep);

// --- graph set-up (in-process workloads) -------------------------------------

/// The production configuration every workload runs: batched reads, the
/// per-transaction block cache, the shared cache with write-through, the
/// commit pipeline and the WAL (in `wal_dir`). The block pool holds
/// `blocks_per_vertex` blocks per loaded vertex (the load itself takes ~2.2).
[[nodiscard]] DatabaseConfig production_config(const gen::LpgConfig& g, int nranks,
                                               const std::string& wal_dir,
                                               std::uint64_t blocks_per_vertex);

/// The benchmark graph: Kronecker scale 15, edge factor 16, the generator's
/// default decoration (2 of 20 labels and 4 of 13 property types per vertex).
[[nodiscard]] gen::LpgConfig graph_config(std::uint64_t seed);

struct Loaded {
  std::shared_ptr<Database> db;
  std::vector<std::uint32_t> label_ids;
  std::vector<std::uint32_t> ptype_ids;
  BulkLoadStats stats;  ///< this rank's
  bool ok = false;      ///< load succeeded on every rank
  double gen_wall_s = 0;
  double load_wall_s = 0;
  double load_sim_ns = 0;     ///< max over ranks
  double setup_wall_s = 0;    ///< create + generate + load + status collective
};

/// Collective: create a database with `cfg`, register metadata, generate this
/// rank's slice and bulk load it, then agree on the load status across ranks.
[[nodiscard]] Loaded setup_graph(rma::Rank& self, const gen::LpgConfig& g,
                                 const DatabaseConfig& cfg);

/// Collective: gather per-rank shards (rank r holds ids r, r+P, r+2P, ...,
/// the round-robin owner layout) into one id-indexed vector on every rank.
template <class T>
[[nodiscard]] std::vector<T> merge_shards(rma::Rank& self, std::uint64_t n,
                                          const std::vector<T>& shard) {
  const auto P = static_cast<std::uint64_t>(self.nranks());
  const auto flat = self.allgatherv(shard);
  std::vector<T> global(n);
  std::size_t pos = 0;
  for (std::uint64_t r = 0; r < P; ++r)
    for (std::uint64_t v = r; v < n; v += P) global[v] = flat[pos++];
  return global;
}

/// Size in bytes of every regular file below `dir`.
[[nodiscard]] std::uint64_t dir_bytes(const std::string& dir);

// --- workloads ---------------------------------------------------------------
int run_oltp(const Args& a);
int run_olap(const Args& a);
int run_wire(const Args& a);

}  // namespace perfbench
