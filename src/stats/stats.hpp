// Measurement utilities mirroring the paper's methodology (Section 6.1):
// arithmetic means, 95% nonparametric confidence intervals, warmup dropping,
// and the log-bucketed latency histograms of Figure 5.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rma/net_params.hpp"

namespace gdi::stats {

struct Summary {
  double mean = 0;
  double ci95_lo = 0;
  double ci95_hi = 0;
  double min = 0;
  double max = 0;
  std::size_t n = 0;
};

/// Arithmetic mean + 95% nonparametric (bootstrap percentile) CI.
[[nodiscard]] Summary summarize(std::vector<double> samples,
                                double warmup_fraction = 0.01,
                                std::uint64_t seed = 1);

/// Logarithmically bucketed latency histogram (Figure 5 style).
class Histogram {
 public:
  /// Buckets span [lo_ns, hi_ns) with `buckets_per_decade` log-spaced bins;
  /// out-of-range samples aggregate into the first/last bin (the paper
  /// "aggregates query latencies outside the range ... at the upper bound").
  Histogram(double lo_ns = 1e2, double hi_ns = 1e8, int buckets_per_decade = 8);

  void add(double ns);
  void merge(const Histogram& other);

  [[nodiscard]] std::size_t bucket_count() const { return counts_.size(); }
  [[nodiscard]] std::uint64_t count(std::size_t i) const { return counts_[i]; }
  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] double bucket_lo_ns(std::size_t i) const;
  [[nodiscard]] double percentile_ns(double p) const;  ///< p in [0,100]
  [[nodiscard]] double mean_ns() const { return total_ ? sum_ / static_cast<double>(total_) : 0; }

  /// Render as "lo_us..hi_us: count" rows, skipping empty buckets.
  [[nodiscard]] std::string to_string(int max_rows = 64) const;

 private:
  double lo_ns_, hi_ns_;
  double log_lo_, inv_log_step_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  double sum_ = 0;
};

/// Latency recorder: a log-bucketed Histogram bundled with the percentile
/// shorthand every latency report wants (p50/p99/p999). One binning policy
/// for every latency surface in the tree -- the per-op OLTP histograms of
/// Figure 5, the baseline RPC models, and the per-tenant histograms of the
/// multi-tenant scheduler all record into this type, and merge() makes the
/// per-thread / per-tenant instances aggregatable (bucket-wise addition, so
/// merged percentiles are exact up to bucket resolution, not averaged).
class LatencyHist {
 public:
  explicit LatencyHist(double lo_ns = 1e2, double hi_ns = 1e8,
                       int buckets_per_decade = 8)
      : h_(lo_ns, hi_ns, buckets_per_decade) {}

  void add(double ns) { h_.add(ns); }
  void merge(const LatencyHist& other) { h_.merge(other.h_); }

  [[nodiscard]] std::uint64_t total() const { return h_.total(); }
  [[nodiscard]] double mean_ns() const { return h_.mean_ns(); }
  [[nodiscard]] double percentile_ns(double p) const { return h_.percentile_ns(p); }
  [[nodiscard]] double p50_ns() const { return h_.percentile_ns(50); }
  [[nodiscard]] double p99_ns() const { return h_.percentile_ns(99); }
  [[nodiscard]] double p999_ns() const { return h_.percentile_ns(99.9); }
  [[nodiscard]] std::string to_string(int max_rows = 64) const {
    return h_.to_string(max_rows);
  }
  [[nodiscard]] const Histogram& hist() const { return h_; }

 private:
  Histogram h_;
};

/// One-line rendering of RMA op counters for bench output: every nonzero
/// counter as `name=value` (SI-abbreviated from 1000 up), in GDI_OP_COUNTERS order.
[[nodiscard]] std::string counters_line(const rma::OpCounters& c);

/// Block-cache hit rate in [0,1]; 0 when the cache saw no traffic.
[[nodiscard]] inline double cache_hit_rate(const rma::OpCounters& c) {
  const std::uint64_t total = c.cache_hits + c.cache_misses;
  return total == 0 ? 0.0 : static_cast<double>(c.cache_hits) / static_cast<double>(total);
}

/// Shared (inter-transaction) holder-cache hit rate in [0,1].
[[nodiscard]] inline double scache_hit_rate(const rma::OpCounters& c) {
  const std::uint64_t total = c.scache_hits + c.scache_misses;
  return total == 0 ? 0.0
                    : static_cast<double>(c.scache_hits) / static_cast<double>(total);
}

/// Minimal aligned-column table printer for the benchmark harnesses.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);
  void add_row(std::vector<std::string> cells);
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] static std::string fmt(double v, int precision = 3);
  [[nodiscard]] static std::string fmt_si(double v, int precision = 3);  ///< 1.2M etc.

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace gdi::stats
