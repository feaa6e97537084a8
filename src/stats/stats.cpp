#include "stats/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/hash.hpp"

namespace gdi::stats {

Summary summarize(std::vector<double> samples, double warmup_fraction,
                  std::uint64_t seed) {
  Summary s;
  if (samples.empty()) return s;
  // Drop the first warmup_fraction of samples (paper Section 6.1).
  const auto warm = static_cast<std::size_t>(
      warmup_fraction * static_cast<double>(samples.size()));
  samples.erase(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(warm));
  if (samples.empty()) return s;
  s.n = samples.size();
  double sum = 0;
  s.min = samples[0];
  s.max = samples[0];
  for (double v : samples) {
    sum += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.mean = sum / static_cast<double>(s.n);

  // Nonparametric CI: bootstrap percentile method, 200 resamples.
  constexpr int kResamples = 200;
  std::vector<double> means;
  means.reserve(kResamples);
  CounterRng rng(seed);
  for (int r = 0; r < kResamples; ++r) {
    double acc = 0;
    for (std::size_t i = 0; i < samples.size(); ++i)
      acc += samples[rng.next_below(samples.size())];
    means.push_back(acc / static_cast<double>(samples.size()));
  }
  std::sort(means.begin(), means.end());
  s.ci95_lo = means[static_cast<std::size_t>(0.025 * (kResamples - 1))];
  s.ci95_hi = means[static_cast<std::size_t>(0.975 * (kResamples - 1))];
  return s;
}

Histogram::Histogram(double lo_ns, double hi_ns, int buckets_per_decade)
    : lo_ns_(lo_ns), hi_ns_(hi_ns) {
  log_lo_ = std::log10(lo_ns);
  const double decades = std::log10(hi_ns) - log_lo_;
  const auto n = static_cast<std::size_t>(std::ceil(decades * buckets_per_decade));
  inv_log_step_ = static_cast<double>(n) / decades;
  counts_.assign(std::max<std::size_t>(n, 1), 0);
}

void Histogram::add(double ns) {
  std::size_t i;
  if (ns < lo_ns_) {
    i = 0;
  } else if (ns >= hi_ns_) {
    i = counts_.size() - 1;
  } else {
    i = static_cast<std::size_t>((std::log10(ns) - log_lo_) * inv_log_step_);
    i = std::min(i, counts_.size() - 1);
  }
  ++counts_[i];
  ++total_;
  sum_ += ns;
}

void Histogram::merge(const Histogram& other) {
  for (std::size_t i = 0; i < counts_.size() && i < other.counts_.size(); ++i)
    counts_[i] += other.counts_[i];
  total_ += other.total_;
  sum_ += other.sum_;
}

double Histogram::bucket_lo_ns(std::size_t i) const {
  return std::pow(10.0, log_lo_ + static_cast<double>(i) / inv_log_step_);
}

double Histogram::percentile_ns(double p) const {
  if (total_ == 0) return 0;
  const auto target = static_cast<std::uint64_t>(p / 100.0 * static_cast<double>(total_));
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    acc += counts_[i];
    if (acc >= target) return bucket_lo_ns(i);
  }
  return bucket_lo_ns(counts_.size() - 1);
}

std::string Histogram::to_string(int max_rows) const {
  std::ostringstream os;
  int rows = 0;
  for (std::size_t i = 0; i < counts_.size() && rows < max_rows; ++i) {
    if (counts_[i] == 0) continue;
    os << "  " << Table::fmt(bucket_lo_ns(i) / 1000.0, 2) << " us: " << counts_[i] << "\n";
    ++rows;
  }
  return os.str();
}

std::string counters_line(const rma::OpCounters& c) {
  std::string line;
  for (const rma::OpCounterField& f : rma::kOpCounterFields) {
    const std::uint64_t v = c.*f.member;
    if (v == 0) continue;
    if (!line.empty()) line += ' ';
    line += f.name;
    line += '=';
    line += v < 1000 ? std::to_string(v) : Table::fmt_si(static_cast<double>(v), 1);
  }
  return line;
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

std::string Table::to_string() const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : "";
      os << cell << std::string(widths[c] - cell.size() + 2, ' ');
    }
    os << "\n";
  };
  emit(headers_);
  std::size_t dash = 0;
  for (auto w : widths) dash += w + 2;
  os << std::string(dash, '-') << "\n";
  for (const auto& row : rows_) emit(row);
  return os.str();
}

std::string Table::fmt(double v, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << v;
  return os.str();
}

std::string Table::fmt_si(double v, int precision) {
  const char* suffix = "";
  if (v >= 1e9) {
    v /= 1e9;
    suffix = "B";
  } else if (v >= 1e6) {
    v /= 1e6;
    suffix = "M";
  } else if (v >= 1e3) {
    v /= 1e3;
    suffix = "K";
  }
  return fmt(v, precision) + suffix;
}

}  // namespace gdi::stats
