// Lightweight statistics primitives used by the simulator and the
// benchmark harnesses: running summaries, fixed-bin histograms, and a
// quantile sketch good enough for "99.9% of delays < X" style claims.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace paradet {

/// Running summary of a stream of samples: count / sum / min / max / mean.
class Summary {
 public:
  void add(double x) {
    ++count_;
    sum_ += x;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }

  void merge(const Summary& other) {
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-width-bin histogram over [0, bin_width * bins). Samples beyond the
/// last bin are clamped into an overflow bucket but still counted in the
/// summary, so means and maxima remain exact.
class Histogram {
 public:
  Histogram() : Histogram(1.0, 1) {}
  Histogram(double bin_width, std::size_t bins)
      : bin_width_(bin_width), counts_(bins, 0) {}

  void add(double x) {
    summary_.add(x);
    if (x < 0) x = 0;
    const auto bin = static_cast<std::size_t>(x / bin_width_);
    if (bin >= counts_.size()) {
      ++overflow_;
    } else {
      ++counts_[bin];
    }
  }

  const Summary& summary() const { return summary_; }
  double bin_width() const { return bin_width_; }
  std::size_t bins() const { return counts_.size(); }
  std::uint64_t bin_count(std::size_t i) const { return counts_.at(i); }
  std::uint64_t overflow() const { return overflow_; }

  /// Probability density of bin i (counts normalised so the histogram
  /// integrates to ~1 over the covered range).
  double density(std::size_t i) const {
    const auto n = summary_.count();
    if (n == 0) return 0.0;
    return static_cast<double>(counts_.at(i)) /
           (static_cast<double>(n) * bin_width_);
  }

  /// Merges another histogram's samples into this one. Requires an
  /// identical bin width (histograms produced by runs of the same
  /// configuration always match); the bin vector grows to cover the wider
  /// of the two. Merging in a fixed order (e.g. task-index order after a
  /// parallel campaign joins) yields bit-identical results regardless of
  /// how many worker threads produced the inputs.
  void merge(const Histogram& other) {
    if (other.summary_.count() == 0 && other.overflow_ == 0) return;
    if (summary_.count() == 0 && overflow_ == 0 &&
        bin_width_ != other.bin_width_) {
      *this = other;
      return;
    }
    if (counts_.size() < other.counts_.size()) {
      counts_.resize(other.counts_.size(), 0);
    }
    for (std::size_t i = 0; i < other.counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
    overflow_ += other.overflow_;
    summary_.merge(other.summary_);
  }

  /// Fraction of samples strictly inside the covered range below x.
  double fraction_below(double x) const {
    const auto n = summary_.count();
    if (n == 0) return 0.0;
    std::uint64_t acc = 0;
    const auto limit_bin = static_cast<std::size_t>(x / bin_width_);
    for (std::size_t i = 0; i < counts_.size() && i < limit_bin; ++i) {
      acc += counts_[i];
    }
    return static_cast<double>(acc) / static_cast<double>(n);
  }

 private:
  double bin_width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t overflow_ = 0;
  Summary summary_;
};

/// A named counter bag, for simulator component statistics.
class Counters {
 public:
  void inc(const std::string& name, std::uint64_t by = 1);
  std::uint64_t get(const std::string& name) const;
  std::vector<std::pair<std::string, std::uint64_t>> sorted() const;

  /// Entries in insertion order. Re-playing them through `inc` on a fresh
  /// bag reproduces this bag exactly, insertion order included — the
  /// round-trip contract runtime/serialize relies on.
  const std::vector<std::pair<std::string, std::uint64_t>>& entries() const {
    return entries_;
  }

  /// Adds every counter from `other` into this bag. Insertion order of
  /// names first seen via `other` follows `other`'s order, so merging a
  /// sequence of bags in a fixed order is deterministic.
  void merge(const Counters& other);

 private:
  std::vector<std::pair<std::string, std::uint64_t>> entries_;
};

}  // namespace paradet
