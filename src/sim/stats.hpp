// Statistics collection for simulated components and experiment reporting.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace gputn::sim {

/// Streaming accumulator (Welford) for scalar samples.
class Accumulator {
 public:
  void add(double x) {
    ++count_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  std::uint64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double sum() const { return sum_; }
  /// Empty-accumulator sentinel: min()/max() (like mean()) return 0.0 when
  /// no sample was added — a deliberate NaN-free choice so exporters can
  /// print any accumulator without guarding. Callers that must distinguish
  /// "no samples" from "all samples were 0" check count() first.
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double variance() const {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }

  void reset() { *this = Accumulator{}; }

  /// Exact parallel merge (Chan et al. combination of Welford states):
  /// count/mean/variance/min/max/sum all come out as if every sample had
  /// been added to one accumulator.
  void merge(const Accumulator& other) {
    if (other.count_ == 0) return;
    if (count_ == 0) {
      *this = other;
      return;
    }
    std::uint64_t n = count_ + other.count_;
    double delta = other.mean_ - mean_;
    m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                           static_cast<double>(other.count_) /
                           static_cast<double>(n);
    mean_ += delta * static_cast<double>(other.count_) /
             static_cast<double>(n);
    count_ = n;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Power-of-two bucketed histogram for latency / size distributions.
class Histogram {
 public:
  void add(std::uint64_t value) {
    int bucket = value == 0 ? 0 : 64 - std::countl_zero(value);
    if (bucket >= static_cast<int>(buckets_.size())) {
      buckets_.resize(bucket + 1, 0);
    }
    ++buckets_[bucket];
    acc_.add(static_cast<double>(value));
  }

  std::uint64_t count() const { return acc_.count(); }
  double mean() const { return acc_.mean(); }
  double min() const { return acc_.min(); }
  double max() const { return acc_.max(); }
  std::uint64_t bucket_count(int b) const {
    return b < static_cast<int>(buckets_.size()) ? buckets_[b] : 0;
  }
  int num_buckets() const { return static_cast<int>(buckets_.size()); }
  const Accumulator& summary() const { return acc_; }

  /// Quantile estimate (q in [0, 1]) from the pow2 buckets: walk the
  /// cumulative counts to the target rank and interpolate linearly within
  /// the covering bucket [2^(b-1), 2^b). Bucket 0 holds only the value 0.
  /// Edge cases return exact values, never interpolated garbage: an empty
  /// histogram reports 0, a single sample reports that sample, and every
  /// estimate is clamped to the observed [min, max] so p100 is not inflated
  /// to the bucket's upper edge (nor low quantiles deflated below min).
  double quantile(double q) const;

  /// Exact bucket-wise merge: the result is identical to having added both
  /// histograms' samples to one histogram.
  void merge(const Histogram& other) {
    if (other.buckets_.size() > buckets_.size()) {
      buckets_.resize(other.buckets_.size(), 0);
    }
    for (std::size_t b = 0; b < other.buckets_.size(); ++b) {
      buckets_[b] += other.buckets_[b];
    }
    acc_.merge(other.acc_);
  }

 private:
  std::vector<std::uint64_t> buckets_;
  Accumulator acc_;
};

/// Named counter registry so components can publish stats without global
/// state; owned by the top-level experiment or node.
class StatRegistry {
 public:
  std::uint64_t& counter(const std::string& name) { return counters_[name]; }
  Accumulator& accumulator(const std::string& name) { return accums_[name]; }
  Histogram& histogram(const std::string& name) { return histos_[name]; }

  std::uint64_t counter_value(const std::string& name) const {
    auto it = counters_.find(name);
    return it != counters_.end() ? it->second : 0;
  }
  /// The named histogram, or nullptr if it was never registered.
  const Histogram* find_histogram(const std::string& name) const {
    auto it = histos_.find(name);
    return it != histos_.end() ? &it->second : nullptr;
  }

  const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  const std::map<std::string, Accumulator>& accumulators() const {
    return accums_;
  }
  const std::map<std::string, Histogram>& histograms() const {
    return histos_;
  }

  /// Render all stats as "name = value" lines (for debugging / reports).
  std::string to_string() const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, Accumulator> accums_;
  std::map<std::string, Histogram> histos_;
};

/// A registry counter (T = std::uint64_t) or histogram looked up at its
/// first use and cached, for stats bumped once per message. The key enters
/// the registry exactly when a direct counter()/histogram() call would add
/// it, so the key set and the JSON are unchanged. Registries never erase
/// entries, so the cached reference stays valid for the registry's life.
template <typename T>
class LazyStat {
 public:
  LazyStat(StatRegistry& reg, const char* name) : reg_(&reg), name_(name) {}
  LazyStat(const LazyStat&) = delete;
  LazyStat& operator=(const LazyStat&) = delete;

  T& operator*() {
    if (entry_ == nullptr) [[unlikely]] {
      if constexpr (std::is_same_v<T, Histogram>) {
        entry_ = &reg_->histogram(name_);
      } else {
        static_assert(std::is_same_v<T, std::uint64_t>);
        entry_ = &reg_->counter(name_);
      }
    }
    return *entry_;
  }
  T* operator->() { return &**this; }

 private:
  StatRegistry* reg_;
  const char* name_;
  T* entry_ = nullptr;
};

/// Serialize a registry to a JSON object with "counters", "accumulators"
/// and "histograms" sections; histograms carry p50/p90/p99 quantile
/// estimates plus the raw pow2 buckets. Deterministic: map iteration is
/// name-sorted and number formatting is fixed.
std::string stats_json(const StatRegistry& reg);

}  // namespace gputn::sim
