#pragma once

/// \file summary.h
/// Streaming statistics accumulator used by the experiment harness: mean,
/// variance (Welford), sum and min/max.

#include <cstddef>
#include <vector>

namespace spr {

/// Accumulates doubles; O(1) per insert for moments. The values are retained
/// so that merge() and the JSON form replay them bit-identically.
class Summary {
 public:
  void add(double value);

  std::size_t count() const noexcept { return values_.size(); }
  bool empty() const noexcept { return values_.empty(); }

  /// Every statistic of an *empty* summary is 0.0 — mean, min, max, sum
  /// and variance alike — so empty aggregates (e.g. a scheme with zero
  /// delivered packets) render as zeros everywhere.
  double mean() const noexcept { return mean_; }
  double min() const noexcept;
  double max() const noexcept;
  double sum() const noexcept { return sum_; }

  /// Sample variance / standard deviation (n-1 denominator); 0 for n < 2.
  double variance() const noexcept;
  double stddev() const noexcept;

  /// Merges another summary into this one.
  void merge(const Summary& other);

  /// The retained samples, in insertion order — what merge() replays and
  /// what the full JSON form (report/serialize.h) persists so a
  /// deserialized Summary reconstructs the accumulator bit-identically.
  const std::vector<double>& values() const noexcept { return values_; }

 private:
  std::vector<double> values_;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
};

}  // namespace spr
