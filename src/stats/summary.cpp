#include "stats/summary.h"

#include <algorithm>
#include <cmath>

namespace spr {

void Summary::add(double value) {
  values_.push_back(value);
  sum_ += value;
  double delta = value - mean_;
  mean_ += delta / static_cast<double>(values_.size());
  m2_ += delta * (value - mean_);
}

double Summary::min() const noexcept {
  return values_.empty() ? 0.0 : *std::min_element(values_.begin(), values_.end());
}

double Summary::max() const noexcept {
  return values_.empty() ? 0.0 : *std::max_element(values_.begin(), values_.end());
}

double Summary::variance() const noexcept {
  if (values_.size() < 2) return 0.0;
  return m2_ / static_cast<double>(values_.size() - 1);
}

double Summary::stddev() const noexcept { return std::sqrt(variance()); }

void Summary::merge(const Summary& other) {
  for (double v : other.values_) add(v);
}

}  // namespace spr
