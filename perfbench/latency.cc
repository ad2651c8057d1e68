#include "perfbench/latency.h"

#include <algorithm>
#include <cmath>
#include <functional>

namespace perfbench {
namespace {

size_t NearestRank(double q, size_t n) {
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<size_t>(rank, 1, n) - 1;
}

}  // namespace

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

int64_t Samples::Sum() const {
  int64_t total = 0;
  for (int64_t value : values_) {
    total += value;
  }
  return total;
}

int64_t Samples::Percentile(double q) {
  if (values_.empty()) {
    return 0;
  }
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  return values_[NearestRank(q, values_.size())];
}

size_t Samples::Beyond(double q) const {
  if (values_.empty()) {
    return 0;
  }
  return values_.size() - 1 - NearestRank(q, values_.size());
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double BestTwentiethMean(std::vector<double> values, bool higher_is_better) {
  if (values.empty()) {
    return 0.0;
  }
  if (higher_is_better) {
    std::sort(values.begin(), values.end(), std::greater<>());
  } else {
    std::sort(values.begin(), values.end());
  }
  const size_t count = (values.size() + 19) / 20;
  double sum = 0.0;
  for (size_t i = 0; i < count; ++i) {
    sum += values[i];
  }
  return sum / static_cast<double>(count);
}

}  // namespace perfbench
