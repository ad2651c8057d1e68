// Order statistics over kept samples and host-time measurements.
//
// The benchmark keeps every sample (publish->delivery latencies in sim µs,
// host ns per scheduler event or window) and reads percentiles off the sorted
// vector. A percentile is only meaningful when enough samples lie beyond it,
// so callers check Supported() before reporting one.

#ifndef PERFBENCH_LATENCY_H_
#define PERFBENCH_LATENCY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// A percentile is reported only when at least this many samples lie beyond it.
inline constexpr size_t kMinSamplesBeyond = 10;

class Samples {
 public:
  void Add(int64_t value) { values_.push_back(value); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  int64_t Sum() const;

  // Nearest-rank percentile, q in (0, 1). Zero when empty.
  int64_t Percentile(double q);

  // Samples strictly above the nearest-rank position of q.
  size_t Beyond(double q) const;
  bool Supported(double q) const { return Beyond(q) >= kMinSamplesBeyond; }

 private:
  std::vector<int64_t> values_;
  bool sorted_ = false;
};

// Median of a small set of measurements (per-episode rates, set-up times).
double Median(std::vector<double> values);

// Mean of the best twentieth (at least one) of `values`: the highest when
// `higher_is_better`, else the lowest.
double BestTwentiethMean(std::vector<double> values, bool higher_is_better);

}  // namespace perfbench

#endif  // PERFBENCH_LATENCY_H_
