// Time-binned accumulators for the experiment metrics: throughput per second,
// queue occupancy over time, CPU utilisation over time. Every figure in the
// paper's evaluation that has "Time (seconds)" on the x-axis is produced from
// one of these.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/time.hpp"

namespace tcpz {

/// Accumulates weighted events into fixed-width time bins starting at t=0.
/// `rate_at(i)` converts a bin's total into a per-second rate, which is how
/// throughput (bits per bin -> bps) and packet rates (packets per bin -> pps)
/// are reported.
class TimeSeries {
 public:
  explicit TimeSeries(SimTime bin_width = SimTime::seconds(1));

  void add(SimTime t, double weight = 1.0) {
    const std::int64_t ns = t.nanos();
    if (ns >= cur_lo_ && ns < cur_hi_) [[likely]] {
      bins_[cur_bin_] += weight;
      return;
    }
    add_to_new_bin(t, weight);
  }

  [[nodiscard]] std::size_t bins() const { return bins_.size(); }
  [[nodiscard]] double total(std::size_t bin) const;
  /// Bin total divided by bin width in seconds (e.g. bytes -> bytes/s).
  [[nodiscard]] double rate_at(std::size_t bin) const;
  [[nodiscard]] double bin_start_seconds(std::size_t bin) const;
  [[nodiscard]] SimTime bin_width() const { return bin_width_; }

  /// Mean of rate_at over bins [from, to). Out-of-range bins count as zero,
  /// so averaging over a window longer than the data is well-defined.
  [[nodiscard]] double mean_rate(std::size_t from, std::size_t to) const;

  [[nodiscard]] const std::vector<double>& raw_bins() const { return bins_; }

 private:
  /// add() outside the cached bin: divides, grows the bins, moves the cache.
  void add_to_new_bin(SimTime t, double weight);

  SimTime bin_width_;
  std::vector<double> bins_;
  /// The last bin add() touched and its window [lo, hi) in nanoseconds:
  /// events arrive mostly in time order, so most adds skip the division.
  std::size_t cur_bin_ = 0;
  std::int64_t cur_lo_ = 0;
  std::int64_t cur_hi_ = 0;
};

/// Samples an instantaneous gauge (queue depth, CPU busy fraction) on demand;
/// stores (time, value) pairs. Used where the paper plots a level rather than
/// a rate.
class GaugeSeries {
 public:
  void record(SimTime t, double value);

  struct Point {
    SimTime t;
    double value;
  };

  [[nodiscard]] const std::vector<Point>& points() const { return points_; }
  [[nodiscard]] bool empty() const { return points_.empty(); }

  /// Maximum value observed in [from, to].
  [[nodiscard]] double max_in(SimTime from, SimTime to) const;
  /// Mean of recorded values in [from, to] (unweighted by duration; the
  /// experiment harness samples gauges on a fixed cadence, so this is a time
  /// average).
  [[nodiscard]] double mean_in(SimTime from, SimTime to) const;

 private:
  std::vector<Point> points_;
};

}  // namespace tcpz
