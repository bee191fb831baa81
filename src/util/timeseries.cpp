#include "util/timeseries.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace tcpz {

TimeSeries::TimeSeries(SimTime bin_width) : bin_width_(bin_width) {
  if (bin_width.nanos() <= 0) {
    throw std::invalid_argument("TimeSeries bin width must be positive");
  }
}

void TimeSeries::add_to_new_bin(SimTime t, double weight) {
  const std::int64_t ns = t.nanos();
  if (ns < 0) return;
  const std::int64_t width = bin_width_.nanos();
  const auto bin = static_cast<std::size_t>(ns / width);
  if (bin >= bins_.size()) bins_.resize(bin + 1, 0.0);
  bins_[bin] += weight;
  cur_bin_ = bin;
  cur_lo_ = ns - ns % width;
  cur_hi_ = cur_lo_ > INT64_MAX - width ? INT64_MAX : cur_lo_ + width;
}

double TimeSeries::total(std::size_t bin) const {
  return bin < bins_.size() ? bins_[bin] : 0.0;
}

double TimeSeries::rate_at(std::size_t bin) const {
  return total(bin) / (static_cast<double>(bin_width_.nanos()) / 1e9);
}

double TimeSeries::bin_start_seconds(std::size_t bin) const {
  return static_cast<double>(bin) * static_cast<double>(bin_width_.nanos()) / 1e9;
}

double TimeSeries::mean_rate(std::size_t from, std::size_t to) const {
  if (to <= from) return 0.0;
  double sum = 0.0;
  for (std::size_t i = from; i < to; ++i) sum += rate_at(i);
  return sum / static_cast<double>(to - from);
}

void GaugeSeries::record(SimTime t, double value) {
  points_.push_back({t, value});
}

double GaugeSeries::max_in(SimTime from, SimTime to) const {
  double best = 0.0;
  for (const auto& p : points_) {
    if (p.t >= from && p.t <= to) best = std::max(best, p.value);
  }
  return best;
}

double GaugeSeries::mean_in(SimTime from, SimTime to) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& p : points_) {
    if (p.t >= from && p.t <= to) {
      sum += p.value;
      ++n;
    }
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace tcpz
