#include "obs/timeseries.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "obs/json.h"

namespace dsim::obs {

void RoundSeries::push(Sample s) {
  samples_.push_back(std::move(s));
  while (samples_.size() > capacity_) {
    samples_.pop_front();
    ++dropped_;
  }
}

double RoundSeries::value(const std::string& metric, size_t back_idx) const {
  if (back_idx >= samples_.size()) return 0.0;
  const Sample& s = samples_[samples_.size() - 1 - back_idx];
  const auto it = s.values.find(metric);
  return it == s.values.end() ? 0.0 : it->second;
}

double RoundSeries::window_quantile(const std::string& metric, double q,
                                    size_t window) const {
  if (samples_.empty()) return 0.0;
  const size_t n = std::min(window, samples_.size());
  std::vector<double> v;
  v.reserve(n);
  for (size_t i = 0; i < n; ++i) v.push_back(value(metric, i));
  std::sort(v.begin(), v.end());
  const double want = std::ceil(q * static_cast<double>(v.size()));
  const size_t rank = std::min<size_t>(
      v.size(), want < 1 ? 1 : static_cast<size_t>(want));
  return v[rank - 1];
}

double RoundSeries::window_burn(const std::string& metric, double threshold,
                                size_t window) const {
  if (samples_.empty()) return 0.0;
  const size_t n = std::min(window, samples_.size());
  size_t over = 0;
  for (size_t i = 0; i < n; ++i) {
    if (value(metric, i) > threshold) ++over;
  }
  return static_cast<double>(over) / static_cast<double>(n);
}

size_t RoundSeries::consecutive_nonzero(const std::string& metric) const {
  size_t n = 0;
  while (n < samples_.size() && value(metric, n) != 0.0) ++n;
  return n;
}

std::string RoundSeries::json() const {
  std::string out = "{\"dropped\":" + std::to_string(dropped_);
  out += ",\"rounds\":[";
  bool first_sample = true;
  for (const Sample& s : samples_) {
    if (!first_sample) out += ",";
    first_sample = false;
    out += "{\"round\":" + std::to_string(s.round);
    out += ",\"t_us\":" + fmt_us(s.at);
    out += ",\"values\":{";
    bool first_val = true;
    for (const auto& [name, v] : s.values) {
      if (!first_val) out += ",";
      first_val = false;
      out += "\"" + name + "\":" + fmt_double(v);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

}  // namespace dsim::obs
