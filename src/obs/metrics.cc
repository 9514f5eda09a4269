#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "obs/json.h"

namespace dsim::obs {

int Histogram::bucket_of(double v) {
  if (!(v > 0)) return 0;  // zero, negatives, NaN -> bottom bucket
  int exp = 0;
  const double m = std::frexp(v, &exp);  // v = m * 2^exp, m in [0.5, 1)
  const int octave = exp - 1;            // v in [2^octave, 2^(octave+1))
  if (octave < kMinExp) return 0;
  if (octave >= kMaxExp) return kBuckets - 1;
  // m - 0.5 in [0, 0.5): scale to 128 linear sub-buckets per octave.
  const int sub = static_cast<int>((m - 0.5) * (2 * kSubBuckets));
  return (octave - kMinExp) * kSubBuckets +
         std::min(sub, kSubBuckets - 1);
}

double Histogram::bucket_value(int b) {
  const int octave = b / kSubBuckets + kMinExp;
  const int sub = b % kSubBuckets;
  // Midpoint of the sub-bucket's mantissa range, scaled to the octave.
  const double m =
      0.5 + (static_cast<double>(sub) + 0.5) / (2 * kSubBuckets);
  return std::ldexp(m, octave + 1);
}

void Histogram::record_n(double v, u64 n) {
  if (n == 0) return;
  buckets_[static_cast<size_t>(bucket_of(v))] += n;
  count_ += n;
  sum_ += v * static_cast<double>(n);
  if (v > max_) max_ = v;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0;
  const double want = std::ceil(q * static_cast<double>(count_));
  const u64 rank = std::min<u64>(
      count_, want < 1 ? 1 : static_cast<u64>(want));
  u64 seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[static_cast<size_t>(b)];
    if (seen >= rank) {
      // The sample at the very top rank is the max, which we track
      // exactly; interior ranks get the bucket representative.
      if (rank == count_) return max_;
      return bucket_value(b);
    }
  }
  return max_;
}

Histogram Histogram::delta_since(const Histogram& prev) const {
  Histogram d;
  d.count_ = count_ - prev.count_;
  d.sum_ = sum_ - prev.sum_;
  for (int b = kBuckets - 1; b >= 0; --b) {
    const size_t i = static_cast<size_t>(b);
    d.buckets_[i] = buckets_[i] - prev.buckets_[i];
    if (d.max_ == 0 && d.buckets_[i] != 0) d.max_ = bucket_value(b);
  }
  return d;
}

std::string Histogram::json() const {
  std::string out = "{\"count\":" + std::to_string(count_);
  out += ",\"sum\":" + fmt_double(sum_);
  out += ",\"mean\":" + fmt_double(mean());
  out += ",\"max\":" + fmt_double(max_);
  out += ",\"p50\":" + fmt_double(quantile(0.50));
  out += ",\"p90\":" + fmt_double(quantile(0.90));
  out += ",\"p99\":" + fmt_double(quantile(0.99));
  out += "}";
  return out;
}

u64 MetricsRegistry::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::sum(const std::string& name) const {
  const auto it = sums_.find(name);
  return it == sums_.end() ? 0.0 : it->second;
}

const Histogram& MetricsRegistry::histogram(const std::string& name) const {
  static const Histogram kEmpty;
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? kEmpty : it->second;
}

MetricsRegistry MetricsRegistry::delta_since(
    const MetricsRegistry& prev) const {
  MetricsRegistry d;
  for (const auto& [name, v] : counters_) {
    d.counters_[name] = v - prev.counter(name);
  }
  for (const auto& [name, v] : sums_) d.sums_[name] = v - prev.sum(name);
  d.gauges_ = gauges_;
  for (const auto& [name, h] : histograms_) {
    const auto it = prev.histograms_.find(name);
    d.histograms_[name] =
        it == prev.histograms_.end() ? h : h.delta_since(it->second);
  }
  return d;
}

std::string MetricsRegistry::json() const {
  // One "name": value line per entry, in the map's sorted order.
  const auto section = [](const char* title, const auto& entries,
                          const auto& render) {
    std::string out = std::string("  \"") + title + "\": {";
    bool first = true;
    for (const auto& [name, v] : entries) {
      out += first ? "\n" : ",\n";
      out += "    \"" + name + "\": " + render(v);
      first = false;
    }
    return out + "\n  }";
  };
  const auto u64_str = [](u64 v) { return std::to_string(v); };
  const auto hist_str = [](const Histogram& h) { return h.json(); };
  return "{\n" + section("counters", counters_, u64_str) + ",\n" +
         section("sums", sums_, fmt_double) + ",\n" +
         section("gauges", gauges_, fmt_double) + ",\n" +
         section("histograms", histograms_, hist_str) + "\n}\n";
}

bool MetricsRegistry::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << json();
  return f.good();
}

}  // namespace dsim::obs
