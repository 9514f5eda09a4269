// Deterministic metrics primitives: a fixed-bucket log-scale histogram and
// a registry that renders counters/sums/gauges/histograms as stable JSON.
//
// The histogram replaces the ad-hoc wait accounting that had grown three
// separate shapes across the tree — `lookup_wait_seconds` running sums with
// a hand-rolled max watermark in `ServiceStats`, per-key
// `std::vector<double> wait_samples` in `TenantStats` (unbounded memory,
// exact-sort p99 at read time), and `*_wait_seconds / count` averages in
// `CkptRound`. One type now serves all three uses:
//
//   - `record_n(v, n)` adds `n` samples of value `v` in one shot and
//     accumulates `sum_ += v * n` exactly like the legacy running sums did,
//     so `mean()` and `sum()` reproduce the old scalar numbers bit-for-bit
//     (committed bench baselines stay valid without regeneration).
//   - Quantiles come from fixed log-linear buckets: each power-of-two
//     octave is split into 128 linear sub-buckets, giving a worst-case
//     relative error of 1/256 (~0.4%) anywhere in [2^-31 s, 2^9 s) — ns
//     jitter to eight-minute stalls — with zero allocation after
//     construction and O(1) record.
//   - `delta_since(prev)` is the per-round / per-probe-window delta that
//     replaces "remember the sample count before the window" bookkeeping.
//
// The registry's four kinds differ only in how a delta treats them:
// counters (u64) and sums (double running totals) subtract, gauges are
// levels and keep their current value, histograms take their bucket
// delta. `core::collect_metrics` names every cumulative stat of a
// computation in one registry, and each checkpoint round carries its
// delta against the previous round's close (`CkptRound::delta`).
//
// Everything here is plain arithmetic on the virtual clock's values: no
// host time, no allocation ordering, no pointers — identical runs produce
// identical registries byte-for-byte.
#pragma once

#include <array>
#include <cstddef>
#include <map>
#include <string>

#include "util/types.h"

namespace dsim::obs {

class Histogram {
 public:
  /// Add one sample. Values are in seconds by convention (the callers all
  /// record queue waits), but any non-negative double works; negatives
  /// clamp to the bottom bucket.
  void record(double v) { record_n(v, 1); }
  /// Add `n` samples of the same value (a batch completing together).
  /// Accumulates `sum += v * n` in one multiply — the exact fp result the
  /// legacy `wait_seconds += wait * n` accumulators produced.
  void record_n(double v, u64 n);

  u64 count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  /// Largest sample ever recorded (exact, not bucketed).
  double max() const { return max_; }

  /// q in [0, 1]: value at rank ceil(q * count) (1-based), matching the
  /// exact-sort convention the benches used. The top-ranked sample returns
  /// the exact max; interior ranks return the bucket representative
  /// (<= 0.4% relative error).
  double quantile(double q) const;

  /// Bucket-wise difference `*this - prev` where `prev` is an earlier
  /// snapshot of the same stream. count/sum subtract exactly; max of the
  /// delta is the top nonempty bucket's representative (bucketed).
  Histogram delta_since(const Histogram& prev) const;

  /// Stable JSON object: {"count":N,"sum":S,"mean":M,"max":X,
  /// "p50":...,"p90":...,"p99":...}. Doubles render with %.9g.
  std::string json() const;

 private:
  // 128 linear sub-buckets per power-of-two octave over [2^-31, 2^9) s.
  static constexpr int kSubBuckets = 128;
  static constexpr int kMinExp = -31;
  static constexpr int kMaxExp = 9;
  static constexpr int kBuckets = (kMaxExp - kMinExp) * kSubBuckets;

  static int bucket_of(double v);
  static double bucket_value(int b);

  u64 count_ = 0;
  double sum_ = 0;
  double max_ = 0;
  std::array<u64, static_cast<size_t>(kBuckets)> buckets_{};
};

/// Named counters, sums, gauges and histograms rendered as one JSON
/// document. Backed by std::map so iteration (and therefore the emitted
/// bytes) is independent of registration order.
class MetricsRegistry {
 public:
  void counter(const std::string& name, u64 v) { counters_[name] = v; }
  /// A double running total (seconds, say): subtracts like a counter.
  void sum(const std::string& name, double v) { sums_[name] = v; }
  void gauge(const std::string& name, double v) { gauges_[name] = v; }
  void histogram(const std::string& name, const Histogram& h) {
    histograms_[name] = h;
  }

  /// Lookups by name: 0 (an empty histogram) when the name is absent.
  u64 counter(const std::string& name) const;
  double sum(const std::string& name) const;
  const Histogram& histogram(const std::string& name) const;

  const std::map<std::string, u64>& counters() const { return counters_; }
  const std::map<std::string, double>& sums() const { return sums_; }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// Registry-wide delta against an earlier snapshot of the same stream:
  /// counters and sums subtract (a name absent from `prev` counts as 0),
  /// gauges keep their current value (a gauge is a level, not a rate —
  /// the per-round "delta" of a level is the level), histograms take
  /// `Histogram::delta_since` (a copy when absent from `prev`). This is
  /// what the coordinator takes at every round close (CkptRound::delta).
  MetricsRegistry delta_since(const MetricsRegistry& prev) const;

  /// {"counters":{...},"sums":{...},"gauges":{...},"histograms":{...}}
  /// with keys sorted; byte-stable across identical runs.
  std::string json() const;
  /// Write json() to `path`; returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  std::map<std::string, u64> counters_;
  std::map<std::string, double> sums_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace dsim::obs
