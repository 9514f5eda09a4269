// Storage device models.
//
// A StorageDevice is a FIFO queueing server with a bandwidth and a latency:
// concurrent requests from many nodes serialize, which is exactly what
// produces the Fig.-5b contention shape when 32 nodes checkpoint to one SAN
// (8 direct Fibre-Channel clients) and one NFS server (remaining 24 nodes).
//
// Local disks additionally model the Linux page cache: unsynced writes are
// absorbed at memory-copy-like rates (the paper's Fig.-6 "implied bandwidth
// well beyond the typical 100 MB/s of disk"), while sync() drains dirty
// bytes at physical disk speed — the §5.2 sync-cost experiment.
#pragma once

#include <functional>
#include <string>

#include "sim/event_loop.h"
#include "util/rng.h"
#include "util/types.h"

namespace dsim::sim {

/// Shared queueing server (SAN device, NFS server, physical disk spindle).
class StorageDevice {
 public:
  StorageDevice(EventLoop& loop, std::string name, double bytes_per_sec,
                SimTime latency)
      : loop_(loop),
        name_(std::move(name)),
        bw_(bytes_per_sec),
        latency_(latency) {}

  /// Enqueue a transfer of `bytes`; `done` fires when it completes.
  /// `is_read` only affects accounting (reads and writes share the queue),
  /// so benches can attribute device traffic: a dedup'd cluster round
  /// writes shared chunks once but every restart still reads them.
  /// `logical_bytes` (0 = same as `bytes`) is what the counters record
  /// when the transfer size was rescaled for timing — LocalStorage models
  /// its faster read path by shrinking the request against the write-rate
  /// device, but the counters must stay in un-scaled bytes.
  void submit(u64 bytes, std::function<void()> done, bool is_read = false,
              u64 logical_bytes = 0);

  /// Account garbage collection of dead checkpoint generations: the device
  /// drops `bytes` of stored data at metadata (trim) rate — far cheaper
  /// than a transfer, but it still occupies the queue briefly.
  void discard(u64 bytes);

  /// Time at which the device queue drains (>= now).
  SimTime busy_until() const { return busy_until_; }
  const std::string& name() const { return name_; }
  double bandwidth() const { return bw_; }
  /// Cumulative bytes transferred through submit().
  u64 total_submitted_bytes() const { return submitted_bytes_; }
  /// Read/write split of total_submitted_bytes().
  u64 total_read_bytes() const { return read_bytes_; }
  u64 total_written_bytes() const { return submitted_bytes_ - read_bytes_; }
  /// Cumulative bytes dropped through discard() (GC'd generations).
  u64 total_discarded_bytes() const { return discarded_bytes_; }

  /// Multiplicative jitter hook (set once per experiment repetition).
  void set_jitter(Rng* rng, double sigma) {
    jitter_rng_ = rng;
    jitter_sigma_ = sigma;
  }

 private:
  SimTime jittered(double seconds);

  EventLoop& loop_;
  std::string name_;
  double bw_;
  SimTime latency_;
  SimTime busy_until_ = 0;
  u64 submitted_bytes_ = 0;
  u64 read_bytes_ = 0;
  u64 discarded_bytes_ = 0;
  Rng* jitter_rng_ = nullptr;
  double jitter_sigma_ = 0;
};

/// Per-node local storage with a page cache in front of a physical disk.
class LocalStorage {
 public:
  LocalStorage(EventLoop& loop, std::string name);

  /// Buffered write: absorbed by the page cache; dirty bytes accumulate.
  void write(u64 bytes, std::function<void()> done);
  /// Warm read (checkpoint images just written are cache-resident).
  void read(u64 bytes, std::function<void()> done);
  /// Flush dirty bytes to the physical disk (the §5.2 sync experiment).
  void sync(std::function<void()> done);

  /// Drop `bytes` of stored data (checkpoint-store GC) at trim rate.
  void discard(u64 bytes);

  u64 dirty_bytes() const { return dirty_; }
  const StorageDevice& cache() const { return cache_; }
  const StorageDevice& disk() const { return disk_; }

  void set_jitter(Rng* rng, double sigma) {
    cache_.set_jitter(rng, sigma);
    disk_.set_jitter(rng, sigma);
  }

 private:
  StorageDevice cache_;  // page-cache absorb/read path
  StorageDevice disk_;   // physical spindle (sync path)
  u64 dirty_ = 0;
};

}  // namespace dsim::sim
