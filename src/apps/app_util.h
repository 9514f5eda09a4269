// Helpers for writing restart-safe simulated applications.
//
// The contract (DESIGN.md §3.2): all durable program state lives in
// simulated memory ("state" segment + named buffers), the thread phase/
// registers drive resumable primitives, and state is updated between awaits
// so re-driving the program after restart neither repeats nor loses side
// effects. These helpers make that contract mechanical.
#pragma once

#include <span>
#include <string>

#include "sim/pctx.h"
#include "util/rng.h"

namespace dsim::apps {

using sim::Task;

/// Typed view of a POD state struct stored at offset 0 of a named segment.
/// Creates the segment on first use; finds the restored one after restart.
template <typename T>
class StateView {
  static_assert(std::is_trivially_copyable_v<T>);
  // No padding allowed: stored state becomes checkpoint image *content*
  // (chunk keys, CRCs, shard routing), and padding bytes in a stack
  // temporary are indeterminate — they would leak per-process entropy into
  // the simulation and break bit-reproducibility. Pad state structs
  // explicitly (e.g. widen a trailing u8 flag to u64).
  static_assert(std::has_unique_object_representations_v<T>);

 public:
  explicit StateView(sim::ProcessCtx& ctx, const std::string& name = "state")
      : ctx_(ctx) {
    seg_ = ctx.seg(name);
    if (!seg_) {
      seg_ = &ctx.alloc(name, sim::MemKind::kData, sizeof(T));
      // Persist the default-constructed value: sentinel fields like
      // `fd = kNoFd` must read back as -1, not as the segment's zero fill.
      ctx_.store(sim::MemRef{seg_, 0}, T{});
    }
  }

  T get() { return ctx_.load<T>(ref()); }
  void set(const T& v) { ctx_.store(ref(), v); }
  sim::MemRef ref() const { return sim::MemRef{seg_, 0}; }
  sim::MemSegment& segment() { return *seg_; }

 private:
  sim::ProcessCtx& ctx_;
  sim::MemSegment* seg_;
};

/// A named buffer in simulated memory (allocate-or-find).
inline sim::MemRef buffer(sim::ProcessCtx& ctx, const std::string& name,
                          u64 size, sim::MemKind kind = sim::MemKind::kHeap) {
  sim::MemSegment* seg = ctx.seg(name);
  if (!seg) seg = &ctx.alloc(name, kind, size);
  return sim::MemRef{seg, 0};
}

/// Parse argv[i] as integer with default.
inline i64 arg_int(const sim::ProcessCtx& ctx_argv_holder,
                   const std::vector<std::string>& argv, size_t i,
                   i64 dflt) {
  (void)ctx_argv_holder;
  if (i >= argv.size()) return dflt;
  return std::stoll(argv[i]);
}

inline i64 argi(sim::ProcessCtx& ctx, size_t i, i64 dflt) {
  const auto& argv = ctx.process().argv();
  if (i >= argv.size()) return dflt;
  return std::stoll(argv[i]);
}

inline std::string args(sim::ProcessCtx& ctx, size_t i,
                        const std::string& dflt) {
  const auto& argv = ctx.process().argv();
  return i >= argv.size() ? dflt : argv[i];
}

/// Write a (small) result blob to /shared/results/<name>, overwriting.
/// Idempotent, so it is safe to re-run after a restart that interrupted it.
Task<void> write_result(sim::ProcessCtx& ctx, const std::string& name,
                        const std::string& payload);

/// Deterministic fill for message payloads: byte j of message i under seed.
inline u8 payload_byte(u64 seed, u64 i, u64 j) {
  return static_cast<u8>(mix_seed(seed, i, j) & 0xFF);
}

/// Message i under seed, whole: out[j] == payload_byte(seed, i, j). The two
/// rounds of mix_seed that mix seed and i do not depend on j, so they run
/// once; the seed and index arrive by value, so no store into `out` can
/// alias them and the loop stays in registers.
inline void fill_payload(std::span<std::byte> out, u64 seed, u64 i) {
  u64 s = seed;
  u64 h = splitmix64(s);
  s ^= i + 0x632be59bd9b4e019ULL;
  h ^= splitmix64(s);
  for (u64 j = 0; j < out.size(); ++j) {
    u64 sj = s ^ (j + 0x9e3779b97f4a7c15ULL);
    out[j] = static_cast<std::byte>((h ^ splitmix64(sj)) & 0xFF);
  }
}

}  // namespace dsim::apps
