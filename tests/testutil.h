// Shared deterministic content and chunking-config helpers, plus the
// serial-encode reference the streamed chunk-store write is checked
// against.
//
// Tests and benches that exercise the chunk store generate their "real"
// content from the same tiny LCG so dedup scenarios (identical libraries,
// shifted buffers) mean the same bytes everywhere. One definition here —
// a tweak to content generation must not silently diverge between suites.
#pragma once

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ckptstore/cdc.h"
#include "ckptstore/erasure.h"
#include "ckptstore/manifest.h"
#include "ckptstore/service.h"
#include "compress/compressor.h"
#include "core/launch.h"
#include "sim/model_params.h"
#include "util/assertx.h"
#include "util/types.h"

namespace dsim::test {

/// Deterministic pseudo-random bytes (not ByteImage kRand ballast: these
/// are *real* content the chunker must materialize and hash).
inline std::vector<std::byte> pseudo_bytes(u64 n, u64 seed) {
  std::vector<std::byte> out(n);
  u64 x = seed * 0x9E3779B97F4A7C15ull + 1;
  for (u64 i = 0; i < n; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    out[i] = static_cast<std::byte>(x >> 56);
  }
  return out;
}

inline ckptstore::ChunkingParams fixed_params(u64 chunk_bytes) {
  ckptstore::ChunkingParams p;
  p.mode = ckptstore::ChunkingMode::kFixed;
  p.fixed_bytes = chunk_bytes;
  return p;
}

inline ckptstore::ChunkingParams cdc_params(
    u64 min, u64 avg, u64 max,
    ckptstore::ChunkingMode mode = ckptstore::ChunkingMode::kCdc) {
  ckptstore::ChunkingParams p;
  p.mode = mode;
  p.min_bytes = min;
  p.avg_bytes = avg;
  p.max_bytes = max;
  return p;
}

/// The chunk-store profile of --chunk-replicas `r`: the (1, r-1) code.
inline ckptstore::ChunkStoreService::ErasureConfig replicated(int r) {
  return {1, r - 1};
}

/// All manifest files of `ctl`'s current restart plan, as raw bytes, in
/// plan order: the byte-identity witness for two runs of one computation.
inline std::vector<std::vector<std::byte>> plan_manifests(
    sim::Kernel& k, const core::DmtcpControl& ctl) {
  std::vector<std::vector<std::byte>> out;
  for (const auto& host : ctl.read_restart_plan().hosts) {
    for (const auto& img : host.images) {
      auto inode = k.fs_for(host.host, img).lookup(img);
      DSIM_CHECK_MSG(inode != nullptr, "restart plan names a missing image");
      out.push_back(inode->data.materialize(0, inode->data.size()));
    }
  }
  return out;
}

/// The distinct chunk keys the current restart plan's manifests name for
/// segment `name` (a library every rank maps, say).
inline std::set<ckptstore::ChunkKey> segment_keys(
    sim::Kernel& k, const core::DmtcpControl& ctl, const std::string& name) {
  std::set<ckptstore::ChunkKey> out;
  for (const auto& bytes : plan_manifests(k, ctl)) {
    for (const auto& sm : ckptstore::Manifest::decode(bytes).segments) {
      if (sm.name != name) continue;
      for (const auto& ref : sm.chunks) out.insert(ref.key);
    }
  }
  return out;
}

/// The encode CPU a synchronous chunk-store round charged as one serial job
/// per writer — summed over writers — and the new chunks it covered, for
/// the first round into an empty store (so every key the manifests name is
/// one new chunk). The codec share is the gzip-class content-class model
/// over the round's new bytes, times `codec_scale` (the async drain's
/// kGzipDataBw / --compress-bw), plus the (erasure_k, erasure_m) parity
/// stripe over their stored bytes (none at the default k = 1).
inline std::pair<double, u64> first_round_serial_encode(
    core::DmtcpControl& ctl, compress::CodecKind codec, int erasure_k = 1,
    int erasure_m = 0, double codec_scale = 1.0) {
  std::set<ckptstore::ChunkKey> seen;
  u64 zero = 0, other = 0, stored = 0;
  for (const auto& host : ctl.read_restart_plan().hosts) {
    const ckptstore::Repository& repo = ctl.shared().repo_for(host.host);
    for (const auto& img : host.images) {
      auto inode = ctl.kernel().fs_for(host.host, img).lookup(img);
      const auto mf = ckptstore::Manifest::decode(
          inode->data.materialize(0, inode->data.size()));
      for (const auto& sm : mf.segments) {
        for (const auto& ref : sm.chunks) {
          if (!seen.insert(ref.key).second) continue;
          const ckptstore::Chunk* c = repo.find(ref.key);
          (c->kind == sim::ExtentKind::kZero ? zero : other) += c->len;
          stored += c->charged_bytes;
        }
      }
    }
  }
  const double seconds =
      codec_scale * compress::codec_cost_factor(codec) *
          (static_cast<double>(zero) / sim::params::kGzipZeroBw +
           static_cast<double>(other) / sim::params::kGzipDataBw) +
      ckptstore::erasure::encode_seconds(stored, erasure_k, erasure_m);
  return {seconds, seen.size()};
}

}  // namespace dsim::test
