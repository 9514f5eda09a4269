// Content-defined chunking (CDC) for the checkpoint store.
//
// Fixed-size chunking loses dedup the moment an insertion shifts bytes
// across a chunk boundary: every downstream chunk re-hashes to a new key
// even though the content is 99% identical. CDC places chunk boundaries by
// *content* instead — a rolling (gear/buzhash-style) hash over a small
// sliding window cuts wherever the hash's low bits are zero — so after an
// insertion the cutpoints resynchronize at the next content-determined
// boundary and only O(1) chunks change (LBFS/stdchk's observation, applied
// to DMTCP images).
//
// The sparse ByteImage representation is preserved: pattern extents (zero
// or pseudo-random ballast) large enough to stand alone are cut exactly at
// their extent boundaries and emitted as descriptor spans without ever
// materializing; the rolling hash only runs over real/mixed byte runs.
#pragma once

#include <string>
#include <vector>

#include "ckptstore/chunk.h"
#include "util/serialize.h"
#include "util/types.h"

namespace dsim::ckptstore {

/// How a segment is split into chunks.
enum class ChunkingMode : u8 {
  kFixed = 0,    // chunk_bytes-sized spans (PR-1 behavior)
  kCdc = 1,      // variable-size content-defined spans
  kFastCdc = 2,  // FastCDC-style normalized CDC: two gear masks around the
                 // target size tighten the chunk-size distribution
};

/// The full chunking configuration a manifest records and the encoder
/// consumes. Fixed mode uses `fixed_bytes`; CDC mode uses the
/// min/avg/max triple (avg must be a power of two — it becomes the
/// cutpoint mask).
struct ChunkingParams {
  ChunkingMode mode = ChunkingMode::kFixed;
  u64 fixed_bytes = 64 * 1024;
  u64 min_bytes = 16 * 1024;
  u64 avg_bytes = 64 * 1024;
  u64 max_bytes = 256 * 1024;

  void serialize(ByteWriter& w) const {
    w.put_u8(static_cast<u8>(mode));
    w.put_u64(fixed_bytes);
    w.put_u64(min_bytes);
    w.put_u64(avg_bytes);
    w.put_u64(max_bytes);
  }
  static ChunkingParams deserialize(ByteReader& r) {
    ChunkingParams p;
    p.mode = static_cast<ChunkingMode>(r.get_u8());
    p.fixed_bytes = r.get_u64();
    p.min_bytes = r.get_u64();
    p.avg_bytes = r.get_u64();
    p.max_bytes = r.get_u64();
    return p;
  }
  bool operator==(const ChunkingParams&) const = default;
};

/// Split `img` into content-defined chunk spans. Pattern extents of at
/// least `min_bytes` become descriptor spans cut at `max_bytes` (the last
/// span of each pattern run may be short); real or mixed runs are
/// materialized in small blocks and cut by the rolling hash, with
/// every span in [min_bytes, max_bytes] except each run's final tail,
/// which may be shorter than `min_bytes` — including mid-image, wherever
/// a real run ends at a pattern-extent boundary. Aborts (DSIM_CHECK) on
/// inconsistent params; user-facing validation lives in
/// core::validate_chunking.
///
/// kFastCdc normalizes the size distribution with two masks around the
/// target (FastCDC's NC-2 scheme): before `avg_bytes` a *stricter* mask
/// (avg*4 - 1, two extra bits) makes cuts rare, after it a *looser* mask
/// (avg/4 - 1) makes them likely, squeezing spans toward avg without
/// losing content-determinism — cutpoints still resynchronize after an
/// insertion because both masks depend only on window content and span
/// length relative to the last cut.
///
/// With a `prior` scan of the same live segment under the same params, a
/// real run rereads only the dirty windows: from the previous cut before
/// each dirty range until the scan cuts at a previous cut beyond it. The
/// hash state resets at every cut, so the spans are exactly those of a
/// scan without the prior. A descriptor span repeats a clean prior span
/// identical to it (offset, length, kind and seed). `from`, if set,
/// receives per span the index of the prior span it repeats, or
/// kFreshSpan.
std::vector<ChunkSpan> scan_chunks_cdc(const sim::ByteImage& img,
                                       const ChunkingParams& p,
                                       const PriorScan& prior = {},
                                       std::vector<u32>* from = nullptr);

/// Dispatch on `p.mode` (fixed → scan_chunks, cdc/fastcdc →
/// scan_chunks_cdc).
std::vector<ChunkSpan> scan_chunks_with(const sim::ByteImage& img,
                                        const ChunkingParams& p,
                                        const PriorScan& prior = {},
                                        std::vector<u32>* from = nullptr);

}  // namespace dsim::ckptstore
