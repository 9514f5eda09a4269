// Content-addressed chunks for incremental checkpointing.
//
// A checkpoint segment is split into fixed-size chunks; each chunk is keyed
// by a 128-bit content hash. Successive checkpoints of a long-running job
// are mostly identical, so a generation only stores the chunks not already
// resident in the repository (stdchk's observation, applied to DMTCP's
// image format).
//
// The sparse ByteImage representation is preserved end to end: a chunk that
// falls entirely inside a zero or pseudo-random pattern extent is keyed and
// stored as a descriptor — no materialization of Fig.-6-scale ballast — while
// real and mixed ranges are materialized and hashed by content.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/byte_image.h"
#include "util/serialize.h"
#include "util/types.h"

namespace dsim::ckptstore {

/// 128-bit content address. Pattern chunks use tagged synthetic keys
/// (identical pattern ranges dedup against each other but never collide
/// with real-content hashes).
struct ChunkKey {
  u64 hi = 0;
  u64 lo = 0;

  bool operator==(const ChunkKey& o) const { return hi == o.hi && lo == o.lo; }
  bool operator<(const ChunkKey& o) const {
    return hi != o.hi ? hi < o.hi : lo < o.lo;
  }
  std::string str() const;

  void serialize(ByteWriter& w) const {
    w.put_u64(hi);
    w.put_u64(lo);
  }
  static ChunkKey deserialize(ByteReader& r) {
    ChunkKey k;
    k.hi = r.get_u64();
    k.lo = r.get_u64();
    return k;
  }
};

/// Hash real content into a key.
ChunkKey content_key(std::span<const std::byte> data);
/// Synthetic key for an all-zero chunk of `len` bytes.
ChunkKey zero_key(u64 len);
/// Synthetic key for a pseudo-random pattern chunk: content is
/// ByteImage::rand_byte(seed, pos..pos+len), so (seed, pos, len) determines
/// the bytes exactly.
ChunkKey rand_key(u64 seed, u64 pos, u64 len);

/// Reference to one chunk inside a manifest: enough to fetch the chunk from
/// the repository and verify its content on restart.
struct ChunkRef {
  ChunkKey key;
  u64 len = 0;
  u32 crc = 0;  // CRC-32 of the (virtual) chunk content

  void serialize(ByteWriter& w) const {
    key.serialize(w);
    w.put_u64(len);
    w.put_u32(crc);
  }
  static ChunkRef deserialize(ByteReader& r) {
    ChunkRef c;
    c.key = ChunkKey::deserialize(r);
    c.len = r.get_u64();
    c.crc = r.get_u32();
    return c;
  }
};

/// A chunk as resident in the repository. Real chunks carry a codec
/// container (compressed once at first store, reused by every later
/// generation referencing the same key); pattern chunks carry only their
/// descriptor, with the device cost estimated from measured codec ratios
/// the same way the full-image encoder charges ballast extents.
///
/// A real chunk also keeps the verified decode of its container once a
/// restart has asked for it (decoded()): every later restart of any
/// process referencing the key adopts the same bytes instead of
/// decompressing and copying them again. The chunk owns that cache as a
/// strong reference, so it is freed with the chunk (GC, or the re-store
/// after quarantine), not when the last restored process lets go.
struct Chunk {
  sim::ExtentKind kind = sim::ExtentKind::kReal;
  u64 len = 0;
  u64 seed = 0;  // kRand
  u64 pos = 0;   // kRand: segment offset the content was generated at
  u32 crc = 0;   // CRC-32 of the virtual content
  /// Bytes charged to the storage device when this chunk is first written
  /// (container size for real chunks, estimated compressed size for
  /// pattern chunks).
  u64 charged_bytes = 0;
  /// Real chunks only: the codec container holding the content.
  std::shared_ptr<const std::vector<std::byte>> stored;

  /// Materialize the full virtual content (decompresses real chunks,
  /// synthesizes pattern chunks). Never cached: the scrubber verifies
  /// through this, and pinning every scrubbed chunk's bytes would buy
  /// nothing.
  std::vector<std::byte> materialize() const;

  /// Real chunks only: the content of `stored`, decompressed and verified
  /// against the container's CRC-32 on first use and shared after that.
  /// The cache is keyed on the container it decoded, so replacing
  /// `stored` (a re-store, or a test rotting the chunk) decodes the new
  /// container on the next call. The buffer is shared with every
  /// ByteImage that adopted it; ByteImage never writes a shared buffer in
  /// place, so it stays the container's content for as long as it lives.
  std::shared_ptr<const std::vector<std::byte>> decoded() const;

  /// Fill decoded()'s cache for every stored real chunk in `chunks` whose
  /// cache is cold, decompressing and verifying the containers on the host
  /// pool (util/parallel.h); decoded() is this call for one chunk. Each
  /// chunk is decoded once however often it is listed. The cached buffers
  /// are allocated on the calling thread: a worker's allocator arena keeps
  /// what it held, so a long-lived buffer built there would pin host
  /// memory.
  static void warm_decoded(std::span<const Chunk* const> chunks);

 private:
  mutable std::shared_ptr<const std::vector<std::byte>> decoded_;
  mutable std::shared_ptr<const std::vector<std::byte>> decoded_from_;
};

/// One chunk-to-be of a segment scan, before repository lookup. `kind` is a
/// pattern kind only when the chunk lies entirely inside one pattern
/// extent; mixed or real ranges report kReal and are materialized.
struct ChunkSpan {
  u64 off = 0;
  u64 len = 0;
  sim::ExtentKind kind = sim::ExtentKind::kReal;
  u64 seed = 0;
  bool operator==(const ChunkSpan&) const = default;
};

/// The previous scan of the same live segment, and the ranges written
/// since (a sim::ByteImage soft-dirty log). A scanner repeats a previous
/// span, without reading its bytes, wherever the span covers no dirty byte
/// and the new scan provably cuts it again; it scans everything else. With
/// no previous spans every byte counts as dirty: a scan without a prior is
/// the same loop with nothing to repeat.
struct PriorScan {
  std::span<const ChunkSpan> spans;            // the previous scan, in order
  std::span<const std::pair<u64, u64>> dirty;  // sorted, disjoint [begin, end)
};

/// What a scan reports, per span, for a span it cut afresh rather than
/// repeating `PriorScan::spans[index]`.
inline constexpr u32 kFreshSpan = ~u32{0};

/// A PriorScan walked in offset order, as both scanners walk the image.
class PriorCursor {
 public:
  explicit PriorCursor(const PriorScan& prior) : prior_(prior) {}
  /// Index of the previous span that starts at `off` and covers no dirty
  /// byte, or kFreshSpan. Successive calls must not decrease `off`.
  u32 clean_span_at(u64 off);

 private:
  const PriorScan& prior_;
  size_t span_ = 0;
  size_t dirty_ = 0;
};

/// Split `img` into fixed-size chunk spans (the last one may be short).
/// `chunk_bytes` must be a non-zero power of two. A span that `prior`
/// holds at the same offset and length, clean, is repeated, kind included:
/// no mutation touched it, so it lies in the same extents as before.
/// `from`, if set, receives per span the index of the prior span it
/// repeats, or kFreshSpan.
std::vector<ChunkSpan> scan_chunks(const sim::ByteImage& img, u64 chunk_bytes,
                                   const PriorScan& prior = {},
                                   std::vector<u32>* from = nullptr);

/// Key for a scanned span (cheap for pattern spans; materializes and hashes
/// real/mixed spans).
ChunkKey span_key(const sim::ByteImage& img, const ChunkSpan& s);

/// CRC-32 of a span's virtual content (cached for zero spans).
u32 span_crc(const sim::ByteImage& img, const ChunkSpan& s);

}  // namespace dsim::ckptstore
