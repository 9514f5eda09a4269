// MTCP: single-process checkpoint capture, encoding and restore.
//
// Capture walks the live process; encode serializes + compresses (real
// bytes really compressed, pattern ballast estimated from measured samples);
// restore rebuilds memory/signals into a bare process. Virtual-time costs
// of assembling, compressing and decompressing are *computed* here and
// *charged* by the caller (the DMTCP manager thread), so the forked-
// checkpointing engine can charge them on a background CPU job instead.
#pragma once

#include <functional>
#include <span>
#include <string>

#include "ckptstore/manifest.h"
#include "ckptstore/repository.h"
#include "compress/compressor.h"
#include "mtcp/image.h"
#include "sim/process.h"

namespace dsim::mtcp {

/// Size/cost accounting for one encoded image.
struct EncodedImage {
  std::vector<std::byte> bytes;   // real container written to the VFS
  u64 virtual_uncompressed = 0;   // what the paper's "checkpoint size" means
  u64 virtual_compressed = 0;     // == virtual_uncompressed for CodecKind::kNone
  double assemble_seconds = 0;    // serialize/memcpy cost
  double compress_seconds = 0;    // gzip CPU cost (0 when not compressing)
};

/// Capture the MTCP-owned state of a live process. `dmtcp_blob` is spliced
/// in by the caller (the DMTCP layer owns descriptors).
ProcessImage capture(sim::Process& p);

/// Serialize + compress. Pattern extents are charged by measured sample
/// ratios (DESIGN.md §5); real extents are actually compressed.
EncodedImage encode(const ProcessImage& img, compress::CodecKind codec);

/// Inverse of encode, under the codec the container's header names. Also
/// returns the decode CPU cost in seconds via `decode_seconds`
/// (decode_cpu_seconds of the image's memory bytes under that codec).
ProcessImage decode(std::span<const std::byte> container,
                    double* decode_seconds);

/// Decode CPU for `bytes` of restored memory: gunzip is output-rate-bound
/// (§5.4); an uncompressed image is an assembly copy.
double decode_cpu_seconds(u64 bytes, compress::CodecKind codec);

/// Codec CPU to compress one `len`-byte chunk of content class `kind`:
/// zero input flies through the codec, everything else crawls at data
/// rate, scaled by the codec's cost factor (0 for CodecKind::kNone).
double encode_cpu_seconds(u64 len, sim::ExtentKind kind,
                          compress::CodecKind codec);

/// Rebuild memory/signals/identity into `p` (threads are started by the
/// restart driver; shared-memory §4.5 rules are applied by core::restart).
void restore_memory(sim::Process& p, const ProcessImage& img);

// --- incremental (content-addressed) encode path ----------------------------

/// Accounting for one incremental checkpoint generation.
struct EncodedDelta {
  std::vector<std::byte> manifest_bytes;  // the file written to the VFS
  u64 virtual_uncompressed = 0;  // full image size (same meaning as encode())
  u64 new_chunk_bytes = 0;       // chunk bytes newly stored this generation
  /// Bytes actually submitted to the storage device: new chunks + manifest.
  u64 submitted_bytes = 0;
  /// Logical image bytes answered by chunks already resident in the
  /// repository — stored by an earlier generation of this process *or by
  /// another process* (shared libraries in a cluster-wide store).
  u64 dup_chunk_bytes = 0;
  u64 total_chunks = 0;
  u64 new_chunks = 0;
  u64 raw_new_bytes = 0;  // logical (pre-codec) bytes of the new chunks
  /// Modeled serial pass: assembly of the full image, plus (CDC) the gear
  /// pass over every real byte — scan_real_bytes — as a full scan would
  /// pay it. Simulated time only: the host's rescan of the dirty windows
  /// (rescanned_bytes) never changes it.
  double assemble_seconds = 0;
  /// Real bytes the modeled scan walks: every real span of every segment.
  u64 scan_real_bytes = 0;
  /// Real bytes the host actually scanned and keyed this generation; the
  /// rest repeated the previous generation's spans and keys (SegmentMemo).
  /// Equals scan_real_bytes without a memo.
  u64 rescanned_bytes = 0;
  /// The chunks stored this generation (key, device-charged bytes), in
  /// store order. The chunk-store service places each one on its replica
  /// nodes and charges their devices; sums to new_chunk_bytes.
  std::vector<std::pair<ckptstore::ChunkKey, u64>> stored_chunks;
  /// Each stored chunk's codec CPU (encode_cpu_seconds), parallel to
  /// stored_chunks: chunks compress independently, so the writer charges
  /// them one by one rather than as one image-sized job.
  std::vector<double> encode_seconds;
  /// Chunks answered by already-resident content (key, resident
  /// device-charged bytes), one entry per reference, in scan order. The
  /// writer checks every one against placement: a dedup hit whose every
  /// replica died with its node must be re-stored, or this generation's
  /// manifest would pin permanently unrestorable data.
  std::vector<std::pair<ckptstore::ChunkKey, u64>> dup_chunks;
  /// Parallel to dup_chunks: the reference repeats a span of the segment's
  /// previous generation that the process has not written since
  /// (SegmentMemo), so its key is in this writer's previous manifest,
  /// which pins it until this generation is durable. The writer sends no
  /// dedup Lookup for a known reference; a fresh span, or a written one
  /// even with the same bytes, is looked up.
  std::vector<bool> dup_known;
};

/// What encode_incremental remembers of one live private segment between
/// generations, so the next scan rereads only what the process wrote: the
/// last scan's spans and keys, valid while the live segment's soft-dirty
/// log (sim::ByteImage) carries the token armed when that scan's image was
/// captured. It holds spans and keys only: keeping the previous snapshot
/// would pin its buffers and turn every in-place write into a copy.
struct SegmentMemo {
  /// At capture, on the live segment: take the ranges written since the
  /// last capture and arm a fresh token. A log under any other token than
  /// the memo's — a new or replaced segment, or a capture whose encode
  /// never ran — leaves nothing to repeat, and the next scan reads it all.
  void capture(sim::ByteImage& live);

  u64 token = 0;  // armed at the capture `spans` describes
  u64 armed = 0;  // armed at the latest capture; `token` once encoded
  ckptstore::ChunkingParams chunking;
  std::vector<ckptstore::ChunkSpan> spans;
  std::vector<ckptstore::ChunkKey> keys;
  std::vector<std::pair<u64, u64>> dirty;  // written between the captures
  u64 rescanned_bytes = 0;  // real bytes the last encode scanned and keyed
};

/// Split the image's segments into chunks per `chunking` (fixed-size spans
/// or content-defined cutpoints), store the ones not already resident in
/// `repo`, and emit the generation manifest. Chunk containers are
/// compressed once with `codec` and reused by every later generation — of
/// any process sharing the repository — that references the same content.
///
/// `memos`, parallel to img.segments (nullptr or missing: no memo), lets
/// the scan repeat the previous generation's spans and keys outside the
/// dirty ranges; each memo then holds this generation's scan. Shared
/// segments and memos taken under other chunking params scan everything.
/// The manifest, the stored chunks and every accounting field but
/// rescanned_bytes and dup_known are the same with or without memos;
/// without them no reference is known.
///
/// The new real chunks compress on the host pool (util/parallel.h) and
/// are committed in scan order, so the result is the same at any pool
/// width.
EncodedDelta encode_incremental(const ProcessImage& img,
                                compress::CodecKind codec,
                                const ckptstore::ChunkingParams& chunking,
                                const std::string& owner, int generation,
                                ckptstore::Repository& repo,
                                std::span<SegmentMemo* const> memos = {});

/// Materialize a full ProcessImage from a manifest and the chunk
/// repository, verifying each chunk's CRC-32. On a missing or corrupted
/// chunk, `error` receives a description (naming the segment, offset and
/// chunk key) and an empty image is returned. `read_bytes` receives the
/// device bytes a restart must fetch for every referenced chunk (the
/// manifest file itself is charged by the caller); `decode_seconds` the
/// decompression CPU cost, as with decode(), under the manifest's codec.
/// Each container decodes by the codec its own header names: a chunk
/// another tenant stored first may carry a different one.
///
/// Real chunks are restored zero-copy: each segment range adopts the
/// chunk's Chunk::decoded() buffer, so a container is decompressed and
/// CRC-verified once, before its bytes are first restored, and every later
/// restart shares the verified bytes. The cold containers decompress on
/// the host pool first (Chunk::warm_decoded). The length and manifest-CRC
/// checks run on every call, and `decode_seconds` still charges every
/// chunk's decode: the host cache saves host time only, never simulated
/// time.
ProcessImage decode_incremental(const ckptstore::Manifest& mf,
                                const ckptstore::Repository& repo,
                                double* decode_seconds, u64* read_bytes,
                                std::string* error);

}  // namespace dsim::mtcp
