// Compression codec for checkpoint images.
//
// DMTCP pipes checkpoint images through gzip by default (§5: "DMTCP
// dynamically invokes gzip before saving"). We implement a real gzip-like
// codec from scratch (LZ77 with hash-chain matching + order-0 canonical
// Huffman entropy stage, CRC-32 verified container) so that reported
// compressed sizes are measured, not modeled. Each CodecKind names the
// stages one Codec runs: both (the gzip default), either alone, RLE, or a
// plain store; RLE and the store exist for tests and ablations. The
// container records the kind that made it, so decoding never asks the
// caller for a codec: tenants of one shared store may each use their own
// --compress, and every reader decodes a chunk by the kind its first
// writer stored.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "util/types.h"

namespace dsim::compress {

enum class CodecKind : u8 {
  kNone = 0,    // store; identity transform
  kRle = 1,     // run-length encoding (ablation / tests)
  kGzipish = 2, // LZ77 + canonical Huffman; the default "gzip"
  kLz77 = 3,    // LZ77 token stream alone (no entropy stage)
  kHuffman = 4, // order-0 canonical Huffman alone (no match stage)
};

std::string codec_name(CodecKind kind);

/// Parse a --compress value into a codec: "none", "rle", "lz77",
/// "huffman", "lz77+huffman" (the gzip-style two-stage default; "gzip" is
/// accepted as an alias). Returns false on an unknown name.
bool parse_codec(const std::string& name, CodecKind* out);

/// Relative single-core CPU cost of compressing one input byte under
/// `kind`, as a multiple of the gzip-class baseline (kGzipish == 1.0): the
/// match stage dominates, the entropy stage alone is cheap, and the null
/// codec costs nothing. The async drain prices a chunk's encode of data
/// input as cost_factor * input_bytes / kCompressBw on one pool core.
double codec_cost_factor(CodecKind kind);

/// The codec. Pure functions of their input (no hidden state), so the
/// one instance per kind (codec()) is safe to share across threads.
class Codec {
 public:
  explicit constexpr Codec(CodecKind kind) : kind_(kind) {}

  /// Compress `input` into a self-describing container (magic, kind,
  /// original size, CRC-32 of the original data, payload) by the stages
  /// this codec's kind names.
  std::vector<std::byte> compress(std::span<const std::byte> input) const;

  /// Decompress a container produced by any codec's `compress`, by the kind
  /// its header names. Aborts (DSIM_CHECK) on corrupt containers —
  /// checkpoint integrity is a hard invariant.
  static std::vector<std::byte> decompress(
      std::span<const std::byte> container);

 private:
  CodecKind kind_;
};

/// The CRC-32 of the original data, read from a container's header (checks
/// the magic and the kind byte, decodes nothing). Once `decompress` has
/// accepted a container — it verifies the decoded bytes against exactly
/// this value — the header CRC stands for the content, so callers need not
/// hash it again.
u32 container_crc(std::span<const std::byte> container);

/// The kind that made a container, read from its header as container_crc
/// reads the CRC.
CodecKind container_kind(std::span<const std::byte> container);

/// The shared codec of `kind`.
const Codec& codec(CodecKind kind);

/// Measured compression ratio (compressed/original) of a data sample under
/// `kind`. Used to extrapolate sizes of pattern (ballast) extents from a
/// materialized sample. Returns 1.0 for empty input.
double measure_ratio(CodecKind kind, std::span<const std::byte> sample);

}  // namespace dsim::compress
