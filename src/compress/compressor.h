// Compression codecs for checkpoint images.
//
// DMTCP pipes checkpoint images through gzip by default (§5: "DMTCP
// dynamically invokes gzip before saving"). We implement a real gzip-like
// codec from scratch (LZ77 with hash-chain matching + order-0 canonical
// Huffman entropy stage, CRC-32 verified container) so that reported
// compressed sizes are measured, not modeled. An RLE codec and a null codec
// exist for tests and ablations.
#pragma once

#include <memory>
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

/// Parse a --compress value into a codec: "none", "lz77", "huffman",
/// "lz77+huffman" (the gzip-style two-stage default; "gzip" is accepted as
/// an alias). Returns false on an unknown name.
bool parse_codec(const std::string& name, CodecKind* out);

/// Relative single-core CPU cost of compressing one input byte under
/// `kind`, as a multiple of the gzip-class baseline (kGzipish == 1.0): the
/// match stage dominates, the entropy stage alone is cheap, and the null
/// codec costs nothing. The async drain prices a chunk's encode of data
/// input as cost_factor * input_bytes / kCompressBw on one pool core.
double codec_cost_factor(CodecKind kind);

/// A compression codec. Implementations are pure functions of their input
/// (no hidden state), so they are safe to share.
class Codec {
 public:
  virtual ~Codec() = default;
  virtual CodecKind kind() const = 0;

  /// Compress `input` into a self-describing container (magic, original
  /// size, CRC-32 of the original data, payload).
  virtual std::vector<std::byte> compress(
      std::span<const std::byte> input) const = 0;

  /// Decompress a container produced by `compress`. Aborts (DSIM_CHECK) on
  /// corrupt containers — checkpoint integrity is a hard invariant.
  virtual std::vector<std::byte> decompress(
      std::span<const std::byte> container) const = 0;
};

/// The CRC-32 of the original data, read from a container's header (checks
/// the magic, decodes nothing). Once `decompress` has accepted a container
/// — it verifies the decoded bytes against exactly this value — the header
/// CRC stands for the content, so callers need not hash it again.
u32 container_crc(std::span<const std::byte> container);

/// Singleton accessor for a codec implementation.
const Codec& codec(CodecKind kind);

/// Measured compression ratio (compressed/original) of a data sample under
/// `kind`. Used to extrapolate sizes of pattern (ballast) extents from a
/// materialized sample. Returns 1.0 for empty input.
double measure_ratio(CodecKind kind, std::span<const std::byte> sample);

}  // namespace dsim::compress
