#include "compress/compressor.h"

#include <iterator>

#include "compress/huffman.h"
#include "compress/lz77.h"
#include "util/assertx.h"
#include "util/crc32.h"
#include "util/serialize.h"

namespace dsim::compress {
namespace {

constexpr u32 kMagic = 0x315A4744;  // "DGZ1"

// Container: [u32 magic][u8 kind][u64 orig_size][u32 crc32][payload]
//
// The payload by kind:
//   none     the input itself
//   rle      [run length u8 (1..255)][byte], repeated
//   lz77     [u8 1][lz77 token stream]
//   huffman  [u8 1][huffman stream of the input]
//   gzip     [u8 1][u64 token stream size][huffman stream of the tokens]
// A staged kind whose coded stream is not smaller than the input stores
// the input raw instead: [u8 0][input].
struct Header {
  CodecKind kind;
  u64 orig_size;
  u32 crc;
  std::span<const std::byte> payload;
};

Header unwrap(std::span<const std::byte> container) {
  ByteReader r(container);
  DSIM_CHECK_MSG(r.get_u32() == kMagic, "bad checkpoint container magic");
  Header h;
  const u8 kind = r.get_u8();
  DSIM_CHECK_MSG(kind <= static_cast<u8>(CodecKind::kHuffman),
                 "unknown checkpoint container codec");
  h.kind = static_cast<CodecKind>(kind);
  h.orig_size = r.get_u64();
  h.crc = r.get_u32();
  h.payload = r.get_bytes(r.remaining());
  return h;
}

/// The match stage (lz77) runs first, then the entropy stage (huffman).
bool matches(CodecKind kind) {
  return kind == CodecKind::kLz77 || kind == CodecKind::kGzipish;
}
bool entropy_codes(CodecKind kind) {
  return kind == CodecKind::kHuffman || kind == CodecKind::kGzipish;
}

}  // namespace

std::string codec_name(CodecKind kind) {
  switch (kind) {
    case CodecKind::kNone: return "none";
    case CodecKind::kRle: return "rle";
    case CodecKind::kGzipish: return "gzip";
    case CodecKind::kLz77: return "lz77";
    case CodecKind::kHuffman: return "huffman";
  }
  return "?";
}

bool parse_codec(const std::string& name, CodecKind* out) {
  if (name == "none") *out = CodecKind::kNone;
  else if (name == "rle") *out = CodecKind::kRle;
  else if (name == "lz77") *out = CodecKind::kLz77;
  else if (name == "huffman") *out = CodecKind::kHuffman;
  else if (name == "lz77+huffman" || name == "gzip") *out = CodecKind::kGzipish;
  else return false;
  return true;
}

double codec_cost_factor(CodecKind kind) {
  switch (kind) {
    case CodecKind::kNone: return 0.0;
    case CodecKind::kRle: return 0.05;
    case CodecKind::kHuffman: return 0.30;  // entropy stage only
    case CodecKind::kLz77: return 0.70;     // match stage only
    case CodecKind::kGzipish: return 1.0;   // both stages: the baseline
  }
  return 1.0;
}

std::vector<std::byte> Codec::compress(std::span<const std::byte> input) const {
  ByteWriter w;
  w.put_u32(kMagic);
  w.put_u8(static_cast<u8>(kind_));
  w.put_u64(input.size());
  w.put_u32(crc32(input));
  if (kind_ == CodecKind::kNone) {
    w.put_bytes(input);
    return w.take();
  }
  if (kind_ == CodecKind::kRle) {
    size_t i = 0;
    while (i < input.size()) {
      size_t run = 1;
      while (i + run < input.size() && run < 255 &&
             input[i + run] == input[i]) {
        ++run;
      }
      w.put_u8(static_cast<u8>(run));
      w.put_u8(static_cast<u8>(input[i]));
      i += run;
    }
    return w.take();
  }
  std::vector<std::byte> tokens, entropy;
  std::span<const std::byte> coded = input;
  if (matches(kind_)) coded = tokens = lz77_compress(input);
  if (entropy_codes(kind_)) coded = entropy = huffman_encode(coded);
  if (coded.size() + 1 < input.size()) {
    w.put_u8(1);
    if (kind_ == CodecKind::kGzipish) w.put_u64(tokens.size());
    w.put_bytes(coded);
  } else {
    w.put_u8(0);  // incompressible (or tiny); store raw
    w.put_bytes(input);
  }
  return w.take();
}

std::vector<std::byte> Codec::decompress(
    std::span<const std::byte> container) {
  const Header h = unwrap(container);
  std::vector<std::byte> out;
  if (h.kind == CodecKind::kNone) {
    out.assign(h.payload.begin(), h.payload.end());
  } else if (h.kind == CodecKind::kRle) {
    out.reserve(h.orig_size);
    DSIM_CHECK_MSG(h.payload.size() % 2 == 0, "rle payload corrupt");
    for (size_t i = 0; i < h.payload.size(); i += 2) {
      const auto run = static_cast<size_t>(h.payload[i]);
      out.insert(out.end(), run, h.payload[i + 1]);
    }
  } else {
    ByteReader r(h.payload);
    if (r.get_u8() == 0) {
      const auto raw = r.get_bytes(r.remaining());
      out.assign(raw.begin(), raw.end());
    } else {
      const u64 token_size = h.kind == CodecKind::kGzipish ? r.get_u64() : 0;
      std::span<const std::byte> stream = r.get_bytes(r.remaining());
      std::vector<std::byte> decoded;
      if (entropy_codes(h.kind)) {
        decoded = huffman_decode(stream);
        DSIM_CHECK_MSG(h.kind != CodecKind::kGzipish ||
                           decoded.size() == token_size,
                       "gzipish token size");
        stream = decoded;
      }
      out = matches(h.kind) ? lz77_decompress(stream, h.orig_size)
                            : std::move(decoded);
    }
  }
  DSIM_CHECK_MSG(out.size() == h.orig_size, "decompressed size mismatch");
  DSIM_CHECK_MSG(crc32(out) == h.crc, "checkpoint image CRC mismatch");
  return out;
}

u32 container_crc(std::span<const std::byte> container) {
  return unwrap(container).crc;
}

CodecKind container_kind(std::span<const std::byte> container) {
  return unwrap(container).kind;
}

const Codec& codec(CodecKind kind) {
  // Indexed by the kind's value.
  static constexpr Codec kCodecs[] = {
      Codec(CodecKind::kNone), Codec(CodecKind::kRle),
      Codec(CodecKind::kGzipish), Codec(CodecKind::kLz77),
      Codec(CodecKind::kHuffman)};
  const auto i = static_cast<size_t>(kind);
  DSIM_CHECK_MSG(i < std::size(kCodecs), "unknown codec");
  return kCodecs[i];
}

double measure_ratio(CodecKind kind, std::span<const std::byte> sample) {
  if (sample.empty()) return 1.0;
  const auto out = codec(kind).compress(sample);
  return static_cast<double>(out.size()) / static_cast<double>(sample.size());
}

}  // namespace dsim::compress
