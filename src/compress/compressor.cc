#include "compress/compressor.h"

#include <array>

#include "compress/huffman.h"
#include "compress/lz77.h"
#include "util/assertx.h"
#include "util/crc32.h"
#include "util/serialize.h"

namespace dsim::compress {
namespace {

constexpr u32 kMagic = 0x315A4744;  // "DGZ1"

// Container: [u32 magic][u8 kind][u64 orig_size][u32 crc32][payload]
std::vector<std::byte> wrap(CodecKind kind, std::span<const std::byte> input,
                            std::span<const std::byte> payload) {
  ByteWriter w;
  w.put_u32(kMagic);
  w.put_u8(static_cast<u8>(kind));
  w.put_u64(input.size());
  w.put_u32(crc32(input));
  w.put_bytes(payload);
  return w.take();
}

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
  h.kind = static_cast<CodecKind>(r.get_u8());
  h.orig_size = r.get_u64();
  h.crc = r.get_u32();
  h.payload = r.get_bytes(r.remaining());
  return h;
}

void verify(const Header& h, std::span<const std::byte> out) {
  DSIM_CHECK_MSG(out.size() == h.orig_size, "decompressed size mismatch");
  DSIM_CHECK_MSG(crc32(out) == h.crc, "checkpoint image CRC mismatch");
}

class NoneCodec final : public Codec {
 public:
  CodecKind kind() const override { return CodecKind::kNone; }
  std::vector<std::byte> compress(
      std::span<const std::byte> input) const override {
    return wrap(kind(), input, input);
  }
  std::vector<std::byte> decompress(
      std::span<const std::byte> container) const override {
    const Header h = unwrap(container);
    DSIM_CHECK(h.kind == CodecKind::kNone);
    std::vector<std::byte> out(h.payload.begin(), h.payload.end());
    verify(h, out);
    return out;
  }
};

class RleCodec final : public Codec {
 public:
  CodecKind kind() const override { return CodecKind::kRle; }

  std::vector<std::byte> compress(
      std::span<const std::byte> input) const override {
    // [run length u8 (1..255)][byte], repeated.
    std::vector<std::byte> payload;
    payload.reserve(input.size() / 4 + 16);
    size_t i = 0;
    while (i < input.size()) {
      size_t run = 1;
      while (i + run < input.size() && run < 255 &&
             input[i + run] == input[i]) {
        ++run;
      }
      payload.push_back(static_cast<std::byte>(run));
      payload.push_back(input[i]);
      i += run;
    }
    return wrap(kind(), input, payload);
  }

  std::vector<std::byte> decompress(
      std::span<const std::byte> container) const override {
    const Header h = unwrap(container);
    DSIM_CHECK(h.kind == CodecKind::kRle);
    std::vector<std::byte> out;
    out.reserve(h.orig_size);
    DSIM_CHECK_MSG(h.payload.size() % 2 == 0, "rle payload corrupt");
    for (size_t i = 0; i < h.payload.size(); i += 2) {
      const auto run = static_cast<size_t>(h.payload[i]);
      out.insert(out.end(), run, h.payload[i + 1]);
    }
    verify(h, out);
    return out;
  }
};

class GzipishCodec final : public Codec {
 public:
  CodecKind kind() const override { return CodecKind::kGzipish; }

  std::vector<std::byte> compress(
      std::span<const std::byte> input) const override {
    auto tokens = lz77_compress(input);
    auto entropy = huffman_encode(tokens);
    // Keep whichever representation is smaller; flag in first payload byte.
    ByteWriter w;
    if (entropy.size() + 1 < input.size()) {
      w.put_u8(1);
      w.put_u64(tokens.size());
      w.put_bytes(entropy);
    } else {
      w.put_u8(0);  // incompressible; store raw
      w.put_bytes(input);
    }
    auto payload = w.take();
    return wrap(kind(), input, payload);
  }

  std::vector<std::byte> decompress(
      std::span<const std::byte> container) const override {
    const Header h = unwrap(container);
    DSIM_CHECK(h.kind == CodecKind::kGzipish);
    ByteReader r(h.payload);
    const u8 mode = r.get_u8();
    std::vector<std::byte> out;
    if (mode == 0) {
      auto raw = r.get_bytes(r.remaining());
      out.assign(raw.begin(), raw.end());
    } else {
      const u64 token_size = r.get_u64();
      auto tokens = huffman_decode(r.get_bytes(r.remaining()));
      DSIM_CHECK_MSG(tokens.size() == token_size, "gzipish token size");
      out = lz77_decompress(tokens, h.orig_size);
    }
    verify(h, out);
    return out;
  }
};

class Lz77Codec final : public Codec {
 public:
  CodecKind kind() const override { return CodecKind::kLz77; }

  std::vector<std::byte> compress(
      std::span<const std::byte> input) const override {
    auto tokens = lz77_compress(input);
    ByteWriter w;
    if (tokens.size() + 1 < input.size()) {
      w.put_u8(1);
      w.put_bytes(tokens);
    } else {
      w.put_u8(0);  // incompressible; store raw
      w.put_bytes(input);
    }
    auto payload = w.take();
    return wrap(kind(), input, payload);
  }

  std::vector<std::byte> decompress(
      std::span<const std::byte> container) const override {
    const Header h = unwrap(container);
    DSIM_CHECK(h.kind == CodecKind::kLz77);
    ByteReader r(h.payload);
    const u8 mode = r.get_u8();
    std::vector<std::byte> out;
    if (mode == 0) {
      auto raw = r.get_bytes(r.remaining());
      out.assign(raw.begin(), raw.end());
    } else {
      out = lz77_decompress(r.get_bytes(r.remaining()), h.orig_size);
    }
    verify(h, out);
    return out;
  }
};

class HuffmanCodec final : public Codec {
 public:
  CodecKind kind() const override { return CodecKind::kHuffman; }

  std::vector<std::byte> compress(
      std::span<const std::byte> input) const override {
    auto entropy = huffman_encode(input);
    ByteWriter w;
    if (entropy.size() + 1 < input.size()) {
      w.put_u8(1);
      w.put_bytes(entropy);
    } else {
      w.put_u8(0);  // incompressible (or tiny); store raw
      w.put_bytes(input);
    }
    auto payload = w.take();
    return wrap(kind(), input, payload);
  }

  std::vector<std::byte> decompress(
      std::span<const std::byte> container) const override {
    const Header h = unwrap(container);
    DSIM_CHECK(h.kind == CodecKind::kHuffman);
    ByteReader r(h.payload);
    const u8 mode = r.get_u8();
    std::vector<std::byte> out;
    if (mode == 0) {
      auto raw = r.get_bytes(r.remaining());
      out.assign(raw.begin(), raw.end());
    } else {
      out = huffman_decode(r.get_bytes(r.remaining()));
    }
    verify(h, out);
    return out;
  }
};

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

u32 container_crc(std::span<const std::byte> container) {
  return unwrap(container).crc;
}

const Codec& codec(CodecKind kind) {
  static const NoneCodec none;
  static const RleCodec rle;
  static const GzipishCodec gz;
  static const Lz77Codec lz;
  static const HuffmanCodec huff;
  switch (kind) {
    case CodecKind::kNone: return none;
    case CodecKind::kRle: return rle;
    case CodecKind::kGzipish: return gz;
    case CodecKind::kLz77: return lz;
    case CodecKind::kHuffman: return huff;
  }
  DSIM_UNREACHABLE("unknown codec");
}

double measure_ratio(CodecKind kind, std::span<const std::byte> sample) {
  if (sample.empty()) return 1.0;
  const auto out = codec(kind).compress(sample);
  return static_cast<double>(out.size()) / static_cast<double>(sample.size());
}

}  // namespace dsim::compress
