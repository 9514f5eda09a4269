// Compressor unit + property tests: exact round-trips across codecs,
// content classes and sizes; ratio ordering; container integrity; the
// frozen container format and the CRC-32 / chunk-key kernels under it.
#include <gtest/gtest.h>

#include "ckptstore/cdc.h"
#include "ckptstore/chunk.h"
#include "compress/compressor.h"
#include "compress/huffman.h"
#include "compress/lz77.h"
#include "sim/byte_image.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace dsim::compress {
namespace {

std::vector<std::byte> make_content(const std::string& kind, size_t n,
                                    u64 seed) {
  std::vector<std::byte> data(n);
  Rng rng(seed);
  if (kind == "zero") return data;
  if (kind == "rand") {
    for (auto& b : data) b = static_cast<std::byte>(rng.next_u64());
  } else if (kind == "text") {
    const std::string vocab = "the quick checkpoint restarted the socket ";
    for (size_t i = 0; i < n; ++i) data[i] = std::byte(vocab[i % vocab.size()]);
  } else if (kind == "runs") {
    size_t i = 0;
    while (i < n) {
      const auto v = static_cast<std::byte>(rng.next_below(4));
      const size_t run = 1 + rng.next_below(300);
      for (size_t j = 0; j < run && i < n; ++j) data[i++] = v;
    }
  } else if (kind == "mixed") {
    for (size_t i = 0; i < n; ++i) {
      data[i] = (i / 512) % 2 ? std::byte{0}
                              : static_cast<std::byte>(rng.next_u64());
    }
  }
  return data;
}

constexpr CodecKind kCodecs[] = {CodecKind::kNone, CodecKind::kRle,
                                 CodecKind::kLz77, CodecKind::kHuffman,
                                 CodecKind::kGzipish};
const std::string kKinds[] = {"zero", "rand", "text", "runs", "mixed"};
constexpr size_t kSizes[] = {0, 1, 3, 257, 4096, 100000};

/// A checkpoint-image-like region mix (text, zero pages, half-zero mixed
/// spans, incompressible random pages, pattern ballast) cut by the
/// production CDC chunker: exactly the payloads the async pipeline streams
/// to the store.
struct CdcCorpus {
  sim::ByteImage img;
  std::vector<ckptstore::ChunkSpan> spans;
  u64 rand_off = 0, rand_end = 0;  // the random pages
};

CdcCorpus make_cdc_corpus() {
  const auto text = make_content("text", 96 * 1024, 0xC0);
  const auto mixed = make_content("mixed", 64 * 1024, 0xC1);
  const auto rand_pages = make_content("rand", 16 * 4096, 0xC2);
  const u64 zero_len = 64 * 1024;
  const u64 ballast_len = 32 * 4096;
  CdcCorpus c;
  c.img.resize(text.size() + zero_len + mixed.size() + rand_pages.size() +
               ballast_len);
  u64 off = 0;
  c.img.write(off, text);
  off += text.size();
  c.img.fill(off, zero_len, sim::ExtentKind::kZero, 0);
  off += zero_len;
  c.img.write(off, mixed);
  off += mixed.size();
  c.rand_off = off;
  c.img.write(off, rand_pages);
  off += rand_pages.size();
  c.rand_end = off;
  c.img.fill(off, ballast_len, sim::ExtentKind::kRand, 0xC3);

  ckptstore::ChunkingParams p;
  p.mode = ckptstore::ChunkingMode::kCdc;
  p.min_bytes = 2 * 1024;
  p.avg_bytes = 8 * 1024;
  p.max_bytes = 32 * 1024;
  c.spans = ckptstore::scan_chunks_cdc(c.img, p);
  return c;
}

using Param = std::tuple<CodecKind, std::string, size_t>;

class RoundTrip : public ::testing::TestWithParam<Param> {};

TEST_P(RoundTrip, ExactRecovery) {
  const auto [kind, content, size] = GetParam();
  const auto data = make_content(content, size, 0x5eed ^ size);
  const auto& c = codec(kind);
  const auto compressed = c.compress(data);
  const auto out = c.decompress(compressed);
  ASSERT_EQ(out.size(), data.size());
  EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin()));
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecsContentsSizes, RoundTrip,
    ::testing::Combine(
        ::testing::ValuesIn(kCodecs), ::testing::ValuesIn(kKinds),
        ::testing::ValuesIn(kSizes)),
    [](const auto& info) {
      return codec_name(std::get<0>(info.param)) + "_" +
             std::get<1>(info.param) + "_" +
             std::to_string(std::get<2>(info.param));
    });

TEST(Compressor, GzipishBeatsRleOnText) {
  const auto data = make_content("text", 64 * 1024, 1);
  const double gz = measure_ratio(CodecKind::kGzipish, data);
  const double rle = measure_ratio(CodecKind::kRle, data);
  EXPECT_LT(gz, 0.2);
  EXPECT_LT(gz, rle);
}

TEST(Compressor, ZerosCompressNearlyAway) {
  const auto data = make_content("zero", 1 << 20, 0);
  EXPECT_LT(measure_ratio(CodecKind::kGzipish, data), 0.01);
}

TEST(Compressor, RandomDataDoesNotExplode) {
  const auto data = make_content("rand", 1 << 20, 2);
  // Incompressible input falls back to store mode: tiny overhead only.
  EXPECT_LT(measure_ratio(CodecKind::kGzipish, data), 1.01);
}

TEST(Compressor, RatioOrderingMatchesEntropy) {
  const size_t n = 256 * 1024;
  const double zero = measure_ratio(CodecKind::kGzipish,
                                    make_content("zero", n, 0));
  const double runs = measure_ratio(CodecKind::kGzipish,
                                    make_content("runs", n, 3));
  const double text = measure_ratio(CodecKind::kGzipish,
                                    make_content("text", n, 4));
  const double rand = measure_ratio(CodecKind::kGzipish,
                                    make_content("rand", n, 5));
  EXPECT_LT(zero, runs);
  EXPECT_LT(runs, text + 0.2);
  EXPECT_LT(text, rand);
}

TEST(Compressor, ParseCodecNamesAndCostFactors) {
  CodecKind k = CodecKind::kNone;
  EXPECT_TRUE(parse_codec("none", &k));
  EXPECT_EQ(k, CodecKind::kNone);
  EXPECT_TRUE(parse_codec("rle", &k));
  EXPECT_EQ(k, CodecKind::kRle);
  EXPECT_TRUE(parse_codec("lz77", &k));
  EXPECT_EQ(k, CodecKind::kLz77);
  EXPECT_TRUE(parse_codec("huffman", &k));
  EXPECT_EQ(k, CodecKind::kHuffman);
  EXPECT_TRUE(parse_codec("lz77+huffman", &k));
  EXPECT_EQ(k, CodecKind::kGzipish);
  EXPECT_TRUE(parse_codec("gzip", &k));
  EXPECT_EQ(k, CodecKind::kGzipish);
  EXPECT_FALSE(parse_codec("zstd", &k));
  EXPECT_FALSE(parse_codec("", &k));
  // Cost factors scale the modeled CPU seconds: free pass-through at one
  // end, the full two-stage pipeline at the other, single stages between.
  EXPECT_EQ(codec_cost_factor(CodecKind::kNone), 0.0);
  EXPECT_LT(codec_cost_factor(CodecKind::kRle),
            codec_cost_factor(CodecKind::kHuffman));
  EXPECT_LT(codec_cost_factor(CodecKind::kHuffman),
            codec_cost_factor(CodecKind::kLz77));
  EXPECT_LT(codec_cost_factor(CodecKind::kLz77),
            codec_cost_factor(CodecKind::kGzipish));
  EXPECT_EQ(codec_cost_factor(CodecKind::kGzipish), 1.0);
}

TEST(Compressor, CdcChunkCorpusRoundTripsWithSaneRatios) {
  // Push every CDC chunk of the image-like corpus through every codec.
  const auto corpus = make_cdc_corpus();
  const auto& img = corpus.img;
  const auto& spans = corpus.spans;
  ASSERT_GT(spans.size(), 12u);

  for (const CodecKind kind : kCodecs) {
    const auto& c = codec(kind);
    u64 raw = 0, packed = 0;
    u64 zero_raw = 0, zero_packed = 0;
    u64 rand_raw = 0, rand_packed = 0;
    size_t rand_spans = 0;
    for (const auto& s : spans) {
      const auto payload = img.materialize(s.off, s.len);
      const auto compressed = c.compress(payload);
      const auto out = c.decompress(compressed);
      ASSERT_TRUE(out == payload)
          << codec_name(kind) << " span @" << s.off << "+" << s.len;
      raw += payload.size();
      packed += compressed.size();
      if (s.kind == sim::ExtentKind::kZero) {
        zero_raw += payload.size();
        zero_packed += compressed.size();
      }
      if (s.off >= corpus.rand_off && s.off < corpus.rand_end) {
        rand_raw += payload.size();
        rand_packed += compressed.size();
        rand_spans++;
      }
    }
    ASSERT_GT(zero_raw, 0u);
    ASSERT_GT(rand_raw, 0u);
    // Ratio sanity, per codec. RLE is the one codec with no store-mode
    // fallback, so incompressible input can double (2 bytes per literal);
    // everything else is bounded by the container overhead. Zero pages all
    // but vanish — except under plain Huffman, whose single-symbol floor
    // is one bit per byte (ratio 1/8).
    const u64 worst = kind == CodecKind::kRle ? 2 * raw : raw;
    EXPECT_LT(packed, worst + spans.size() * 64) << codec_name(kind);
    if (kind != CodecKind::kNone) {
      const double zero_bound = kind == CodecKind::kHuffman ? 0.15 : 0.05;
      EXPECT_LT(static_cast<double>(zero_packed),
                zero_bound * static_cast<double>(zero_raw))
          << codec_name(kind);
    }
    const u64 rand_worst =
        kind == CodecKind::kRle ? 2 * rand_raw : rand_raw;
    EXPECT_LT(rand_packed, rand_worst + rand_spans * 64) << codec_name(kind);
    if (kind == CodecKind::kGzipish) {
      // The full pipeline wins clearly on the corpus as a whole.
      EXPECT_LT(static_cast<double>(packed), 0.75 * static_cast<double>(raw));
    }
  }
}

TEST(Compressor, ContainerRejectsCorruptMagic) {
  const auto data = make_content("text", 1024, 6);
  auto compressed = codec(CodecKind::kGzipish).compress(data);
  compressed[0] = std::byte{0xFF};
  EXPECT_DEATH(codec(CodecKind::kGzipish).decompress(compressed), "magic");
}

TEST(Compressor, ContainerDetectsPayloadCorruption) {
  const auto data = make_content("text", 8 * 1024, 7);
  auto compressed = codec(CodecKind::kNone).compress(data);
  compressed[compressed.size() / 2] ^= std::byte{0x01};
  EXPECT_DEATH(codec(CodecKind::kNone).decompress(compressed), "CRC");
}

// ---- The frozen format ------------------------------------------------------

/// Bit-at-a-time reflected CRC-32: the definition, with no table, as the
/// oracle the production kernel is checked against.
u32 crc32_oracle(u32 crc, std::span<const std::byte> data) {
  u32 c = ~crc;
  for (std::byte b : data) {
    c ^= static_cast<u32>(b);
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1)));
  }
  return ~c;
}

TEST(CodecFormat, ContainersArePinned) {
  // Every codec's containers over the round-trip grid and over the CDC
  // corpus, digested in order: a changed token, code length, header byte
  // or embedded CRC moves the digest. The constants were taken from the
  // codec before its kernels were rewritten for host speed, so they pin
  // the on-disk format itself — stored chunks, chunk keys and every
  // committed benchmark figure depend on it staying byte-identical.
  struct Pin {
    CodecKind kind;
    u32 grid, cdc;
  };
  const Pin pins[] = {
      {CodecKind::kNone, 0x7CA87980u, 0x7D936995u},
      {CodecKind::kRle, 0x5C862447u, 0x156AB791u},
      {CodecKind::kLz77, 0x2890650Eu, 0xDE796F34u},
      {CodecKind::kHuffman, 0xA35E6FD7u, 0x4BD87E2Du},
      {CodecKind::kGzipish, 0x333D5118u, 0xCA531940u},
  };
  const auto corpus = make_cdc_corpus();
  for (const Pin& pin : pins) {
    const auto& c = codec(pin.kind);
    u32 grid = 0;
    for (const auto& kind : kKinds) {
      for (const size_t size : kSizes) {
        const auto data = make_content(kind, size, 0x5eed ^ size);
        grid = crc32_oracle(grid, c.compress(data));
      }
    }
    u32 cdc = 0;
    for (const auto& s : corpus.spans) {
      const auto payload = corpus.img.materialize(s.off, s.len);
      cdc = crc32_oracle(cdc, c.compress(payload));
    }
    EXPECT_EQ(grid, pin.grid) << codec_name(pin.kind);
    EXPECT_EQ(cdc, pin.cdc) << codec_name(pin.kind);
  }
}

TEST(CodecFormat, Crc32CheckVectors) {
  EXPECT_EQ(crc32({}), 0u);
  EXPECT_EQ(crc32(as_bytes_view("123456789")), 0xCBF43926u);
  const char* fox = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(crc32(as_bytes_view(fox)), 0x414FA339u);
}

TEST(CodecFormat, Crc32MatchesBytewiseOracle) {
  // Every length 0..70 at every alignment 0..7 walks the 8-byte main loop,
  // its entry and every tail length; a non-zero seed CRC covers chaining.
  const auto data = make_content("rand", 80, 0xC4C);
  const std::span<const std::byte> all(data);
  for (size_t start = 0; start < 8; ++start) {
    for (size_t len = 0; len <= 70; ++len) {
      const auto s = all.subspan(start, len);
      ASSERT_EQ(crc32(s), crc32_oracle(0, s)) << start << "+" << len;
      ASSERT_EQ(crc32_update(0x9E3779B9u, s), crc32_oracle(0x9E3779B9u, s))
          << start << "+" << len;
    }
  }
}

TEST(CodecFormat, Crc32IsSplitInvariant) {
  const auto data = make_content("rand", 1000, 0x5B17);
  const std::span<const std::byte> all(data);
  const u32 whole = crc32(all);
  for (size_t cut = 0; cut <= all.size(); ++cut) {
    ASSERT_EQ(crc32_update(crc32(all.first(cut)), all.subspan(cut)), whole)
        << cut;
  }
}

TEST(CodecFormat, ContentKeysArePinned) {
  // Chunk keys address every stored chunk: they are format, too.
  const auto a = ckptstore::content_key(as_bytes_view("123456789"));
  const auto b = ckptstore::content_key(make_content("text", 16384, 1));
  EXPECT_EQ(a.str(), "06d5573923c6cdfca730a0f7950b55db");
  EXPECT_EQ(b.str(), "7747b18dc0d992549c3438810082c7f8");
}

// ---- Corrupt streams die on a check, never on a wild access ----------------
//
// Under the sanitizer build these walk the decoders' fast paths — the 8-byte
// bit refill and the pre-sized match copy — right up to their bounds.

constexpr size_t kContainerHeader = 17;  // u32 magic, u8 kind, u64 size, u32 crc
constexpr const char* kDecodeCheck =
    "corrupt huffman stream|gzipish token size|lz77|CRC mismatch";

/// A container in the frozen layout around an arbitrary payload.
std::vector<std::byte> make_container(CodecKind kind, u64 orig_size, u32 crc,
                                      std::span<const std::byte> payload) {
  ByteWriter w;
  w.put_u32(0x315A4744);  // "DGZ1"
  w.put_u8(static_cast<u8>(kind));
  w.put_u64(orig_size);
  w.put_u32(crc);
  w.put_bytes(payload);
  return w.take();
}

/// Append an lz77 match token copying `len` bytes from `dist` back.
void put_match(std::vector<std::byte>& tokens, u64 len, u64 dist) {
  tokens.push_back(std::byte{0x01});
  for (u64 v : {len, dist}) {
    for (; v >= 0x80; v >>= 7) {
      tokens.push_back(static_cast<std::byte>((v & 0x7F) | 0x80));
    }
    tokens.push_back(static_cast<std::byte>(v));
  }
}

class CorruptStream : public ::testing::TestWithParam<CodecKind> {
 protected:
  /// A container whose payload is really encoded (mode 1, not stored raw).
  /// Mixed content is half random bytes, which reach the lz77 token stream
  /// as literals: the middle of the payload lands in one, so flipping it
  /// must change the output. (A flipped match distance inside a run can
  /// decode to the very same bytes — no check could, or should, reject it.)
  std::vector<std::byte> encoded() const {
    auto container =
        codec(GetParam()).compress(make_content("mixed", 64 << 10, 8));
    EXPECT_EQ(container.at(kContainerHeader), std::byte{1});
    return container;
  }
};

TEST_P(CorruptStream, TruncatedPayloadDies) {
  auto container = encoded();
  container.resize(kContainerHeader +
                   (container.size() - kContainerHeader) / 2);
  EXPECT_DEATH(codec(GetParam()).decompress(container), kDecodeCheck);
}

TEST_P(CorruptStream, FlippedPayloadByteDies) {
  auto container = encoded();
  container[kContainerHeader + (container.size() - kContainerHeader) / 2] ^=
      std::byte{0x5A};
  EXPECT_DEATH(codec(GetParam()).decompress(container), kDecodeCheck);
}

INSTANTIATE_TEST_SUITE_P(
    EncodedCodecs, CorruptStream,
    ::testing::Values(CodecKind::kLz77, CodecKind::kHuffman,
                      CodecKind::kGzipish),
    [](const auto& info) { return codec_name(info.param); });

TEST(CorruptStream, OversizedHuffmanCountDiesBeforeAllocating) {
  // The symbol count sits after the mode byte (and, for gzip, the token
  // size) and the 256 code lengths; 2^62 symbols cannot fit any payload.
  for (const auto& [kind, count_at] :
       {std::pair{CodecKind::kHuffman, kContainerHeader + 1 + 256},
        std::pair{CodecKind::kGzipish, kContainerHeader + 1 + 8 + 256}}) {
    auto container = codec(kind).compress(make_content("text", 4096, 9));
    ASSERT_EQ(container.at(kContainerHeader), std::byte{1});
    store_le<u64>(container.data() + count_at, u64{1} << 62);
    EXPECT_DEATH(codec(kind).decompress(container), "corrupt huffman stream")
        << codec_name(kind);
  }
}

TEST(CorruptStream, Lz77MatchPastDeclaredSizeDies) {
  // A well-formed token stream with one extra match of 2^40 bytes: the
  // decoder must refuse it against the declared size before copying.
  const auto data = make_content("runs", 4096, 10);
  auto tokens = lz77_compress(data);
  put_match(tokens, u64{1} << 40, 1);

  ByteWriter lz;
  lz.put_u8(1);
  lz.put_bytes(tokens);
  const auto lz_container =
      make_container(CodecKind::kLz77, data.size(), crc32(data), lz.bytes());
  EXPECT_DEATH(codec(CodecKind::kLz77).decompress(lz_container),
               "lz77 size mismatch");

  ByteWriter gz;
  gz.put_u8(1);
  gz.put_u64(tokens.size());
  gz.put_bytes(huffman_encode(tokens));
  const auto gz_container =
      make_container(CodecKind::kGzipish, data.size(), crc32(data), gz.bytes());
  EXPECT_DEATH(codec(CodecKind::kGzipish).decompress(gz_container),
               "lz77 size mismatch");
}

}  // namespace
}  // namespace dsim::compress
