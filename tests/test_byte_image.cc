// ByteImage property tests: every operation checked against a plain
// std::vector reference model, plus copy-on-write and serialization.
#include <gtest/gtest.h>

#include "sim/byte_image.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace dsim::sim {
namespace {

TEST(ByteImage, FreshImageIsZero) {
  ByteImage img(1024);
  auto out = img.materialize(0, 1024);
  for (auto b : out) EXPECT_EQ(b, std::byte{0});
  EXPECT_EQ(img.real_bytes(), 0u);
}

TEST(ByteImage, WriteThenReadBack) {
  ByteImage img(4096);
  std::vector<std::byte> data(100, std::byte{0xAB});
  img.write(1000, data);
  auto out = img.materialize(990, 120);
  EXPECT_EQ(out[9], std::byte{0});
  EXPECT_EQ(out[10], std::byte{0xAB});
  EXPECT_EQ(out[109], std::byte{0xAB});
  EXPECT_EQ(out[110], std::byte{0});
}

TEST(ByteImage, PatternContentIsPositionStable) {
  ByteImage img(1 << 20);
  img.fill(0, 1 << 20, ExtentKind::kRand, 7);
  auto a = img.materialize(5000, 64);
  // Splitting the extent by a write elsewhere must not change content.
  std::vector<std::byte> poke(8, std::byte{1});
  img.write(100000, poke);
  auto b = img.materialize(5000, 64);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
}

TEST(ByteImage, CopyIsCowCheap) {
  ByteImage img(64 << 20);
  img.fill(0, 64 << 20, ExtentKind::kRand, 9);
  ByteImage copy = img;  // O(#extents)
  std::vector<std::byte> poke(16, std::byte{0x7F});
  copy.write(1234, poke);
  // Original unchanged.
  EXPECT_NE(img.materialize(1234, 1)[0], std::byte{0x7F});
  EXPECT_EQ(copy.materialize(1234, 1)[0], std::byte{0x7F});
}

TEST(ByteImage, SerializeRoundTripPreservesEverything) {
  ByteImage img(100000);
  img.fill(0, 40000, ExtentKind::kRand, 3);
  std::vector<std::byte> real(5000);
  for (size_t i = 0; i < real.size(); ++i) {
    real[i] = static_cast<std::byte>(i * 31);
  }
  img.write(45000, real);
  ByteWriter w;
  img.serialize(w);
  auto bytes = w.take();
  ByteReader r(bytes);
  ByteImage back = ByteImage::deserialize(r);
  EXPECT_EQ(back.size(), img.size());
  EXPECT_EQ(back.content_crc(), img.content_crc());
}

TEST(ByteImage, ResizeGrowsWithZeros) {
  ByteImage img(10);
  std::vector<std::byte> data(10, std::byte{0xEE});
  img.write(0, data);
  img.resize(20);
  EXPECT_EQ(img.materialize(15, 1)[0], std::byte{0});
  img.resize(5);
  EXPECT_EQ(img.size(), 5u);
  EXPECT_EQ(img.materialize(4, 1)[0], std::byte{0xEE});
}

TEST(ByteImage, AdoptSharesTheBufferAndReportsItsRange) {
  struct Recorder : ByteImage::WriteObserver {
    std::vector<std::pair<u64, u64>> seen;
    void on_mutate(u64 off, u64 len) override { seen.emplace_back(off, len); }
  } rec;
  ByteImage img(4096);
  img.set_write_observer(&rec);
  auto buf = std::make_shared<std::vector<std::byte>>(100, std::byte{0x5A});
  img.adopt(1000, buf);
  // The COW tracker sees the adopted range like any other mutation.
  ASSERT_EQ(rec.seen.size(), 1u);
  EXPECT_EQ(rec.seen[0], (std::pair<u64, u64>{1000, 100}));
  // Zero-copy: the range is one extent holding the buffer itself.
  int holders = 0;
  img.for_each_extent([&](u64 off, const ByteImage::Extent& e) {
    if (e.data.get() != buf.get()) return;
    ++holders;
    EXPECT_EQ(off, 1000u);
    EXPECT_EQ(e.len, 100u);
  });
  EXPECT_EQ(holders, 1);
  EXPECT_EQ(img.materialize(999, 102)[1], std::byte{0x5A});
}

class ByteImageFuzz : public ::testing::TestWithParam<u64> {};

TEST_P(ByteImageFuzz, MatchesReferenceVector) {
  Rng rng(GetParam());
  const u64 size = 1 + rng.next_below(200000);
  ByteImage img(size);
  std::vector<std::byte> ref(size, std::byte{0});
  // Every adopted buffer, kept alive here with a copy of its bytes: later
  // writes over its range must copy it, never write it in place.
  std::vector<std::pair<std::shared_ptr<const std::vector<std::byte>>,
                        std::vector<std::byte>>>
      adopted;
  for (int op = 0; op < 120; ++op) {
    const u64 off = rng.next_below(size);
    const u64 len = std::min<u64>(1 + rng.next_below(5000), size - off);
    switch (rng.next_below(4)) {
      case 0: {  // write real bytes
        std::vector<std::byte> data(len);
        for (auto& b : data) b = static_cast<std::byte>(rng.next_u64());
        img.write(off, data);
        std::copy(data.begin(), data.end(), ref.begin() + off);
        break;
      }
      case 1: {  // fill zero
        img.fill(off, len, ExtentKind::kZero);
        std::fill(ref.begin() + off, ref.begin() + off + len, std::byte{0});
        break;
      }
      case 2: {  // fill pattern; mirror through rand_byte
        const u64 seed = rng.next_u64();
        img.fill(off, len, ExtentKind::kRand, seed);
        for (u64 i = 0; i < len; ++i) {
          ref[off + i] =
              static_cast<std::byte>(ByteImage::rand_byte(seed, off + i));
        }
        break;
      }
      case 3: {  // adopt a shared buffer, zero-copy
        auto buf = std::make_shared<std::vector<std::byte>>(len);
        for (auto& b : *buf) b = static_cast<std::byte>(rng.next_u64());
        std::copy(buf->begin(), buf->end(), ref.begin() + off);
        adopted.emplace_back(buf, *buf);
        img.adopt(off, buf);
        break;
      }
    }
  }
  auto out = img.materialize(0, size);
  ASSERT_TRUE(std::equal(out.begin(), out.end(), ref.begin()))
      << "divergence from reference model";
  for (const auto& [buf, bytes] : adopted) {
    EXPECT_EQ(*buf, bytes) << "an adopted buffer was written in place";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ByteImageFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12));

}  // namespace
}  // namespace dsim::sim
