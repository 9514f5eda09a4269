// ByteImage property tests: every operation checked against a plain
// std::vector reference model, plus copy-on-write and serialization.
#include <gtest/gtest.h>

#include <tuple>

#include "sim/byte_image.h"
#include "tests/testutil.h"
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

using Ranges = std::vector<std::pair<u64, u64>>;

TEST(ByteImageSoftDirty, EveryMutatorMarksItsRange) {
  ByteImage img(64 * 1024);
  const u64 token = img.arm_soft_dirty();
  EXPECT_NE(token, 0u);
  EXPECT_EQ(img.soft_dirty_token(), token);
  auto take = [&] {
    auto log = img.take_soft_dirty();
    EXPECT_EQ(log.token, token);
    return log.ranges;
  };
  img.write(100, std::vector<std::byte>(50, std::byte{1}));
  EXPECT_EQ(take(), (Ranges{{100, 150}}));
  img.fill(1000, 300, ExtentKind::kRand, 9);
  EXPECT_EQ(take(), (Ranges{{1000, 1300}}));
  img.fill(2000, 10, ExtentKind::kZero);
  EXPECT_EQ(take(), (Ranges{{2000, 2010}}));
  img.adopt(4096, std::make_shared<std::vector<std::byte>>(64));
  EXPECT_EQ(take(), (Ranges{{4096, 4160}}));
  img.resize(70 * 1024);  // grow: the new zero tail
  EXPECT_EQ(take(), (Ranges{{64 * 1024, 70 * 1024}}));
  img.resize(60 * 1024);  // shrink: the cut-off tail, past the new size
  EXPECT_EQ(take(), (Ranges{{60 * 1024, 70 * 1024}}));
  img.resize(60 * 1024);  // no change, no mark
  img.write(0, {});
  EXPECT_EQ(take(), Ranges{});
}

TEST(ByteImageSoftDirty, RangesMergeAndStaySorted) {
  ByteImage img(10000);
  img.arm_soft_dirty();
  const std::vector<std::byte> b(100, std::byte{7});
  img.write(5000, b);
  img.write(1000, b);
  img.write(1100, b);  // touches [1000, 1100): merges
  img.write(1050, b);  // inside: already marked
  img.write(3000, b);
  img.write(2990, std::span(b).first(20));  // overlaps [3000, 3100)
  img.write(5000, b);  // rewrite of a marked range
  EXPECT_EQ(img.take_soft_dirty().ranges,
            (Ranges{{1000, 1200}, {2990, 3100}, {5000, 5100}}));
  img.write(0, std::vector<std::byte>(10000, std::byte{1}));
  EXPECT_EQ(img.take_soft_dirty().ranges, (Ranges{{0, 10000}}));
}

TEST(ByteImageSoftDirty, TakingClearsAndArmingGivesAFreshToken) {
  ByteImage img(4096);
  img.write(0, std::vector<std::byte>(8, std::byte{1}));  // unarmed: no log
  EXPECT_EQ(img.soft_dirty_token(), 0u);
  EXPECT_EQ(img.take_soft_dirty().token, 0u);
  const u64 t1 = img.arm_soft_dirty();
  EXPECT_TRUE(img.take_soft_dirty().ranges.empty());
  img.write(8, std::vector<std::byte>(8, std::byte{1}));
  EXPECT_EQ(img.take_soft_dirty().ranges, (Ranges{{8, 16}}));
  const auto again = img.take_soft_dirty();
  EXPECT_EQ(again.token, t1);  // still armed
  EXPECT_TRUE(again.ranges.empty());
  img.write(16, std::vector<std::byte>(8, std::byte{1}));
  const u64 t2 = img.arm_soft_dirty();  // re-arming forgets the ranges
  EXPECT_NE(t2, t1);
  EXPECT_NE(ByteImage(16).arm_soft_dirty(), t2);  // unique per process
  const auto log = img.take_soft_dirty();
  EXPECT_EQ(log.token, t2);
  EXPECT_TRUE(log.ranges.empty());
}

TEST(ByteImageSoftDirty, CopiesAndMovesStartUnarmed) {
  ByteImage img(4096);
  const u64 token = img.arm_soft_dirty();
  img.write(0, std::vector<std::byte>(8, std::byte{1}));
  ByteImage copy(img);
  copy.write(100, std::vector<std::byte>(8, std::byte{2}));
  EXPECT_EQ(copy.soft_dirty_token(), 0u);
  EXPECT_TRUE(copy.take_soft_dirty().ranges.empty());
  ByteImage moved(std::move(copy));
  moved.write(200, std::vector<std::byte>(8, std::byte{3}));
  EXPECT_EQ(moved.soft_dirty_token(), 0u);
  EXPECT_TRUE(moved.take_soft_dirty().ranges.empty());
  // The snapshot's writes never reach the live image's log.
  const auto log = img.take_soft_dirty();
  EXPECT_EQ(log.token, token);
  EXPECT_EQ(log.ranges, (Ranges{{0, 8}}));
}

TEST(ByteImageSoftDirty, AssignmentKeepsTheLogAndMarksTheWholeImage) {
  ByteImage img(4096);
  const u64 token = img.arm_soft_dirty();
  ByteImage bigger(10000);
  img = bigger;
  auto log = img.take_soft_dirty();
  EXPECT_EQ(log.token, token);
  EXPECT_EQ(log.ranges, (Ranges{{0, 10000}}));
  EXPECT_EQ(bigger.soft_dirty_token(), 0u);  // the source stays unarmed
  img = ByteImage(2048);  // move-assign: the old extent is marked too
  log = img.take_soft_dirty();
  EXPECT_EQ(log.token, token);
  EXPECT_EQ(log.ranges, (Ranges{{0, 10000}}));
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
  // The soft-dirty log, armed throughout, must mark exactly the bytes the
  // ops touched.
  img.arm_soft_dirty();
  std::vector<bool> touched(size, false);
  for (int op = 0; op < 120; ++op) {
    const u64 off = rng.next_below(size);
    const u64 len = std::min<u64>(1 + rng.next_below(5000), size - off);
    std::fill(touched.begin() + off, touched.begin() + off + len, true);
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
  // Sub-ranges too, half of them starting on an extent boundary.
  std::vector<u64> starts;
  img.for_each_extent(
      [&](u64 start, const ByteImage::Extent&) { starts.push_back(start); });
  for (int q = 0; q < 20; ++q) {
    const u64 off = q % 2 == 0 ? starts[rng.next_below(starts.size())]
                               : rng.next_below(size);
    const u64 len = rng.next_below(std::min<u64>(30000, size - off) + 1);
    const auto part = img.materialize(off, len);
    ASSERT_EQ(part.size(), len);
    EXPECT_TRUE(std::equal(part.begin(), part.end(), ref.begin() + off))
        << "materialize(" << off << ", " << len << ")";
  }
  for (const auto& [buf, bytes] : adopted) {
    EXPECT_EQ(*buf, bytes) << "an adopted buffer was written in place";
  }
  Ranges want;
  for (u64 i = 0; i < size; ++i) {
    if (!touched[i]) continue;
    if (!want.empty() && want.back().second == i) {
      want.back().second = i + 1;
    } else {
      want.emplace_back(i, i + 1);
    }
  }
  EXPECT_EQ(img.take_soft_dirty().ranges, want);
}

// write_owned() against write() over random layouts. Two twins run the
// same ops, so their extents, and which buffers are shared, match; each
// compared write goes to one twin as write() and to the other as
// write_owned(). The layouts mix kZero and kRand extents, unique real
// extents (some slices of a larger buffer), and real extents shared with
// an outside holder or a snapshot copy; the compared ranges lie inside,
// equal or span extents.
struct Twin {
  struct Recorder : ByteImage::WriteObserver {
    std::vector<std::pair<u64, u64>> seen;
    void on_mutate(u64 off, u64 len) override { seen.emplace_back(off, len); }
  } rec;
  ByteImage img;
  std::vector<std::shared_ptr<const std::vector<std::byte>>> held;
  std::vector<ByteImage> snapshots;

  explicit Twin(u64 size) : img(size) {
    img.set_write_observer(&rec);
    img.arm_soft_dirty();
  }
};

// (offset, length, kind, seed) per extent: the layout, without the buffer
// offsets, which only say where in a buffer an extent starts.
using Layout = std::vector<std::tuple<u64, u64, ExtentKind, u64>>;
Layout layout_of(const ByteImage& img) {
  Layout out;
  img.for_each_extent([&](u64 off, const ByteImage::Extent& e) {
    out.emplace_back(off, e.len, e.kind, e.seed);
  });
  return out;
}

std::vector<std::byte> serialized(const ByteImage& img) {
  ByteWriter w;
  img.serialize(w);
  return w.take();
}

// The extent holding `pos`, and where it starts.
std::pair<u64, const ByteImage::Extent*> extent_at(const ByteImage& img,
                                                   u64 pos) {
  std::pair<u64, const ByteImage::Extent*> hit{0, nullptr};
  img.for_each_extent([&](u64 off, const ByteImage::Extent& e) {
    if (off <= pos && pos < off + e.len) hit = {off, &e};
  });
  return hit;
}

TEST_P(ByteImageFuzz, WriteOwnedMatchesWrite) {
  Rng rng(GetParam());
  const u64 size = 2 + rng.next_below(60000);
  Twin by_copy(size), by_owned(size);
  Twin* twins[2] = {&by_copy, &by_owned};
  auto any_range = [&] {
    const u64 off = rng.next_below(size);
    return std::pair<u64, u64>{
        off, std::min<u64>(1 + rng.next_below(5000), size - off)};
  };
  // Compared writes by outcome: replaced and adopted, one whole unique
  // extent adopted, copied in place.
  int replaced = 0, swapped = 0, copied = 0;
  for (int op = 0; op < 200; ++op) {
    const u64 kind = rng.next_below(10);
    if (kind < 6) {  // build the layout, the same on both twins
      const auto [off, len] = any_range();
      const u64 seed = rng.next_u64();
      const std::vector<std::byte> data = test::pseudo_bytes(len, seed);
      const bool snapshot = rng.next_below(2) == 0;
      for (Twin* t : twins) {
        switch (kind) {
          case 0:
            t->img.fill(off, len, ExtentKind::kZero);
            break;
          case 1:
            t->img.fill(off, len, ExtentKind::kRand, seed);
            break;
          case 2:
          case 3:  // a unique real extent
            t->img.write(off, data);
            break;
          case 4: {  // a real extent shared with an outside holder
            auto buf = std::make_shared<std::vector<std::byte>>(data);
            t->held.push_back(buf);
            t->img.adopt(off, std::move(buf));
            break;
          }
          case 5:  // every extent shared with a snapshot, or none again
            if (t->snapshots.size() < 2 && snapshot) {
              t->snapshots.push_back(t->img);
            } else {
              t->held.clear();
              t->snapshots.clear();
            }
            break;
        }
      }
      continue;
    }
    // A compared write over a range inside, equal to or spanning extents.
    std::vector<std::pair<u64, u64>> exts;
    by_owned.img.for_each_extent([&](u64 off, const ByteImage::Extent& e) {
      exts.emplace_back(off, off + e.len);
    });
    const auto [first, first_end] = exts[rng.next_below(exts.size())];
    u64 off = 0, end = 0;
    switch (rng.next_below(4)) {
      case 0:  // equal
        off = first;
        end = first_end;
        break;
      case 1:  // inside, not equal
        off = first + rng.next_below(first_end - first);
        end = off + 1 + rng.next_below(first_end - off);
        if (off == first && end == first_end && end - off > 1) --end;
        break;
      case 2: {  // from inside one extent to inside a later one
        const auto [last, last_end] = exts[rng.next_below(exts.size())];
        off = first + rng.next_below(first_end - first);
        end = std::max(off + 1, last + 1 + rng.next_below(last_end - last));
        break;
      }
      default:
        std::tie(off, end) = any_range();
        end += off;
        break;
    }
    const u64 len = end - off;
    const std::vector<std::byte> data = test::pseudo_bytes(len, rng.next_u64());

    // What write() does: copy in place when one unique real extent covers
    // the range, else replace the range. write_owned() must adopt exactly
    // where either leaves the extent a new buffer would.
    const auto [start, cov] = extent_at(by_owned.img, off);
    const bool in_place = cov->kind == ExtentKind::kReal &&
                          cov->data.use_count() == 1 &&
                          end <= start + cov->len;
    const bool whole = off == start && len == cov->len;
    const bool want_adopt = !in_place || whole;
    const void* const prior = cov->data.get();

    std::vector<std::byte> owned = data;
    const std::byte* const buffer = owned.data();
    by_copy.img.write(off, data);
    ASSERT_EQ(by_owned.img.write_owned(off, std::move(owned)), want_adopt)
        << "op " << op << " [" << off << ", " << end << ")";
    const auto [at, got] = extent_at(by_owned.img, off);
    if (want_adopt) {
      EXPECT_EQ(at, off);
      EXPECT_EQ(got->len, len);
      EXPECT_EQ(got->data->data(), buffer) << "the buffer was not kept";
      EXPECT_EQ(got->data_off, 0u);
      ++(in_place ? swapped : replaced);
    } else {
      EXPECT_EQ(got->data.get(), prior) << "the extent's buffer changed";
      ++copied;
    }
    ASSERT_EQ(layout_of(by_owned.img), layout_of(by_copy.img)) << "op " << op;
    ASSERT_EQ(serialized(by_owned.img), serialized(by_copy.img))
        << "op " << op;
    for (size_t i = 0; i < by_copy.snapshots.size(); ++i) {
      ASSERT_EQ(serialized(by_owned.snapshots[i]),
                serialized(by_copy.snapshots[i]))
          << "a snapshot's shared buffer was written";
    }
  }
  EXPECT_GT(replaced, 0);
  EXPECT_GT(swapped, 0);
  EXPECT_GT(copied, 0);
  EXPECT_EQ(by_owned.rec.seen, by_copy.rec.seen);
  EXPECT_EQ(by_owned.img.take_soft_dirty().ranges,
            by_copy.img.take_soft_dirty().ranges);
  EXPECT_EQ(by_owned.img.materialize(0, size),
            by_copy.img.materialize(0, size));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ByteImageFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12));

}  // namespace
}  // namespace dsim::sim
