// The incremental content-addressed checkpoint store: chunking, dedup
// across generations, GC retention, corrupted-chunk detection, and full
// delta-restart round trips through the DMTCP stack.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "ckptstore/cdc.h"
#include "ckptstore/chunk.h"
#include "ckptstore/manifest.h"
#include "ckptstore/repository.h"
#include "core/launch.h"
#include "mtcp/mtcp.h"
#include "sim/cluster.h"
#include "tests/testprogs.h"
#include "tests/testutil.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace dsim::test {
namespace {

using core::DmtcpControl;
using core::DmtcpOptions;
using sim::ByteImage;
using sim::ExtentKind;

constexpr u64 kChunk = 4 * 1024;
// pseudo_bytes / fixed_params / cdc_params come from tests/testutil.h.

/// A process image with one mixed segment: real content, a zero run, a
/// pseudo-random (ballast) run.
mtcp::ProcessImage make_image(u64 bytes, u64 content_seed) {
  mtcp::ProcessImage img;
  img.prog_name = "prog";
  img.argv = {"arg0"};
  img.env["HOME"] = "/";
  img.virt_pid = 7;
  img.virt_ppid = 1;
  img.origin_node = 0;
  mtcp::SegmentImage s;
  s.name = "heap";
  s.kind = sim::MemKind::kHeap;
  s.data = ByteImage(bytes);
  s.data.write(0, pseudo_bytes(bytes / 2, content_seed));
  s.data.fill(bytes / 2, bytes / 4, ExtentKind::kZero);
  s.data.fill(3 * bytes / 4, bytes / 4, ExtentKind::kRand, 0xBA11A57);
  img.segments.push_back(std::move(s));
  mtcp::ThreadImage t;
  t.kind = sim::ThreadKind::kMain;
  img.threads.push_back(t);
  img.dmtcp_blob = {std::byte{0xAB}, std::byte{0xCD}};
  return img;
}

void expect_images_equal(const mtcp::ProcessImage& a,
                         const mtcp::ProcessImage& b) {
  EXPECT_EQ(a.prog_name, b.prog_name);
  EXPECT_EQ(a.argv, b.argv);
  EXPECT_EQ(a.env, b.env);
  EXPECT_EQ(a.virt_pid, b.virt_pid);
  EXPECT_EQ(a.dmtcp_blob, b.dmtcp_blob);
  ASSERT_EQ(a.segments.size(), b.segments.size());
  for (size_t i = 0; i < a.segments.size(); ++i) {
    EXPECT_EQ(a.segments[i].name, b.segments[i].name);
    ASSERT_EQ(a.segments[i].data.size(), b.segments[i].data.size());
    EXPECT_EQ(a.segments[i].data.content_crc(),
              b.segments[i].data.content_crc());
  }
  ASSERT_EQ(a.threads.size(), b.threads.size());
}

// --- chunking ---------------------------------------------------------------

TEST(Chunker, PatternSpansAvoidMaterialization) {
  ByteImage img(16 * kChunk);
  img.fill(0, 8 * kChunk, ExtentKind::kZero);
  img.fill(8 * kChunk, 4 * kChunk, ExtentKind::kRand, 42);
  img.write(12 * kChunk, pseudo_bytes(4 * kChunk, 1));
  auto spans = ckptstore::scan_chunks(img, kChunk);
  ASSERT_EQ(spans.size(), 16u);
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(spans[i].kind, ExtentKind::kZero);
  for (size_t i = 8; i < 12; ++i) EXPECT_EQ(spans[i].kind, ExtentKind::kRand);
  for (size_t i = 12; i < 16; ++i) EXPECT_EQ(spans[i].kind, ExtentKind::kReal);
  // Identical zero chunks share one key; rand chunks differ by position.
  EXPECT_EQ(ckptstore::span_key(img, spans[0]),
            ckptstore::span_key(img, spans[1]));
  EXPECT_FALSE(ckptstore::span_key(img, spans[8]) ==
               ckptstore::span_key(img, spans[9]));
}

TEST(Chunker, KeysAreStableAcrossIdenticalImages) {
  auto a = make_image(64 * kChunk, 7);
  auto b = make_image(64 * kChunk, 7);
  auto sa = ckptstore::scan_chunks(a.segments[0].data, kChunk);
  auto sb = ckptstore::scan_chunks(b.segments[0].data, kChunk);
  ASSERT_EQ(sa.size(), sb.size());
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(ckptstore::span_key(a.segments[0].data, sa[i]),
              ckptstore::span_key(b.segments[0].data, sb[i]));
  }
}

TEST(Chunker, RejectsBadChunkSizes) {
  ByteImage img(kChunk);
  EXPECT_DEATH(ckptstore::scan_chunks(img, 0), "power of two");
  EXPECT_DEATH(ckptstore::scan_chunks(img, 3000), "power of two");
}

// --- content-defined chunking ------------------------------------------------

std::set<ckptstore::ChunkKey> key_set(const ByteImage& img,
                                      const std::vector<ckptstore::ChunkSpan>&
                                          spans) {
  std::set<ckptstore::ChunkKey> keys;
  for (const auto& s : spans) keys.insert(ckptstore::span_key(img, s));
  return keys;
}

size_t count_new_keys(const std::set<ckptstore::ChunkKey>& before,
                      const ByteImage& img,
                      const std::vector<ckptstore::ChunkSpan>& spans) {
  size_t fresh = 0;
  for (const auto& s : spans) {
    if (!before.count(ckptstore::span_key(img, s))) fresh++;
  }
  return fresh;
}

TEST(Cdc, SpansRespectBoundsAndCoverTheImage) {
  const auto p = cdc_params(1024, 4096, 16 * 1024);
  ByteImage img(300 * 1024);
  img.write(0, pseudo_bytes(300 * 1024, 21));
  const auto spans = ckptstore::scan_chunks_cdc(img, p);
  u64 off = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].off, off);
    EXPECT_LE(spans[i].len, p.max_bytes);
    if (i + 1 < spans.size()) {
      EXPECT_GE(spans[i].len, p.min_bytes);
    }
    off += spans[i].len;
  }
  EXPECT_EQ(off, img.size());
  // The cutpoint mask should give chunks in the right ballpark: well more
  // than size/max of them, well fewer than size/min.
  EXPECT_GT(spans.size(), img.size() / p.max_bytes);
  EXPECT_LT(spans.size(), img.size() / p.min_bytes + 1);
}

TEST(Cdc, CutpointsAreStableAcrossIdenticalContent) {
  const auto p = cdc_params(1024, 4096, 16 * 1024);
  ByteImage a(64 * kChunk), b(64 * kChunk);
  a.write(0, pseudo_bytes(64 * kChunk, 9));
  b.write(0, pseudo_bytes(64 * kChunk, 9));
  EXPECT_EQ(key_set(a, ckptstore::scan_chunks_cdc(a, p)),
            key_set(b, ckptstore::scan_chunks_cdc(b, p)));
}

TEST(Cdc, InsertionResynchronizesAtTheNextCutpoint) {
  // Insert K bytes near the front of a 1 MiB real-content image. Fixed
  // chunking invalidates every downstream chunk (O(image/chunk) new keys);
  // CDC cutpoints resynchronize within one chunk, so only O(1) change.
  const u64 kImage = 1024 * 1024;
  const u64 kInsertAt = 1000;
  const auto content = pseudo_bytes(kImage, 33);
  const auto inserted = pseudo_bytes(16, 0xF00D);

  ByteImage before(kImage);
  before.write(0, content);
  std::vector<std::byte> shifted;
  shifted.insert(shifted.end(), content.begin(),
                 content.begin() + kInsertAt);
  shifted.insert(shifted.end(), inserted.begin(), inserted.end());
  shifted.insert(shifted.end(), content.begin() + kInsertAt, content.end());
  ByteImage after(shifted.size());
  after.write(0, shifted);

  const auto p = cdc_params(1024, 4096, 16 * 1024);
  const auto cdc_before = key_set(before, ckptstore::scan_chunks_cdc(before,
                                                                     p));
  const auto cdc_spans = ckptstore::scan_chunks_cdc(after, p);
  const size_t cdc_new = count_new_keys(cdc_before, after, cdc_spans);
  EXPECT_LE(cdc_new, 4u);  // O(1): the chunk(s) spanning the insertion

  const auto fix_before = key_set(before, ckptstore::scan_chunks(before,
                                                                 kChunk));
  const auto fix_spans = ckptstore::scan_chunks(after, kChunk);
  const size_t fix_new = count_new_keys(fix_before, after, fix_spans);
  EXPECT_GE(fix_new, fix_spans.size() * 9 / 10);  // O(image/chunk)
}

TEST(Cdc, PatternExtentsStayDescriptorsAndCutAtTheirEdges) {
  const auto p = cdc_params(1024, 4096, 16 * 1024);
  ByteImage img(64 * kChunk);
  img.write(0, pseudo_bytes(10 * kChunk, 5));
  img.fill(10 * kChunk, 30 * kChunk, ExtentKind::kZero);
  img.fill(40 * kChunk, 8 * kChunk, ExtentKind::kRand, 0xABC);
  img.write(48 * kChunk, pseudo_bytes(16 * kChunk, 6));
  const auto spans = ckptstore::scan_chunks_cdc(img, p);
  u64 zero_bytes = 0, rand_bytes = 0, real_bytes = 0;
  for (const auto& s : spans) {
    switch (s.kind) {
      case ExtentKind::kZero: zero_bytes += s.len; break;
      case ExtentKind::kRand: rand_bytes += s.len; break;
      case ExtentKind::kReal: real_bytes += s.len; break;
    }
    EXPECT_LE(s.len, p.max_bytes);
  }
  // Pattern runs are cut exactly at their extent edges: no pattern byte is
  // ever materialized into a real span, and vice versa.
  EXPECT_EQ(zero_bytes, 30 * kChunk);
  EXPECT_EQ(rand_bytes, 8 * kChunk);
  EXPECT_EQ(real_bytes, 26 * kChunk);
}

TEST(Cdc, RejectsInconsistentBounds) {
  ByteImage img(kChunk);
  EXPECT_DEATH(ckptstore::scan_chunks_cdc(img, cdc_params(8192, 4096, 16384)),
               "min <= avg <= max");
  EXPECT_DEATH(ckptstore::scan_chunks_cdc(img, cdc_params(1024, 3000, 16384)),
               "power of two");
}

// --- dedup across generations ----------------------------------------------

TEST(CkptStore, UnchangedImageStoresOnlyTheManifest) {
  ckptstore::Repository repo;
  const auto img = make_image(256 * kChunk, 3);
  const auto codec = compress::CodecKind::kNone;

  auto g1 =
      mtcp::encode_incremental(img, codec, fixed_params(kChunk), "7", 0, repo);
  EXPECT_EQ(g1.new_chunks + repo.stats().dedup_hits, g1.total_chunks);
  EXPECT_GT(g1.new_chunk_bytes, 0u);

  auto g2 =
      mtcp::encode_incremental(img, codec, fixed_params(kChunk), "7", 1, repo);
  EXPECT_EQ(g2.new_chunks, 0u);
  EXPECT_EQ(g2.new_chunk_bytes, 0u);
  EXPECT_EQ(g2.submitted_bytes, g2.manifest_bytes.size());
  // Dedup ratio: two generations of logical bytes, one of stored.
  EXPECT_GT(repo.stats().dedup_ratio(), 1.8);
}

TEST(CkptStore, DirtyFractionBoundsNewBytes) {
  ckptstore::Repository repo;
  auto img = make_image(256 * kChunk, 3);
  const auto codec = compress::CodecKind::kNone;
  auto g1 =
      mtcp::encode_incremental(img, codec, fixed_params(kChunk), "7", 0, repo);

  // Dirty ~10% of the segment (chunk-aligned, in the real-content half).
  img.segments[0].data.write(4 * kChunk, pseudo_bytes(26 * kChunk, 999));
  auto g2 =
      mtcp::encode_incremental(img, codec, fixed_params(kChunk), "7", 1, repo);
  EXPECT_GT(g2.new_chunks, 0u);
  EXPECT_LT(g2.submitted_bytes, g1.submitted_bytes / 4);
}

// --- round trip --------------------------------------------------------------

TEST(CkptStore, DeltaDecodeEqualsFullDecode) {
  ckptstore::Repository repo;
  const auto img = make_image(64 * kChunk, 11);
  const auto codec = compress::CodecKind::kGzipish;

  // Full path.
  auto enc = mtcp::encode(img, codec);
  auto full = mtcp::decode(enc.bytes, codec, nullptr);

  // Incremental path.
  auto delta = mtcp::encode_incremental(img, codec, fixed_params(kChunk),
                                        "7", 0, repo);
  auto mf = ckptstore::Manifest::decode(delta.manifest_bytes);
  std::string err;
  u64 reads = 0;
  auto inc = mtcp::decode_incremental(mf, repo, nullptr, &reads, &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_GT(reads, 0u);
  expect_images_equal(full, inc);
  expect_images_equal(img, inc);

  // A second restore decodes nothing: every real extent shares the buffer
  // the first restore adopted from the chunk's decode cache.
  auto again = mtcp::decode_incremental(mf, repo, nullptr, nullptr, &err);
  ASSERT_TRUE(err.empty()) << err;
  expect_images_equal(img, again);
  const auto real_buffers = [](const ByteImage& data) {
    std::vector<std::pair<u64, const std::vector<std::byte>*>> out;
    data.for_each_extent([&](u64 off, const ByteImage::Extent& e) {
      if (e.kind == ExtentKind::kReal) out.emplace_back(off, e.data.get());
    });
    return out;
  };
  ASSERT_EQ(again.segments.size(), inc.segments.size());
  size_t shared = 0;
  for (size_t s = 0; s < inc.segments.size(); ++s) {
    const auto first = real_buffers(inc.segments[s].data);
    EXPECT_EQ(real_buffers(again.segments[s].data), first)
        << "segment " << inc.segments[s].name;
    shared += first.size();
  }
  EXPECT_GT(shared, 0u);
}

// --- soft-dirty rescans -----------------------------------------------------

using Ranges = std::vector<std::pair<u64, u64>>;

/// A one-segment process image around a snapshot of the live segment: a
/// copy, unarmed, as mtcp::capture() takes it.
mtcp::ProcessImage snapshot_of(const ByteImage& live) {
  mtcp::ProcessImage img;
  img.prog_name = "prog";
  img.virt_pid = 7;
  mtcp::SegmentImage s;
  s.name = "heap";
  s.data = live;
  img.segments.push_back(std::move(s));
  return img;
}

/// Constant bytes: the gear hash settles and never cuts, so every span of
/// such a run is a forced max_bytes cut.
std::vector<std::byte> flat_bytes(u64 n) {
  return std::vector<std::byte>(n, std::byte{0x41});
}

/// Records mutations the way the async COW tracker observes them.
struct MutationLog : ByteImage::WriteObserver {
  Ranges seen;
  void on_mutate(u64 off, u64 len) override {
    seen.emplace_back(off, off + len);
  }
  /// Sorted, with overlapping and touching ranges merged; clears.
  Ranges take() {
    std::sort(seen.begin(), seen.end());
    Ranges out;
    for (const auto& [b, e] : seen) {
      if (!out.empty() && b <= out.back().second) {
        out.back().second = std::max(out.back().second, e);
      } else {
        out.emplace_back(b, e);
      }
    }
    seen.clear();
    return out;
  }
};

/// A live segment with every run shape the scanners distinguish: real
/// content, long zero and pseudo-random pattern extents that stand alone,
/// a short pattern extent folded into a real run, and flat bytes.
ByteImage rescan_live_image(u64 seed) {
  ByteImage live(256 * 1024);
  live.write(0, pseudo_bytes(96 * 1024, seed));
  live.fill(96 * 1024, 40 * 1024, ExtentKind::kZero);
  live.write(136 * 1024, flat_bytes(40 * 1024));
  live.fill(176 * 1024, 512, ExtentKind::kRand, 5);
  live.write(176 * 1024 + 512, pseudo_bytes(24 * 1024 - 512, seed + 1));
  live.fill(200 * 1024, 56 * 1024, ExtentKind::kRand, 0xBA11A57);
  return live;
}

ckptstore::ChunkingParams rescan_params(ckptstore::ChunkingMode mode) {
  // max = 2 * avg makes forced max_bytes cuts common in real runs too.
  return mode == ckptstore::ChunkingMode::kFixed
             ? fixed_params(4096)
             : cdc_params(1024, 4096, mode == ckptstore::ChunkingMode::kCdc
                                           ? 8192
                                           : 16384,
                          mode);
}

using RescanCase = std::tuple<ckptstore::ChunkingMode, u64>;

class RescanFuzz : public ::testing::TestWithParam<RescanCase> {};

std::string rescan_case_name(
    const ::testing::TestParamInfo<RescanCase>& info) {
  static const char* const kModes[] = {"Fixed", "Cdc", "FastCdc"};
  return kModes[static_cast<int>(std::get<0>(info.param))] +
         ("_" + std::to_string(std::get<1>(info.param)));
}

// Between generations the live segment is written, filled, adopted into,
// resized and copy-assigned — at extent and run edges, inside pattern
// extents and across forced max_bytes cuts — while a write observer is
// armed beside the soft-dirty log. Every generation's spans, keys and
// manifest must equal a scan without the memo.
TEST_P(RescanFuzz, EveryGenerationEqualsAScanWithoutTheMemo) {
  const auto [mode, seed] = GetParam();
  const auto p = rescan_params(mode);
  const auto codec = compress::CodecKind::kNone;
  Rng rng(mix_seed(seed, static_cast<u64>(mode)));
  ByteImage live = rescan_live_image(seed);
  MutationLog observed;
  live.set_write_observer(&observed);
  mtcp::SegmentMemo memo;
  mtcp::SegmentMemo* const memos[] = {&memo};
  ckptstore::Repository with_repo, without_repo;
  u64 rescanned = 0, scanned = 0;

  // [off, off + len) clipped to the image, len >= 1.
  auto clip = [&](u64 off, u64 len) {
    off = std::min(off, live.size() - 1);
    return std::make_pair(off, std::max<u64>(1, std::min(len,
                                                         live.size() - off)));
  };
  auto write_at = [&](ByteImage& img, u64 off, u64 len) {
    img.write(off, pseudo_bytes(len, rng.next_u64()));
  };
  auto mutate = [&] {
    const u64 size = live.size();
    switch (rng.next_below(9)) {
      case 0: {  // anywhere
        const auto [off, len] = clip(rng.next_below(size),
                                     1 + rng.next_below(6000));
        write_at(live, off, len);
        break;
      }
      case 1: {  // straddling or starting at an extent (run) edge
        std::vector<u64> edges;
        live.for_each_extent([&](u64 off, const ByteImage::Extent&) {
          if (off > 0) edges.push_back(off);
        });
        if (edges.empty()) break;
        const u64 edge = edges[rng.next_below(edges.size())];
        // Starting at the edge grows a run past its clean final span.
        const u64 before = rng.next_below(2) == 0
                               ? 0
                               : std::min<u64>(edge, rng.next_below(300));
        const auto [off, len] = clip(edge - before,
                                     before + rng.next_below(300));
        write_at(live, off, len);
        break;
      }
      case 2: {  // inside a pattern extent
        std::vector<std::pair<u64, u64>> patterns;
        live.for_each_extent([&](u64 off, const ByteImage::Extent& e) {
          if (e.kind != ExtentKind::kReal) patterns.emplace_back(off, e.len);
        });
        if (patterns.empty()) break;
        const auto [at, n] = patterns[rng.next_below(patterns.size())];
        const auto [off, len] = clip(at + rng.next_below(n),
                                     1 + rng.next_below(2000));
        if (rng.next_below(2) == 0) {
          write_at(live, off, len);
        } else {
          live.fill(off, len, ExtentKind::kRand, rng.next_u64());
        }
        break;
      }
      case 3: {  // across the end of a previous forced max_bytes cut
        std::vector<u64> cuts;
        for (const auto& s : memo.spans) {
          if (s.kind == ExtentKind::kReal && s.len == p.max_bytes) {
            cuts.push_back(s.off + s.len);
          }
        }
        if (mode == ckptstore::ChunkingMode::kFixed) {
          for (const auto& s : memo.spans) cuts.push_back(s.off + s.len);
        }
        if (cuts.empty()) break;
        const u64 cut = cuts[rng.next_below(cuts.size())];
        const u64 before = std::min<u64>(cut, 1 + rng.next_below(200));
        const auto [off, len] = clip(cut - before,
                                     before + rng.next_below(200));
        write_at(live, off, len);
        break;
      }
      case 4: {  // pattern fill, short or long enough to stand alone
        const auto [off, len] = clip(rng.next_below(size),
                                     1 + rng.next_below(40000));
        if (rng.next_below(2) == 0) {
          live.fill(off, len, ExtentKind::kZero);
        } else {
          live.fill(off, len, ExtentKind::kRand, rng.next_u64());
        }
        break;
      }
      case 5: {  // adopt a shared buffer
        const auto [off, len] = clip(rng.next_below(size),
                                     1 + rng.next_below(8000));
        live.adopt(off, std::make_shared<std::vector<std::byte>>(
                            pseudo_bytes(len, rng.next_u64())));
        break;
      }
      case 6: {  // grow or shrink
        const u64 delta = 1 + rng.next_below(20000);
        live.resize(rng.next_below(2) == 0 || size < 96 * 1024
                        ? size + delta
                        : size - delta);
        break;
      }
      case 7: {  // copy-assign a modified copy over the live segment
        ByteImage other = live;
        const auto [off, len] = clip(rng.next_below(size),
                                     1 + rng.next_below(3000));
        write_at(other, off, len);
        live = other;
        break;
      }
      case 8: {  // flat bytes: forced max_bytes cuts
        const auto [off, len] = clip(rng.next_below(size),
                                     5000 + rng.next_below(25000));
        live.write(off, flat_bytes(len));
        break;
      }
    }
  };

  for (int gen = 0; gen < 24; ++gen) {
    const bool quiet = gen > 0 && rng.next_below(6) == 0;
    if (gen > 0 && !quiet) {
      for (u64 m = 1 + rng.next_below(4); m > 0; --m) mutate();
    }
    memo.capture(live);
    // The log saw exactly what the observer saw.
    ASSERT_EQ(memo.dirty, gen == 0 ? Ranges{} : observed.take())
        << "generation " << gen;
    observed.seen.clear();

    const auto img = snapshot_of(live);
    const auto with = mtcp::encode_incremental(img, codec, p, "7", gen,
                                               with_repo, memos);
    const auto without =
        mtcp::encode_incremental(img, codec, p, "7", gen, without_repo);
    const ByteImage& data = img.segments[0].data;
    const auto spans = ckptstore::scan_chunks_with(data, p);
    ASSERT_EQ(memo.spans, spans) << "generation " << gen;
    std::vector<ckptstore::ChunkKey> keys;
    for (const auto& s : spans) keys.push_back(ckptstore::span_key(data, s));
    ASSERT_EQ(memo.keys, keys) << "generation " << gen;
    ASSERT_EQ(with.manifest_bytes, without.manifest_bytes)
        << "generation " << gen;
    // The model is the full scan either way.
    EXPECT_EQ(with.assemble_seconds, without.assemble_seconds);
    EXPECT_EQ(with.scan_real_bytes, without.scan_real_bytes);
    EXPECT_EQ(without.rescanned_bytes, without.scan_real_bytes);
    EXPECT_LE(with.rescanned_bytes, with.scan_real_bytes);
    if (quiet) {
      EXPECT_EQ(with.rescanned_bytes, 0u) << "generation " << gen;
    }
    if (gen > 0) {
      rescanned += with.rescanned_bytes;
      scanned += with.scan_real_bytes;
    }
  }
  // The memo saved work: most real bytes repeated their spans and keys.
  EXPECT_LT(rescanned, scanned / 2);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSeeds, RescanFuzz,
    ::testing::Combine(::testing::Values(ckptstore::ChunkingMode::kFixed,
                                         ckptstore::ChunkingMode::kCdc,
                                         ckptstore::ChunkingMode::kFastCdc),
                       ::testing::Values(1, 2, 3, 4)),
    rescan_case_name);

// A missing memo, a replaced segment, a capture whose encode never ran and
// new chunking parameters are all the all-dirty case: the scan reads every
// real byte, and still yields the memo-less manifest.
TEST(Rescan, EveryInvalidMemoScansEverything) {
  const auto codec = compress::CodecKind::kNone;
  const auto p = rescan_params(ckptstore::ChunkingMode::kCdc);
  ByteImage live = rescan_live_image(9);
  mtcp::SegmentMemo memo;
  mtcp::SegmentMemo* const memos[] = {&memo};
  ckptstore::Repository repo;
  int gen = 0;
  auto encode = [&](const ckptstore::ChunkingParams& params) {
    const auto img = snapshot_of(live);
    auto with = mtcp::encode_incremental(img, codec, params, "7", gen, repo,
                                         memos);
    ckptstore::Repository fresh;
    const auto without =
        mtcp::encode_incremental(img, codec, params, "7", gen, fresh);
    EXPECT_EQ(with.manifest_bytes, without.manifest_bytes);
    ++gen;
    return with;
  };
  auto full = [](const mtcp::EncodedDelta& d) {
    return d.rescanned_bytes == d.scan_real_bytes && d.rescanned_bytes > 0;
  };
  memo.capture(live);
  EXPECT_TRUE(full(encode(p)));  // no memo yet
  memo.capture(live);
  EXPECT_EQ(encode(p).rescanned_bytes, 0u);  // nothing written

  memo.capture(live);  // a capture whose encode never ran
  live.write(0, pseudo_bytes(100, 1));
  memo.capture(live);
  EXPECT_TRUE(full(encode(p)));

  ByteImage replaced = live;  // a new segment under the old name: unarmed
  memo.capture(replaced);
  EXPECT_TRUE(full(encode(p)));

  memo.capture(replaced);
  auto other = p;
  other.min_bytes = 2048;  // new chunking parameters
  EXPECT_TRUE(full(encode(other)));
  memo.capture(replaced);
  EXPECT_EQ(encode(other).rescanned_bytes, 0u);

  // A shared segment ignores its memo.
  auto img = snapshot_of(replaced);
  img.segments[0].shared = true;
  memo.capture(replaced);
  EXPECT_TRUE(full(mtcp::encode_incremental(img, codec, other, "7", gen++,
                                            repo, memos)));
}

// A repeated key still goes through the repository: in a store that never
// saw it, the chunk is materialized and stored exactly as a full scan would.
TEST(Rescan, RepeatedKeyMissingFromTheRepositoryIsStored) {
  const auto codec = compress::CodecKind::kGzipish;
  const auto p = rescan_params(ckptstore::ChunkingMode::kCdc);
  ByteImage live = rescan_live_image(4);
  mtcp::SegmentMemo memo;
  mtcp::SegmentMemo* const memos[] = {&memo};
  ckptstore::Repository first, second, reference;
  memo.capture(live);
  mtcp::encode_incremental(snapshot_of(live), codec, p, "7", 0, first,
                           memos);
  memo.capture(live);
  const auto img = snapshot_of(live);
  const auto with =
      mtcp::encode_incremental(img, codec, p, "7", 1, second, memos);
  const auto without =
      mtcp::encode_incremental(img, codec, p, "7", 1, reference);
  EXPECT_EQ(with.rescanned_bytes, 0u);
  EXPECT_EQ(with.new_chunks, without.new_chunks);
  EXPECT_EQ(with.new_chunk_bytes, without.new_chunk_bytes);
  EXPECT_EQ(with.manifest_bytes, without.manifest_bytes);
  std::string err;
  const auto back = mtcp::decode_incremental(
      ckptstore::Manifest::decode(with.manifest_bytes), second, nullptr,
      nullptr, &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_EQ(back.segments[0].data.content_crc(), live.content_crc());
}

// A descriptor span is built from its extent alone, so the scan reads
// nothing either way; with a clean prior span identical to it (offset,
// length, kind and seed) it reports the prior index, as a repeated real
// span does, so the encoder can vouch for its key. A re-filled extent is
// dirty, and a clean prior span of another seed is not the same span.
TEST(Rescan, CleanDescriptorSpansReportTheirPriorIndex) {
  constexpr u64 kRandOff = 200 * 1024;
  constexpr u64 kRandLen = 56 * 1024;
  constexpr u64 kRandSeed = 0xBA11A57;  // rescan_live_image's rand extent
  for (const auto mode :
       {ckptstore::ChunkingMode::kCdc, ckptstore::ChunkingMode::kFastCdc}) {
    const auto p = rescan_params(mode);
    ByteImage live = rescan_live_image(3);
    const auto prior = ckptstore::scan_chunks_cdc(live, p);
    std::vector<u32> from;
    ASSERT_EQ(ckptstore::scan_chunks_cdc(live, p, {prior, {}}, &from), prior);
    size_t zero = 0, rand = 0;
    for (size_t i = 0; i < prior.size(); ++i) {
      if (prior[i].kind == ExtentKind::kReal) continue;
      (prior[i].kind == ExtentKind::kZero ? zero : rand)++;
      EXPECT_EQ(from[i], i) << "span @" << prior[i].off;
    }
    ASSERT_GE(zero, 2u);
    ASSERT_GE(rand, 2u);

    // The rand extent re-filled with its own seed: same spans, all dirty.
    live.arm_soft_dirty();
    live.fill(kRandOff, kRandLen, ExtentKind::kRand, kRandSeed);
    const auto log = live.take_soft_dirty();
    ASSERT_EQ(ckptstore::scan_chunks_cdc(live, p, {prior, log.ranges}, &from),
              prior);
    for (size_t i = 0; i < prior.size(); ++i) {
      if (prior[i].kind == ExtentKind::kReal) continue;
      EXPECT_EQ(from[i], prior[i].off >= kRandOff ? ckptstore::kFreshSpan
                                                  : static_cast<u32>(i))
          << "span @" << prior[i].off;
    }

    // A clean prior holding other content at the same offsets.
    ByteImage other = rescan_live_image(3);
    other.fill(kRandOff, kRandLen, ExtentKind::kRand, kRandSeed + 1);
    const auto other_prior = ckptstore::scan_chunks_cdc(other, p);
    ckptstore::scan_chunks_cdc(live, p, {other_prior, {}}, &from);
    for (size_t i = 0; i < prior.size(); ++i) {
      if (prior[i].off >= kRandOff) {
        EXPECT_EQ(from[i], ckptstore::kFreshSpan) << "span @" << prior[i].off;
      }
    }
  }
}

// The encoder vouches for a dedup hit (EncodedDelta::dup_known) only where
// the scan repeated a clean span of the segment's previous generation:
// its key is then in this writer's previous manifest. A span the process
// wrote is not vouched for, even with the same bytes, and which hits are
// known never changes the manifest.
TEST(Rescan, OnlyDupsOnUnwrittenSpansAreKnown) {
  const auto codec = compress::CodecKind::kNone;
  const auto p = rescan_params(ckptstore::ChunkingMode::kCdc);
  ByteImage live = rescan_live_image(6);
  mtcp::SegmentMemo memo;
  mtcp::SegmentMemo* const memos[] = {&memo};
  ckptstore::Repository repo, reference;
  int gen = 0;
  auto encode = [&] {
    memo.capture(live);
    const auto img = snapshot_of(live);
    auto with = mtcp::encode_incremental(img, codec, p, "7", gen, repo,
                                         memos);
    const auto without =
        mtcp::encode_incremental(img, codec, p, "7", gen, reference);
    EXPECT_EQ(with.manifest_bytes, without.manifest_bytes);
    EXPECT_EQ(with.dup_chunks, without.dup_chunks);
    EXPECT_EQ(with.dup_known.size(), with.dup_chunks.size());
    EXPECT_EQ(without.dup_known,
              std::vector<bool>(without.dup_chunks.size(), false));
    ++gen;
    return with;
  };
  encode();

  // One real page rewritten with its own bytes: the scan cuts the same
  // spans, so every reference is a dup, and exactly the ones over the page
  // are not known.
  constexpr u64 kPageOff = 40 * 1024;
  constexpr u64 kPageLen = 4096;
  live.write(kPageOff, live.materialize(kPageOff, kPageLen));
  const auto one_page = encode();
  ASSERT_EQ(one_page.new_chunks, 0u);
  ASSERT_EQ(one_page.dup_chunks.size(), memo.spans.size());
  size_t written = 0, known = 0;
  for (size_t i = 0; i < memo.spans.size(); ++i) {
    const ckptstore::ChunkSpan& s = memo.spans[i];
    const bool on_page =
        s.off < kPageOff + kPageLen && kPageOff < s.off + s.len;
    EXPECT_EQ(one_page.dup_known[i], !on_page) << "span @" << s.off;
    written += on_page;
    known += one_page.dup_known[i];
  }
  EXPECT_GE(written, 1u);
  EXPECT_GT(known, 0u);

  // Every extent rewritten in place with its own content: no reference is
  // known.
  std::vector<std::tuple<u64, u64, ExtentKind, u64>> exts;
  live.for_each_extent([&](u64 off, const ByteImage::Extent& e) {
    exts.emplace_back(off, e.len, e.kind, e.seed);
  });
  for (const auto& [off, len, kind, seed] : exts) {
    if (kind == ExtentKind::kReal) {
      live.write(off, live.materialize(off, len));
    } else {
      live.fill(off, len, kind, seed);
    }
  }
  const auto every_page = encode();
  ASSERT_EQ(every_page.new_chunks, 0u);
  EXPECT_EQ(every_page.dup_known,
            std::vector<bool>(every_page.dup_chunks.size(), false));
}

// --- the host codec pool ----------------------------------------------------

// The pooled encode compresses a generation's new real chunks out of order
// and commits them in scan order. Its output must equal a one-pass serial
// encode built here span by span: within-generation duplicates (a 64 KiB
// region two segments share, repeated zero chunks), dedup hits against an
// earlier generation, pattern chunks, and a quarantined key that the
// generation re-stores once and then dedups against.
TEST(CkptStore, PooledEncodeCommitsInScanOrder) {
  const auto codec = compress::CodecKind::kGzipish;
  const auto p = fixed_params(kChunk);
  ckptstore::Repository repo;

  const auto old_bytes = pseudo_bytes(4 * kChunk, 5);
  mtcp::ProcessImage old;
  {
    mtcp::SegmentImage s;
    s.name = "old";
    s.data = ByteImage(old_bytes.size());
    s.data.write(0, old_bytes);
    old.segments.push_back(std::move(s));
  }
  const auto g0 = mtcp::encode_incremental(old, codec, p, "7", 0, repo);
  const auto old_keys = ckptstore::Manifest::decode(g0.manifest_bytes)
                            .all_keys();
  ASSERT_EQ(old_keys.size(), 4u);
  const ckptstore::ChunkKey quarantined = old_keys[1];
  ASSERT_GT(repo.quarantine(quarantined), 0u);

  const auto shared = pseudo_bytes(16 * kChunk, 1);  // 64 KiB
  mtcp::ProcessImage img;
  img.prog_name = "prog";
  img.virt_pid = 7;
  {
    mtcp::SegmentImage heap;
    heap.name = "heap";
    heap.kind = sim::MemKind::kHeap;
    heap.data = ByteImage(24 * kChunk);
    heap.data.write(0, shared);
    heap.data.fill(16 * kChunk, 4 * kChunk, ExtentKind::kZero);
    heap.data.write(20 * kChunk, old_bytes);
    img.segments.push_back(std::move(heap));
    mtcp::SegmentImage stack;
    stack.name = "stack";
    stack.kind = sim::MemKind::kStack;
    stack.data = ByteImage(28 * kChunk);
    stack.data.write(0, pseudo_bytes(2 * kChunk, 2));
    stack.data.write(2 * kChunk, shared);
    stack.data.fill(18 * kChunk, 4 * kChunk, ExtentKind::kRand, 0xBA11A57);
    stack.data.write(22 * kChunk, old_bytes);
    // New chunks after the duplicates: a commit that lost its place among
    // the compressed chunks would store the wrong containers here.
    stack.data.write(26 * kChunk, pseudo_bytes(2 * kChunk, 6));
    img.segments.push_back(std::move(stack));
  }

  // The serial reference: every key resident before the generation, and
  // every key this generation stores, with its charged bytes.
  std::map<ckptstore::ChunkKey, u64> charged;
  for (const auto& key : old_keys) {
    if (const auto* c = repo.find(key)) charged[key] = c->charged_bytes;
  }
  ASSERT_EQ(charged.count(quarantined), 0u);
  const auto delta = mtcp::encode_incremental(img, codec, p, "7", 1, repo);
  ckptstore::Manifest ref_mf;
  ref_mf.owner = "7";
  ref_mf.generation = 1;
  ref_mf.chunking = p;
  ref_mf.codec = static_cast<u8>(codec);
  {
    ByteWriter w;
    img.serialize_meta(w);
    ref_mf.meta_blob = w.take();
  }
  std::vector<std::pair<ckptstore::ChunkKey, u64>> ref_stored, ref_dups;
  std::vector<double> ref_seconds;
  std::map<ckptstore::ChunkKey, std::vector<std::byte>> ref_containers;
  for (const auto& seg : img.segments) {
    ckptstore::SegmentManifest sm;
    sm.name = seg.name;
    sm.kind = static_cast<u8>(seg.kind);
    sm.size = seg.data.size();
    for (const auto& span : ckptstore::scan_chunks_with(seg.data, p)) {
      const bool real = span.kind == ExtentKind::kReal;
      const auto content = seg.data.materialize(span.off, span.len);
      const auto key = real ? ckptstore::content_key(content)
                            : ckptstore::span_key(seg.data, span);
      sm.chunks.push_back({key, span.len, crc32(content)});
      if (auto it = charged.find(key); it != charged.end()) {
        ref_dups.emplace_back(key, it->second);
        continue;
      }
      u64 bytes = 0;
      if (real) {
        auto container = compress::codec(codec).compress(content);
        bytes = container.size();
        ref_containers[key] = std::move(container);
      } else {
        // Pattern chunks are priced from a measured ratio; the reference
        // takes the stored descriptor's charge and checks everything else.
        ASSERT_NE(repo.find(key), nullptr);
        bytes = repo.find(key)->charged_bytes;
      }
      charged[key] = bytes;
      ref_stored.emplace_back(key, bytes);
      ref_seconds.push_back(mtcp::encode_cpu_seconds(span.len, span.kind,
                                                     codec));
    }
    ref_mf.segments.push_back(std::move(sm));
  }
  // 16 shared chunks, 4 of the stack's own and the quarantined one.
  ASSERT_EQ(ref_containers.size(), 21u);

  EXPECT_EQ(delta.manifest_bytes, ref_mf.encode());
  EXPECT_EQ(delta.stored_chunks, ref_stored);
  EXPECT_EQ(delta.encode_seconds, ref_seconds);
  EXPECT_EQ(delta.dup_chunks, ref_dups);
  for (const auto& [key, container] : ref_containers) {
    const auto* c = repo.find(key);
    ASSERT_NE(c, nullptr) << key.str();
    EXPECT_EQ(*c->stored, container) << key.str();
  }
  EXPECT_EQ(repo.quarantined_count(), 0u);  // re-stored fresh

  // A key stored twice in one generation is stored at its first
  // occurrence, and the second is a hit carrying the first one's charge.
  const auto charges = [](const auto& pairs, const ckptstore::ChunkKey& key) {
    std::vector<u64> bytes;
    for (const auto& [k, b] : pairs) {
      if (k == key) bytes.push_back(b);
    }
    return bytes;
  };
  const auto first_shared = ckptstore::content_key(
      std::span(shared).first(kChunk));
  for (const auto& key : {first_shared, quarantined}) {
    const auto stored = charges(delta.stored_chunks, key);
    ASSERT_EQ(stored.size(), 1u) << key.str();
    EXPECT_EQ(charges(delta.dup_chunks, key), stored) << key.str();
  }
}

// A cold restore decodes the manifest's distinct real chunks on the host
// pool, once each: a chunk the manifest references twice restores both
// ranges from one shared buffer, the chunk's cached decode.
TEST(CkptStore, RestoreDecodesEachColdChunkOnce) {
  ckptstore::Repository repo;
  const auto codec = compress::CodecKind::kGzipish;
  const auto twice = pseudo_bytes(kChunk, 3);
  mtcp::ProcessImage img;
  {
    mtcp::SegmentImage s;
    s.name = "heap";
    s.data = ByteImage(8 * kChunk);
    s.data.write(0, pseudo_bytes(8 * kChunk, 4));
    s.data.write(kChunk, twice);
    s.data.write(6 * kChunk, twice);
    img.segments.push_back(std::move(s));
  }
  const auto delta =
      mtcp::encode_incremental(img, codec, fixed_params(kChunk), "7", 0, repo);
  const auto mf = ckptstore::Manifest::decode(delta.manifest_bytes);
  const auto key = ckptstore::content_key(twice);
  const auto keys = mf.all_keys();
  ASSERT_EQ(std::count(keys.begin(), keys.end(), key), 2);

  std::string err;
  const auto back = mtcp::decode_incremental(mf, repo, nullptr, nullptr, &err);
  ASSERT_TRUE(err.empty()) << err;
  expect_images_equal(img, back);
  std::vector<const std::vector<std::byte>*> buffers;
  back.segments[0].data.for_each_extent(
      [&](u64 off, const ByteImage::Extent& e) {
        if (off == kChunk || off == 6 * kChunk) buffers.push_back(e.data.get());
      });
  ASSERT_EQ(buffers.size(), 2u);
  EXPECT_EQ(buffers[0], buffers[1]);
  EXPECT_EQ(buffers[0], repo.find(key)->decoded(codec).get());
}

// --- GC ----------------------------------------------------------------------

TEST(CkptStore, GcReclaimsChunksOfDeadGenerations) {
  ckptstore::Repository repo;
  auto img = make_image(64 * kChunk, 5);
  const auto codec = compress::CodecKind::kNone;

  auto g0 =
      mtcp::encode_incremental(img, codec, fixed_params(kChunk), "7", 0, repo);
  const auto mf0 = ckptstore::Manifest::decode(g0.manifest_bytes);
  img.segments[0].data.write(0, pseudo_bytes(8 * kChunk, 77));
  auto g1 =
      mtcp::encode_incremental(img, codec, fixed_params(kChunk), "7", 1, repo);
  img.segments[0].data.write(0, pseudo_bytes(8 * kChunk, 78));
  auto g2 =
      mtcp::encode_incremental(img, codec, fixed_params(kChunk), "7", 2, repo);
  const auto mf2 = ckptstore::Manifest::decode(g2.manifest_bytes);

  const u64 live_before = repo.stats().live_stored_bytes;
  const u64 reclaimed = repo.collect_garbage(/*keep=*/1);
  EXPECT_GT(reclaimed, 0u);
  EXPECT_EQ(repo.stats().live_stored_bytes, live_before - reclaimed);
  EXPECT_EQ(repo.stats().reclaimed_bytes, reclaimed);
  EXPECT_EQ(repo.live_generations("7"), std::vector<int>{2});

  // The surviving generation still materializes byte-identically...
  std::string err;
  auto restored = mtcp::decode_incremental(mf2, repo, nullptr, nullptr, &err);
  ASSERT_TRUE(err.empty()) << err;
  expect_images_equal(img, restored);

  // ...while a collected generation reports its missing chunks clearly.
  auto gone = mtcp::decode_incremental(mf0, repo, nullptr, nullptr, &err);
  EXPECT_FALSE(err.empty());
  EXPECT_NE(err.find("missing from the repository"), std::string::npos);
}

// --- cross-process dedup -----------------------------------------------------

/// Image with a "mapped library" segment every process shares byte-for-byte
/// plus a private heap distinct per process.
mtcp::ProcessImage make_cluster_image(u64 lib_bytes, u64 heap_bytes,
                                      u64 heap_seed, Pid vpid) {
  mtcp::ProcessImage img;
  img.prog_name = "rank";
  img.virt_pid = vpid;
  img.virt_ppid = 1;
  img.origin_node = 0;
  mtcp::SegmentImage lib;
  lib.name = "libmpi.so";
  lib.kind = sim::MemKind::kLib;
  lib.data = ByteImage(lib_bytes);
  lib.data.write(0, pseudo_bytes(lib_bytes, 0x11B));  // identical everywhere
  img.segments.push_back(std::move(lib));
  mtcp::SegmentImage heap;
  heap.name = "heap";
  heap.kind = sim::MemKind::kHeap;
  heap.data = ByteImage(heap_bytes);
  heap.data.write(0, pseudo_bytes(heap_bytes, heap_seed));
  img.segments.push_back(std::move(heap));
  mtcp::ThreadImage t;
  t.kind = sim::ThreadKind::kMain;
  img.threads.push_back(t);
  return img;
}

TEST(CkptStore, CrossProcessSharedLibraryIsStoredOnce) {
  ckptstore::Repository repo;
  const auto codec = compress::CodecKind::kNone;  // exact byte accounting
  const auto p = cdc_params(1024, 4096, 16 * 1024);
  constexpr u64 kLib = 256 * 1024;
  constexpr u64 kHeap = 64 * 1024;

  const auto a = make_cluster_image(kLib, kHeap, /*heap_seed=*/1, 101);
  const auto da = mtcp::encode_incremental(a, codec, p, "101", 0, repo);
  const u64 stored_after_a = repo.stats().live_stored_bytes;
  EXPECT_GE(stored_after_a, kLib + kHeap);

  // A second process on (conceptually) another node submits the same
  // library: every library chunk is answered by the resident copy, and
  // only its private heap adds stored bytes.
  const auto b = make_cluster_image(kLib, kHeap, /*heap_seed=*/2, 102);
  const auto db = mtcp::encode_incremental(b, codec, p, "102", 0, repo);
  EXPECT_GE(db.dup_chunk_bytes, kLib);  // the whole library dedup'd
  const u64 added = repo.stats().live_stored_bytes - stored_after_a;
  EXPECT_LT(added, kHeap + kHeap / 2);  // heap only, no second library
  EXPECT_EQ(repo.owner_count(), 2u);
  EXPECT_GT(repo.shared_chunk_count(), 0u);
}

TEST(CkptStore, GcIsRefcountCorrectAcrossProcesses) {
  ckptstore::Repository repo;
  const auto codec = compress::CodecKind::kNone;
  const auto p = cdc_params(1024, 4096, 16 * 1024);
  constexpr u64 kLib = 128 * 1024;
  constexpr u64 kHeap = 64 * 1024;

  // Owner A writes three generations with churning heap; owner B one.
  auto imga = make_cluster_image(kLib, kHeap, 1, 101);
  mtcp::encode_incremental(imga, codec, p, "101", 0, repo);
  const auto b = make_cluster_image(kLib, kHeap, 9, 102);
  const auto db = mtcp::encode_incremental(b, codec, p, "102", 0, repo);
  const auto mfb = ckptstore::Manifest::decode(db.manifest_bytes);
  for (int gen = 1; gen <= 2; ++gen) {
    imga.segments[1].data.write(0, pseudo_bytes(kHeap, 100 + gen));
    mtcp::encode_incremental(imga, codec, p, "101", gen, repo);
  }

  // keep=1 drops A's two dead generations. Their private heap chunks die,
  // but the library chunks stay: B's live generation still references
  // them. B must restore byte-identically afterwards.
  const u64 reclaimed = repo.collect_garbage(/*keep=*/1);
  EXPECT_GT(reclaimed, 0u);
  EXPECT_LT(reclaimed, 3 * kHeap);  // never the shared library
  std::string err;
  auto back = mtcp::decode_incremental(mfb, repo, nullptr, nullptr, &err);
  ASSERT_TRUE(err.empty()) << err;
  expect_images_equal(b, back);

  // Owner A leaves the computation for good: only chunks B doesn't also
  // reference are reclaimed. Then B leaves and the store drains to zero.
  repo.drop_owner("101");
  EXPECT_EQ(repo.owner_count(), 1u);
  auto still = mtcp::decode_incremental(mfb, repo, nullptr, nullptr, &err);
  ASSERT_TRUE(err.empty()) << err;
  repo.drop_owner("102");
  EXPECT_EQ(repo.stats().live_chunks, 0u);
  EXPECT_EQ(repo.stats().live_stored_bytes, 0u);
}

// --- corruption detection ----------------------------------------------------

TEST(CkptStore, CorruptedChunkIsDetectedOnRestore) {
  ckptstore::Repository repo;
  const auto img = make_image(64 * kChunk, 9);
  const auto codec = compress::CodecKind::kNone;
  auto delta = mtcp::encode_incremental(img, codec, fixed_params(kChunk),
                                        "7", 0, repo);
  const auto mf = ckptstore::Manifest::decode(delta.manifest_bytes);

  // A clean restore first: it fills every real chunk's decode cache, which
  // the rot below must invalidate.
  std::string err;
  const auto clean =
      mtcp::decode_incremental(mf, repo, nullptr, nullptr, &err);
  ASSERT_TRUE(err.empty()) << err;
  expect_images_equal(img, clean);

  // Rot one real chunk: same length, wrong content.
  const ckptstore::ChunkRef* victim = nullptr;
  for (const auto& ref : mf.segments[0].chunks) {
    const auto* c = repo.find(ref.key);
    ASSERT_NE(c, nullptr);
    if (c->kind == ExtentKind::kReal) {
      victim = &ref;
      break;
    }
  }
  ASSERT_NE(victim, nullptr);
  auto* chunk = repo.find_mutable(victim->key);
  chunk->stored = std::make_shared<const std::vector<std::byte>>(
      compress::codec(codec).compress(pseudo_bytes(victim->len, 0xBAD)));

  auto out = mtcp::decode_incremental(mf, repo, nullptr, nullptr, &err);
  ASSERT_FALSE(err.empty());
  EXPECT_NE(err.find("corrupted chunk"), std::string::npos);
  EXPECT_NE(err.find(victim->key.str()), std::string::npos);
  // The replaced container was decoded afresh, not served from the cache.
  EXPECT_EQ(*chunk->decoded(codec), pseudo_bytes(victim->len, 0xBAD));
}

TEST(ImageIntegrity, WholeImageCrcCatchesBitRot) {
  const auto img = make_image(16 * kChunk, 2);
  ByteWriter w;
  img.serialize(w);
  auto bytes = w.take();
  // Round-trips clean...
  {
    ByteReader r(bytes);
    auto back = mtcp::ProcessImage::deserialize(r);
    expect_images_equal(img, back);
  }
  // ...and a single flipped byte in the segment data is fatal.
  bytes[bytes.size() / 2] ^= std::byte{0x01};
  ByteReader r(bytes);
  EXPECT_DEATH(mtcp::ProcessImage::deserialize(r), "checksum mismatch");
}

// --- options -----------------------------------------------------------------

TEST(Options, ValidationRejectsBadKnobs) {
  DmtcpOptions o;
  EXPECT_EQ(o.validate(), "");
  o.chunk_bytes = 0;
  EXPECT_NE(o.validate().find("power of two"), std::string::npos);
  o.chunk_bytes = 12345;
  EXPECT_NE(o.validate().find("power of two"), std::string::npos);
  o.chunk_bytes = 4096;
  o.keep_generations = 0;
  EXPECT_NE(o.validate().find("at least one"), std::string::npos);
  o.keep_generations = 2;
  o.incremental = true;
  o.forked_checkpointing = true;
  EXPECT_NE(o.validate().find("mutually exclusive"), std::string::npos);
}

TEST(Options, FlagParsingConsumesKnownFlags) {
  DmtcpOptions o;
  std::vector<std::string> argv = {"--incremental", "--chunk-bytes", "8192",
                                   "--keep-generations", "3", "prog"};
  EXPECT_EQ(o.apply_flags(argv), "");
  EXPECT_TRUE(o.incremental);
  EXPECT_EQ(o.chunk_bytes, 8192u);
  EXPECT_EQ(o.keep_generations, 3);
  ASSERT_EQ(argv.size(), 1u);
  EXPECT_EQ(argv[0], "prog");

  std::vector<std::string> bad = {"--chunk-bytes", "banana"};
  EXPECT_NE(o.apply_flags(bad).find("invalid value"), std::string::npos);
  std::vector<std::string> zero = {"--chunk-bytes", "0"};
  EXPECT_NE(o.apply_flags(zero).find("power of two"), std::string::npos);
}

TEST(Options, SharedChunkingValidatorCoversFixedAndCdc) {
  // One helper validates launch flags and restart-time manifests alike.
  auto fixed = fixed_params(4096);
  EXPECT_EQ(core::validate_chunking(fixed), "");
  fixed.fixed_bytes = 3000;
  EXPECT_NE(core::validate_chunking(fixed).find("power of two"),
            std::string::npos);

  auto cdc = cdc_params(1024, 4096, 16 * 1024);
  EXPECT_EQ(core::validate_chunking(cdc), "");
  cdc.min_bytes = 8192;  // min > avg
  EXPECT_NE(core::validate_chunking(cdc).find("min <= avg <= max"),
            std::string::npos);
  cdc = cdc_params(1024, 4096, 2048);  // max < avg
  EXPECT_NE(core::validate_chunking(cdc).find("min <= avg <= max"),
            std::string::npos);
  cdc = cdc_params(1024, 5000, 16 * 1024);  // avg not a power of two
  EXPECT_NE(core::validate_chunking(cdc).find("power of two"),
            std::string::npos);

  // DmtcpOptions::validate routes through the same helper.
  DmtcpOptions o;
  o.chunking = ckptstore::ChunkingMode::kCdc;
  o.cdc_min_bytes = 1 << 20;
  EXPECT_NE(o.validate().find("min <= avg <= max"), std::string::npos);
}

TEST(Options, ChunkingAndDedupScopeFlagsParse) {
  DmtcpOptions o;
  std::vector<std::string> argv = {
      "--chunking",      "cdc",   "--cdc-min-bytes", "1024",
      "--cdc-avg-bytes", "4096",  "--cdc-max-bytes", "16384",
      "--dedup-scope",   "cluster", "prog"};
  EXPECT_EQ(o.apply_flags(argv), "");
  EXPECT_EQ(o.chunking, ckptstore::ChunkingMode::kCdc);
  EXPECT_EQ(o.cdc_min_bytes, 1024u);
  EXPECT_EQ(o.cdc_avg_bytes, 4096u);
  EXPECT_EQ(o.cdc_max_bytes, 16384u);
  EXPECT_EQ(o.dedup_scope, core::DedupScope::kCluster);
  ASSERT_EQ(argv.size(), 1u);
  EXPECT_EQ(argv[0], "prog");

  std::vector<std::string> fast = {"--incremental",
                                   "--chunking", "fastcdc",
                                   "--chunk-replicas", "2",
                                   "--dedup-scope", "cluster",
                                   "--store-node", "3"};
  EXPECT_EQ(o.apply_flags(fast), "");
  EXPECT_EQ(o.chunking, ckptstore::ChunkingMode::kFastCdc);
  EXPECT_EQ(o.chunk_replicas, 2);
  EXPECT_EQ(o.store_node, 3);

  std::vector<std::string> bad_mode = {"--chunking", "rolling"};
  EXPECT_NE(o.apply_flags(bad_mode).find("'fixed', 'cdc' or 'fastcdc'"),
            std::string::npos);
  std::vector<std::string> bad_replicas = {"--chunk-replicas", "0"};
  EXPECT_NE(o.apply_flags(bad_replicas).find("at least one copy"),
            std::string::npos);
  std::vector<std::string> wide_replicas = {"--chunk-replicas", "33"};
  EXPECT_NE(o.apply_flags(wide_replicas).find("at most 32 copies"),
            std::string::npos);
  o.chunk_replicas = 2;
  o.dedup_scope = core::DedupScope::kNode;
  EXPECT_NE(o.validate().find("requires a cluster-wide store"),
            std::string::npos);
  // Both routes to a cluster-wide store satisfy the replica gate: cluster
  // dedup scope, or an explicitly shared checkpoint directory.
  o.ckpt_dir = "/shared/ckpt";
  EXPECT_EQ(o.validate(), "");
  o.ckpt_dir = "/ckpt";
  o.dedup_scope = core::DedupScope::kCluster;
  EXPECT_EQ(o.validate(), "");
  // Service knobs without --incremental would be silently inert (the
  // service only exists for the incremental store): rejected instead.
  o.incremental = false;
  EXPECT_NE(o.validate().find("require --incremental"), std::string::npos);
  o.chunk_replicas = 1;
  o.store_node = 0;
  EXPECT_NE(o.validate().find("require --incremental"), std::string::npos);
  o.incremental = true;
  EXPECT_EQ(o.validate(), "");
  std::vector<std::string> bad_scope = {"--dedup-scope", "rack"};
  EXPECT_NE(o.apply_flags(bad_scope).find("'node' or 'cluster'"),
            std::string::npos);
  std::vector<std::string> bad_bounds = {"--chunking", "cdc",
                                         "--cdc-min-bytes", "999999999"};
  EXPECT_NE(o.apply_flags(bad_bounds).find("min <= avg <= max"),
            std::string::npos);
}

// --- end to end through the DMTCP stack -------------------------------------

struct World {
  sim::Cluster cluster;
  DmtcpControl ctl;
  World(int nodes, DmtcpOptions opts = {}, u64 seed = 0x5eed)
      : cluster([&] {
          auto cfg = sim::Cluster::lab_cluster(nodes);
          cfg.seed = seed;
          return cfg;
        }()),
        ctl(cluster.kernel(), opts) {
    register_test_programs(cluster.kernel());
  }
  sim::Kernel& k() { return cluster.kernel(); }
  bool run_until_results(std::initializer_list<const char*> names,
                         SimTime deadline = 300 * timeconst::kSecond) {
    return ctl.run_until(
        [&] {
          for (const char* n : names) {
            if (read_result(k(), n).empty()) return false;
          }
          return true;
        },
        k().loop().now() + deadline);
  }
};

DmtcpOptions incremental_opts() {
  DmtcpOptions o;
  o.incremental = true;
  o.chunk_bytes = 16 * 1024;
  o.keep_generations = 2;
  return o;
}

TEST(CkptStoreE2E, DeltaRestartCompletesIdenticallyToBaseline) {
  auto baseline = [] {
    sim::Cluster cluster(sim::Cluster::lab_cluster(4));
    register_test_programs(cluster.kernel());
    cluster.kernel().spawn_process(0, kPingServer, {"9000", "300", "1024",
                                                    "srv"},
                                   {});
    cluster.kernel().spawn_process(1, kPingClient,
                                   {"0", "9000", "300", "1024", "9", "cli"},
                                   {});
    cluster.kernel().loop().run_until(cluster.kernel().loop().now() +
                                      300 * timeconst::kSecond);
    std::map<std::string, std::string> out;
    out["srv"] = read_result(cluster.kernel(), "srv");
    out["cli"] = read_result(cluster.kernel(), "cli");
    return out;
  }();

  World w(2, incremental_opts());
  w.ctl.launch(0, kPingServer, {"9000", "300", "1024", "srv"});
  w.ctl.launch(1, kPingClient, {"0", "9000", "300", "1024", "9", "cli"});
  w.ctl.run_for(30 * timeconst::kMillisecond);
  w.ctl.checkpoint_now();
  w.ctl.run_for(10 * timeconst::kMillisecond);
  // Second generation: the restart below materializes from a delta.
  const auto& r2 = w.ctl.checkpoint_now();
  EXPECT_GT(r2.total_chunks, 0u);
  w.ctl.kill_computation();
  EXPECT_TRUE(read_result(w.k(), "srv").empty());
  const auto& rr = w.ctl.restart();
  EXPECT_EQ(rr.procs, 2);
  ASSERT_TRUE(w.run_until_results({"srv", "cli"}));
  EXPECT_EQ(read_result(w.k(), "srv"), baseline["srv"]);
  EXPECT_EQ(read_result(w.k(), "cli"), baseline["cli"]);
}

TEST(CkptStoreE2E, DeltaRestartWithMigrationStagesChunks) {
  // Node-local checkpoint dirs mean per-node chunk repositories; migrating
  // hosts must stage the chunks along with the manifests.
  auto baseline = [] {
    sim::Cluster cluster(sim::Cluster::lab_cluster(4));
    register_test_programs(cluster.kernel());
    cluster.kernel().spawn_process(0, kPingServer, {"9000", "200", "1024",
                                                    "srv"},
                                   {});
    cluster.kernel().spawn_process(1, kPingClient,
                                   {"0", "9000", "200", "1024", "3", "cli"},
                                   {});
    cluster.kernel().loop().run_until(cluster.kernel().loop().now() +
                                      300 * timeconst::kSecond);
    std::map<std::string, std::string> out;
    out["srv"] = read_result(cluster.kernel(), "srv");
    out["cli"] = read_result(cluster.kernel(), "cli");
    return out;
  }();

  World w(4, incremental_opts());
  w.ctl.launch(0, kPingServer, {"9000", "200", "1024", "srv"});
  w.ctl.launch(1, kPingClient, {"0", "9000", "200", "1024", "3", "cli"});
  w.ctl.run_for(25 * timeconst::kMillisecond);
  w.ctl.checkpoint_now();
  w.ctl.kill_computation();
  const auto& rr = w.ctl.restart({{0, 2}, {1, 3}});
  EXPECT_EQ(rr.procs, 2);
  ASSERT_TRUE(w.run_until_results({"srv", "cli"}));
  EXPECT_EQ(read_result(w.k(), "srv"), baseline["srv"]);
  EXPECT_EQ(read_result(w.k(), "cli"), baseline["cli"]);
}

TEST(CkptStoreE2E, SecondGenerationWritesSmallFractionAndGcTrims) {
  auto opts = incremental_opts();
  opts.codec = compress::CodecKind::kNone;  // exact byte accounting
  opts.chunk_bytes = 64 * 1024;
  opts.keep_generations = 2;
  World w(1, opts);
  const Pid pid = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "cl"});
  w.ctl.run_for(20 * timeconst::kMillisecond);

  // Give the process Fig.-6-style ballast: 8 MB of pseudo-random heap.
  constexpr u64 kBallast = 8 * 1024 * 1024;
  sim::Process* p = w.k().find_process(pid);
  ASSERT_NE(p, nullptr);
  auto& seg = p->mem().add("ballast", sim::MemKind::kHeap, kBallast);
  seg.data.fill(0, kBallast, ExtentKind::kRand, 0xA0);

  const auto r1 = w.ctl.checkpoint_now();
  EXPECT_GT(r1.total_compressed, kBallast);  // everything is new

  // Dirty ~10% of the ballast, checkpoint again: the delta must stay well
  // under 25% of the full-image write (the acceptance bound).
  seg.data.fill(0, kBallast / 10, ExtentKind::kRand, 0xA1);
  const auto r2 = w.ctl.checkpoint_now();
  EXPECT_GT(r2.total_compressed, 0u);
  EXPECT_LT(r2.total_compressed, r1.total_compressed / 4);
  EXPECT_GT(r2.dedup_ratio, 1.5);

  // Third generation pushes generation 1 out of the retention window; its
  // dirty chunks are reclaimed and trimmed from the device.
  seg.data.fill(0, kBallast / 10, ExtentKind::kRand, 0xA2);
  const auto r3 = w.ctl.checkpoint_now();
  EXPECT_GT(r3.store_reclaimed_bytes, 0u);
  EXPECT_GT(w.k().node(0).storage().disk().total_discarded_bytes(), 0u);

  // The live store holds roughly one full image plus two deltas — far less
  // than three full generations.
  EXPECT_LT(r3.store_live_bytes, 2 * r1.total_compressed);
}

TEST(CkptStoreE2E, DeltaRestartFetchesAreChargedAsReadsNotWrites) {
  // Regression pin for the StorageDevice read/write split: a delta restart
  // fetches the manifest plus every referenced chunk — all of it must land
  // in the device's *read* counter, and none of it in the write counter.
  auto opts = incremental_opts();
  opts.codec = compress::CodecKind::kNone;  // exact byte accounting
  World w(1, opts);
  const Pid pid = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "rw"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  sim::Process* p = w.k().find_process(pid);
  ASSERT_NE(p, nullptr);
  constexpr u64 kBallast = 4 * 1024 * 1024;
  auto& seg = p->mem().add("ballast", sim::MemKind::kHeap, kBallast);
  seg.data.fill(0, kBallast, ExtentKind::kRand, 0xA0);

  const auto r1 = w.ctl.checkpoint_now();
  ASSERT_GT(r1.store_live_bytes, kBallast);
  w.ctl.kill_computation();

  const auto& dev = w.k().node(0).storage().cache();
  const u64 reads_before = dev.total_read_bytes();
  const u64 writes_before = dev.total_written_bytes();
  w.ctl.restart();
  const u64 read_delta = dev.total_read_bytes() - reads_before;
  const u64 write_delta = dev.total_written_bytes() - writes_before;

  // The fetch side reads at least the full live store (manifest + chunks)...
  EXPECT_GE(read_delta, r1.store_live_bytes);
  // ...and writes exactly nothing: restoring is not storing.
  EXPECT_EQ(write_delta, 0u);
}

TEST(CkptStoreE2E, ClusterScopeStoresSharedBallastOnce) {
  // Two processes on two nodes carry an identical 4 MiB "shared library"
  // ballast. With node-scope dedup each node's repository stores its own
  // copy; with the computation-wide store the second process's chunks are
  // answered by the first's and only one copy is ever written.
  constexpr u64 kBallast = 4 * 1024 * 1024;
  struct RunResult {
    core::CkptRound round;
    u64 min_node_written = 0;  // device write accounting, lighter node
  };
  auto run = [&](core::DedupScope scope) {
    auto opts = incremental_opts();
    opts.codec = compress::CodecKind::kNone;  // exact byte accounting
    opts.chunking = ckptstore::ChunkingMode::kCdc;
    opts.dedup_scope = scope;
    World w(2, opts);
    const Pid p0 = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
    const Pid p1 = w.ctl.launch(1, kComputeLoop, {"1000000", "200", "b"});
    w.ctl.run_for(20 * timeconst::kMillisecond);
    for (Pid pid : {p0, p1}) {
      sim::Process* p = w.k().find_process(pid);
      EXPECT_NE(p, nullptr);
      auto& seg = p->mem().add("libshared", sim::MemKind::kLib, kBallast);
      seg.data.fill(0, kBallast, ExtentKind::kRand, 0x11B);  // same seed
    }
    RunResult r;
    r.round = w.ctl.checkpoint_now();
    r.min_node_written =
        std::min(w.k().node(0).storage().cache().total_written_bytes(),
                 w.k().node(1).storage().cache().total_written_bytes());
    return r;
  };

  const auto node_run = run(core::DedupScope::kNode);
  const auto cluster_run = run(core::DedupScope::kCluster);
  const auto& node_round = node_run.round;
  const auto& cluster_round = cluster_run.round;
  // Node scope stores the ballast twice, cluster scope once: the saving is
  // at least one full ballast copy.
  EXPECT_GT(node_round.total_compressed,
            cluster_round.total_compressed + kBallast / 2);
  // The second process's ballast was answered by resident chunks...
  EXPECT_GE(cluster_round.store_dup_bytes, kBallast);
  // ...and the shared chunks are visible in the round's stats.
  EXPECT_GT(cluster_round.store_shared_chunks, 0u);
  EXPECT_EQ(node_round.store_shared_chunks, 0u);
  // Device-level view (StorageDevice write accounting): under node scope
  // both nodes write their full ballast copy; under cluster scope whichever
  // process checkpoints second writes almost nothing.
  EXPECT_GT(node_run.min_node_written, kBallast / 2);
  EXPECT_LT(cluster_run.min_node_written, kBallast / 2);
}

}  // namespace
}  // namespace dsim::test
