#include "ckptstore/cdc.h"

#include <algorithm>
#include <array>

#include "util/assertx.h"

namespace dsim::ckptstore {
namespace {

using sim::ByteImage;
using sim::ExtentKind;

/// 256 pseudo-random gear constants, generated once from splitmix64 so the
/// cutpoints are stable across runs and builds (chunk keys must be).
std::array<u64, 256> make_gear_table() {
  std::array<u64, 256> t{};
  u64 x = 0x9E3779B97F4A7C15ull;
  for (auto& v : t) {
    x += 0x9E3779B97F4A7C15ull;
    u64 z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    v = z ^ (z >> 31);
  }
  return t;
}

const std::array<u64, 256>& gear() {
  static const std::array<u64, 256> t = make_gear_table();
  return t;
}

void check_params(const ChunkingParams& p) {
  DSIM_CHECK_MSG(p.mode == ChunkingMode::kCdc ||
                     p.mode == ChunkingMode::kFastCdc,
                 "CDC scanner handed a non-CDC chunking mode");
  DSIM_CHECK_MSG(p.min_bytes > 0 && p.min_bytes <= p.avg_bytes &&
                     p.avg_bytes <= p.max_bytes,
                 "CDC bounds must satisfy 0 < min <= avg <= max");
  DSIM_CHECK_MSG((p.avg_bytes & (p.avg_bytes - 1)) == 0,
                 "CDC average chunk size must be a power of two");
}

/// Cut a real/mixed run into content-defined spans. The gear hash
/// `h = (h << 1) + gear[byte]` depends only on the last ~64 bytes, so a
/// byte insertion perturbs cutpoints for at most one window before they
/// resynchronize with the pre-insertion boundaries. The scan is strictly
/// sequential, so the run is materialized in small blocks — peak memory
/// stays O(kScanBlock) however large the run.
///
/// Plain CDC tests one mask (avg - 1). FastCDC mode normalizes the size
/// distribution with two: below the target a stricter mask (two extra
/// bits → cuts 4x rarer) suppresses small chunks, above it a looser mask
/// (two fewer bits → cuts 4x likelier) pulls the tail in before the hard
/// max cut. Both masks are functions of window content and distance from
/// the last cut only, so resynchronization is preserved.
///
/// The state (h, and the length since the cut) resets at every cut, so
/// the span cut from a cut depends on that span's bytes alone. A previous
/// span that starts at the current cut, covers no dirty byte and was itself
/// cut by the hash (the next previous span is real, so the run went on) is
/// therefore the span this scan would cut again, as is a previous run's
/// final span that ends where this run ends; either is repeated unread.
/// Everywhere else — from the previous cut before each dirty range until
/// the scan cuts at a previous cut beyond it — the bytes are read and
/// hashed. With no prior nothing repeats and the whole run is hashed.
void cut_real_run(const ByteImage& img, u64 run_off, u64 run_len,
                  const ChunkingParams& p, const PriorScan& prior,
                  PriorCursor& cursor, std::vector<ChunkSpan>& out,
                  std::vector<u32>* from) {
  constexpr u64 kScanBlock = 4096;
  const auto& g = gear();
  const bool normalized = p.mode == ChunkingMode::kFastCdc;
  const u64 mask_pre =
      normalized ? (p.avg_bytes * 4 - 1) : (p.avg_bytes - 1);
  const u64 mask_post =
      normalized ? (std::max<u64>(p.avg_bytes / 4, 1) - 1)
                 : (p.avg_bytes - 1);
  const u64 run_end = run_off + run_len;
  std::vector<std::byte> buf;
  u64 buf_off = 0;  // image offset of buf[0]
  u64 cut = run_off;
  while (cut < run_end) {
    const u32 j = cursor.clean_span_at(cut);
    if (j != kFreshSpan) {
      const ChunkSpan& old = prior.spans[j];
      const u64 old_end = old.off + old.len;
      const bool hash_cut = j + 1 < prior.spans.size() &&
                            prior.spans[j + 1].kind == ExtentKind::kReal;
      if (old.kind == ExtentKind::kReal && old_end <= run_end &&
          (hash_cut || old_end == run_end)) {
        out.push_back(old);
        if (from != nullptr) from->push_back(j);
        cut = old_end;
        continue;
      }
    }
    u64 h = 0;
    u64 i = cut;
    for (;;) {
      if (i >= buf_off + buf.size()) {
        buf_off = i;
        buf.resize(std::min(kScanBlock, run_end - i));
        img.read(i, buf);
      }
      h = (h << 1) + g[static_cast<u8>(buf[i - buf_off])];
      const u64 len = ++i - cut;
      const u64 mask = len < p.avg_bytes ? mask_pre : mask_post;
      if (i == run_end || len >= p.max_bytes ||
          (len >= p.min_bytes && (h & mask) == 0)) {
        break;
      }
    }
    out.push_back(ChunkSpan{cut, i - cut, ExtentKind::kReal, 0});
    if (from != nullptr) from->push_back(kFreshSpan);
    cut = i;
  }
}

}  // namespace

std::vector<ChunkSpan> scan_chunks_cdc(const ByteImage& img,
                                       const ChunkingParams& p,
                                       const PriorScan& prior,
                                       std::vector<u32>* from) {
  check_params(p);
  if (from != nullptr) from->clear();
  PriorCursor cursor(prior);
  struct ExtView {
    u64 off, len;
    ExtentKind kind;
    u64 seed;
  };
  std::vector<ExtView> exts;
  img.for_each_extent([&](u64 off, const ByteImage::Extent& e) {
    exts.push_back({off, e.len, e.kind, e.seed});
  });

  std::vector<ChunkSpan> out;
  // Pattern extents at least min_bytes long stand alone: their boundaries
  // are content-determined by definition (the content *is* the descriptor),
  // so cutting at the extent edge keeps them dedupable without
  // materialization. Shorter pattern fragments fold into the surrounding
  // real run.
  u64 run_off = 0;   // start of the pending real/mixed run
  u64 run_len = 0;
  auto flush_run = [&] {
    if (run_len > 0) {
      cut_real_run(img, run_off, run_len, p, prior, cursor, out, from);
    }
    run_len = 0;
  };
  for (const auto& e : exts) {
    if (e.kind != ExtentKind::kReal && e.len >= p.min_bytes) {
      flush_run();
      // Descriptor spans, cut at max_bytes (tail may be short). Built
      // from the extent alone, so nothing is read either way; a clean
      // prior span identical to one (offset, length, kind and seed) is
      // reported as repeated, as the fixed-size scanner reports it.
      for (u64 done = 0; done < e.len; done += p.max_bytes) {
        const ChunkSpan span{e.off + done,
                             std::min<u64>(p.max_bytes, e.len - done),
                             e.kind, e.seed};
        const u32 j = cursor.clean_span_at(span.off);
        out.push_back(span);
        if (from != nullptr) {
          from->push_back(j != kFreshSpan && prior.spans[j] == span
                              ? j
                              : kFreshSpan);
        }
      }
      run_off = e.off + e.len;
      continue;
    }
    if (run_len == 0) run_off = e.off;
    run_len = e.off + e.len - run_off;
  }
  flush_run();
  return out;
}

std::vector<ChunkSpan> scan_chunks_with(const ByteImage& img,
                                        const ChunkingParams& p,
                                        const PriorScan& prior,
                                        std::vector<u32>* from) {
  // kCdc and kFastCdc share the scanner; the mode picks the mask scheme.
  return p.mode == ChunkingMode::kFixed
             ? scan_chunks(img, p.fixed_bytes, prior, from)
             : scan_chunks_cdc(img, p, prior, from);
}

}  // namespace dsim::ckptstore
