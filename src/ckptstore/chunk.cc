#include "ckptstore/chunk.h"

#include <algorithm>
#include <map>
#include <unordered_set>

#include "compress/compressor.h"
#include "util/assertx.h"
#include "util/crc32.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace dsim::ckptstore {
namespace {

// Tags keep synthetic pattern keys out of the content-hash key space.
constexpr u64 kZeroTag = 0x5A45524F434B5A00ull;  // "ZEROCKZ"
constexpr u64 kRandTag = 0x52414E44434B5200ull;  // "RANDCKR"

}  // namespace

std::string ChunkKey::str() const {
  char buf[36];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

ChunkKey content_key(std::span<const std::byte> data) {
  // Two independently-seeded FNV-1a streams form the 128-bit address. One
  // pass feeds both: the two multiply chains are independent, so they
  // overlap in the pipeline and the bytes are read once.
  constexpr u64 kPrime = 0x100000001B3ull;
  u64 hi = 0xCBF29CE484222325ull;
  u64 lo = 0x84222325CBF29CE4ull;
  for (std::byte b : data) {
    hi = (hi ^ static_cast<u64>(b)) * kPrime;
    lo = (lo ^ static_cast<u64>(b)) * kPrime;
  }
  return ChunkKey{hi, lo ^ mix64(data.size())};
}

ChunkKey zero_key(u64 len) { return ChunkKey{kZeroTag, mix64(len)}; }

ChunkKey rand_key(u64 seed, u64 pos, u64 len) {
  return ChunkKey{kRandTag ^ mix64(seed),
                  mix64(pos) ^ mix64(mix64(len) ^ seed)};
}

std::vector<std::byte> Chunk::materialize() const {
  switch (kind) {
    case sim::ExtentKind::kZero:
      return std::vector<std::byte>(len);
    case sim::ExtentKind::kRand: {
      std::vector<std::byte> out(len);
      for (u64 i = 0; i < len; ++i) {
        out[i] = static_cast<std::byte>(sim::ByteImage::rand_byte(seed,
                                                                  pos + i));
      }
      return out;
    }
    case sim::ExtentKind::kReal: {
      DSIM_CHECK_MSG(stored != nullptr, "real chunk has no stored container");
      return compress::Codec::decompress(*stored);
    }
  }
  DSIM_UNREACHABLE("bad chunk kind");
}

std::shared_ptr<const std::vector<std::byte>> Chunk::decoded() const {
  const Chunk* self = this;
  warm_decoded({&self, 1});
  return decoded_;
}

void Chunk::warm_decoded(std::span<const Chunk* const> chunks) {
  std::vector<const Chunk*> cold;
  std::unordered_set<const Chunk*> seen;
  for (const Chunk* c : chunks) {
    DSIM_CHECK_MSG(c->kind == sim::ExtentKind::kReal && c->stored != nullptr,
                   "only a stored real chunk has a decode");
    const bool cached =
        c->decoded_ != nullptr && c->decoded_from_ == c->stored;
    if (!cached && seen.insert(c).second) cold.push_back(c);
  }
  std::vector<std::vector<std::byte>> content(cold.size());
  parallel_for(cold.size(), [&](size_t i) {
    content[i] = compress::Codec::decompress(*cold[i]->stored);
  });
  for (size_t i = 0; i < cold.size(); ++i) {
    const Chunk& c = *cold[i];
    // Built as a non-const vector: once the cache lets go, the last
    // ByteImage holding it may write it in place (byte_image.cc).
    c.decoded_ = std::make_shared<std::vector<std::byte>>(content[i].begin(),
                                                          content[i].end());
    c.decoded_from_ = c.stored;
  }
}

u32 PriorCursor::clean_span_at(u64 off) {
  const auto& spans = prior_.spans;
  while (span_ < spans.size() && spans[span_].off < off) ++span_;
  if (span_ == spans.size() || spans[span_].off != off) return kFreshSpan;
  const u64 end = off + spans[span_].len;
  const auto& dirty = prior_.dirty;
  while (dirty_ < dirty.size() && dirty[dirty_].second <= off) ++dirty_;
  if (dirty_ < dirty.size() && dirty[dirty_].first < end) return kFreshSpan;
  return static_cast<u32>(span_);
}

std::vector<ChunkSpan> scan_chunks(const sim::ByteImage& img,
                                   u64 chunk_bytes, const PriorScan& prior,
                                   std::vector<u32>* from) {
  DSIM_CHECK_MSG(chunk_bytes > 0 && (chunk_bytes & (chunk_bytes - 1)) == 0,
                 "chunk size must be a non-zero power of two");
  struct ExtView {
    u64 off, len;
    sim::ExtentKind kind;
    u64 seed;
  };
  std::vector<ExtView> exts;
  img.for_each_extent([&](u64 off, const sim::ByteImage::Extent& e) {
    exts.push_back({off, e.len, e.kind, e.seed});
  });

  std::vector<ChunkSpan> out;
  out.reserve((img.size() + chunk_bytes - 1) / chunk_bytes);
  if (from != nullptr) from->clear();
  PriorCursor cursor(prior);
  size_t ei = 0;
  for (u64 off = 0; off < img.size(); off += chunk_bytes) {
    ChunkSpan s;
    s.off = off;
    s.len = std::min<u64>(chunk_bytes, img.size() - off);
    const u32 j = cursor.clean_span_at(off);
    if (j != kFreshSpan && prior.spans[j].len == s.len) {
      out.push_back(prior.spans[j]);
      if (from != nullptr) from->push_back(j);
      continue;
    }
    if (from != nullptr) from->push_back(kFreshSpan);
    while (ei < exts.size() && exts[ei].off + exts[ei].len <= off) ++ei;
    if (ei < exts.size() && exts[ei].kind != sim::ExtentKind::kReal &&
        exts[ei].off <= off &&
        off + s.len <= exts[ei].off + exts[ei].len) {
      s.kind = exts[ei].kind;  // pure pattern chunk: no materialization
      s.seed = exts[ei].seed;
    }
    out.push_back(s);
  }
  return out;
}

ChunkKey span_key(const sim::ByteImage& img, const ChunkSpan& s) {
  switch (s.kind) {
    case sim::ExtentKind::kZero:
      return zero_key(s.len);
    case sim::ExtentKind::kRand:
      return rand_key(s.seed, s.off, s.len);
    case sim::ExtentKind::kReal:
      return content_key(img.materialize(s.off, s.len));
  }
  DSIM_UNREACHABLE("bad span kind");
}

u32 span_crc(const sim::ByteImage& img, const ChunkSpan& s) {
  if (s.kind == sim::ExtentKind::kZero) {
    static std::map<u64, u32> cache;  // one all-zero buffer per chunk size
    auto it = cache.find(s.len);
    if (it == cache.end()) {
      std::vector<std::byte> zeros(s.len);
      it = cache.emplace(s.len, crc32(zeros)).first;
    }
    return it->second;
  }
  return crc32(img.materialize(s.off, s.len));
}

}  // namespace dsim::ckptstore
