#include "sim/byte_image.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "util/assertx.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace dsim::sim {

ByteImage::ByteImage(u64 size) : size_(size) {
  if (size > 0) {
    ext_.emplace(0, Extent{size, ExtentKind::kZero, 0, nullptr, 0});
  }
}

u8 ByteImage::rand_byte(u64 seed, u64 pos) {
  u64 s = seed ^ (pos >> 3) * 0x9e3779b97f4a7c15ULL;
  const u64 block = splitmix64(s);
  return static_cast<u8>(block >> ((pos & 7) * 8));
}

namespace {
// kRand content of [pos, pos + n) into dst.
void fill_rand(std::byte* dst, u64 seed, u64 pos, u64 n) {
  for (u64 k = 0; k < n; ++k) {
    dst[k] = static_cast<std::byte>(ByteImage::rand_byte(seed, pos + k));
  }
}
}  // namespace

void ByteImage::resize(u64 new_size) {
  if (new_size == size_) return;
  notify(std::min(size_, new_size),
         std::max(size_, new_size) - std::min(size_, new_size));
  if (new_size > size_) {
    ext_.emplace(size_,
                 Extent{new_size - size_, ExtentKind::kZero, 0, nullptr, 0});
    size_ = new_size;
    return;
  }
  split_at(new_size);
  ext_.erase(ext_.lower_bound(new_size), ext_.end());
  size_ = new_size;
}

void ByteImage::split_at(u64 pos) {
  if (pos == 0 || pos >= size_) return;
  auto it = ext_.upper_bound(pos);
  DSIM_CHECK(it != ext_.begin());
  --it;
  const u64 start = it->first;
  if (start == pos) return;
  Extent& ext = it->second;
  DSIM_CHECK(pos < start + ext.len);
  Extent tail = ext;
  const u64 head_len = pos - start;
  tail.len = ext.len - head_len;
  if (tail.kind == ExtentKind::kReal) {
    tail.data_off += head_len;
  }
  // kRand content is position-based, so the seed carries over unchanged.
  ext.len = head_len;
  ext_.emplace(pos, std::move(tail));
}

void ByteImage::replace_range(u64 off, u64 len, Extent ext) {
  split_at(off);
  split_at(off + len);
  auto first = ext_.lower_bound(off);
  auto last = ext_.lower_bound(off + len);
  ext_.erase(first, last);
  ext_.emplace(off, std::move(ext));
}

void ByteImage::write(u64 off, std::span<const std::byte> bytes) {
  store(off, bytes, nullptr);
}

bool ByteImage::write_owned(u64 off, std::vector<std::byte> bytes) {
  return store(off, bytes, &bytes);
}

bool ByteImage::store(u64 off, std::span<const std::byte> bytes,
                      std::vector<std::byte>* owned) {
  if (bytes.empty()) return false;
  DSIM_CHECK_MSG(off + bytes.size() <= size_, "ByteImage write out of range");
  notify(off, bytes.size());

  // Fast path: the range lies within a single uniquely-owned real extent.
  // use_count() == 1 is the invariant every shared buffer relies on: a
  // buffer another image, a snapshot or a chunk's decode cache
  // (ckptstore::Chunk::decoded, adopted on restart) also holds is never
  // written here, only replaced below. Buffers are created non-const, so
  // writing the sole owner's copy through the cast is sound.
  auto it = ext_.upper_bound(off);
  DSIM_CHECK(it != ext_.begin());
  --it;
  Extent& cur = it->second;
  const u64 start = it->first;
  if (cur.kind == ExtentKind::kReal && cur.data &&
      cur.data.use_count() == 1 && off + bytes.size() <= start + cur.len) {
    if (owned != nullptr && off == start && bytes.size() == cur.len) {
      // The range is the whole extent: swapping its buffer for the
      // caller's leaves the extent list as the copy would.
      cur.data = std::make_shared<std::vector<std::byte>>(std::move(*owned));
      cur.data_off = 0;
      return true;
    }
    auto* vec = const_cast<std::vector<std::byte>*>(cur.data.get());
    std::memcpy(vec->data() + cur.data_off + (off - start), bytes.data(),
                bytes.size());
    return false;
  }

  auto data =
      owned != nullptr
          ? std::make_shared<std::vector<std::byte>>(std::move(*owned))
          : std::make_shared<std::vector<std::byte>>(bytes.begin(),
                                                     bytes.end());
  replace_range(off, bytes.size(),
                Extent{bytes.size(), ExtentKind::kReal, 0, std::move(data), 0});
  return owned != nullptr;
}

void ByteImage::adopt(u64 off,
                      std::shared_ptr<const std::vector<std::byte>> buffer) {
  DSIM_CHECK(buffer != nullptr);
  const u64 len = buffer->size();
  if (len == 0) return;
  DSIM_CHECK_MSG(off + len <= size_, "ByteImage adopt out of range");
  notify(off, len);
  replace_range(off, len,
                Extent{len, ExtentKind::kReal, 0, std::move(buffer), 0});
}

void ByteImage::fill(u64 off, u64 len, ExtentKind kind, u64 seed) {
  if (len == 0) return;
  DSIM_CHECK_MSG(off + len <= size_, "ByteImage fill out of range");
  DSIM_CHECK_MSG(kind != ExtentKind::kReal, "use write() for real bytes");
  notify(off, len);
  replace_range(off, len, Extent{len, kind, seed, nullptr, 0});
}

u64 ByteImage::arm_soft_dirty() {
  static std::atomic<u64> last_token{0};
  soft_token_ = ++last_token;
  soft_dirty_.clear();
  return soft_token_;
}

ByteImage::SoftDirtyLog ByteImage::take_soft_dirty() {
  SoftDirtyLog log{soft_token_, {soft_dirty_.begin(), soft_dirty_.end()}};
  soft_dirty_.clear();
  return log;
}

void ByteImage::mark_soft_dirty(u64 begin, u64 end) {
  // Overlapping and touching ranges merge, so the log grows with the
  // distinct regions written, not with the number of writes.
  auto it = soft_dirty_.upper_bound(begin);
  if (it != soft_dirty_.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= end) return;  // already marked: the common rewrite
    if (prev->second >= begin) it = prev;
  }
  while (it != soft_dirty_.end() && it->first <= end) {
    begin = std::min(begin, it->first);
    end = std::max(end, it->second);
    it = soft_dirty_.erase(it);
  }
  soft_dirty_.emplace_hint(it, begin, end);
}

template <typename Fn>
void ByteImage::for_each_piece(u64 off, u64 len, Fn&& fn) const {
  if (len == 0) return;
  DSIM_CHECK_MSG(off + len <= size_, "ByteImage read out of range");
  u64 pos = off;
  u64 done = 0;
  auto it = ext_.upper_bound(off);
  DSIM_CHECK(it != ext_.begin());
  --it;
  while (done < len) {
    DSIM_CHECK(it != ext_.end());
    const Extent& ext = it->second;
    const u64 in_ext = pos - it->first;
    const u64 n = std::min<u64>(ext.len - in_ext, len - done);
    fn(ext, pos, in_ext, n);
    done += n;
    pos += n;
    ++it;
  }
}

void ByteImage::read(u64 off, std::span<std::byte> out) const {
  std::byte* dst = out.data();
  auto copy = [&](const Extent& ext, u64 pos, u64 in_ext, u64 n) {
    switch (ext.kind) {
      case ExtentKind::kReal:
        std::memcpy(dst, ext.data->data() + ext.data_off + in_ext, n);
        break;
      case ExtentKind::kZero:
        std::memset(dst, 0, n);
        break;
      case ExtentKind::kRand:
        fill_rand(dst, ext.seed, pos, n);
        break;
    }
    dst += n;
  };
  for_each_piece(off, out.size(), copy);
}

std::vector<std::byte> ByteImage::materialize(u64 off, u64 len) const {
  // One pass: each piece is appended as it is produced, never zero-filled
  // first.
  std::vector<std::byte> out;
  out.reserve(len);
  auto append = [&](const Extent& ext, u64 pos, u64 in_ext, u64 n) {
    switch (ext.kind) {
      case ExtentKind::kReal: {
        const std::byte* src = ext.data->data() + ext.data_off + in_ext;
        out.insert(out.end(), src, src + n);
        break;
      }
      case ExtentKind::kZero:
        out.resize(out.size() + n);
        break;
      case ExtentKind::kRand: {
        // Staged through a small block: appending byte by byte is slower.
        std::byte block[4096];
        for (u64 k = 0; k < n; k += sizeof block) {
          const u64 m = std::min<u64>(sizeof block, n - k);
          fill_rand(block, ext.seed, pos + k, m);
          out.insert(out.end(), block, block + m);
        }
        break;
      }
    }
  };
  for_each_piece(off, len, append);
  return out;
}

u64 ByteImage::real_bytes() const {
  u64 acc = 0;
  for (const auto& [off, ext] : ext_) {
    if (ext.kind == ExtentKind::kReal) acc += ext.len;
  }
  return acc;
}

u32 ByteImage::content_crc() const {
  u32 crc = 0;
  std::vector<std::byte> chunk(64 * 1024);
  u64 pos = 0;
  while (pos < size_) {
    const u64 n = std::min<u64>(chunk.size(), size_ - pos);
    read(pos, std::span(chunk).first(n));
    crc = crc32_update(crc, std::span<const std::byte>(chunk).first(n));
    pos += n;
  }
  return crc;
}

void ByteImage::serialize(ByteWriter& w) const {
  w.put_u64(size_);
  w.put_u64(ext_.size());
  for (const auto& [off, ext] : ext_) {
    w.put_u64(off);
    w.put_u64(ext.len);
    w.put_u8(static_cast<u8>(ext.kind));
    w.put_u64(ext.seed);
    if (ext.kind == ExtentKind::kReal) {
      w.put_blob(std::span<const std::byte>(*ext.data).subspan(
          ext.data_off, ext.len));
    }
  }
}

ByteImage ByteImage::deserialize(ByteReader& r) {
  ByteImage img;
  img.size_ = r.get_u64();
  const u64 n = r.get_u64();
  for (u64 i = 0; i < n; ++i) {
    const u64 off = r.get_u64();
    Extent ext;
    ext.len = r.get_u64();
    ext.kind = static_cast<ExtentKind>(r.get_u8());
    ext.seed = r.get_u64();
    if (ext.kind == ExtentKind::kReal) {
      ext.data = std::make_shared<std::vector<std::byte>>(r.get_blob());
      DSIM_CHECK(ext.data->size() == ext.len);
    }
    img.ext_.emplace(off, std::move(ext));
  }
  img.check_invariants();
  return img;
}

void ByteImage::check_invariants() const {
  u64 expect = 0;
  for (const auto& [off, ext] : ext_) {
    DSIM_CHECK_MSG(off == expect, "ByteImage extents must be contiguous");
    DSIM_CHECK(ext.len > 0);
    expect = off + ext.len;
  }
  DSIM_CHECK_MSG(expect == size_, "ByteImage extents must cover size");
}

}  // namespace dsim::sim
