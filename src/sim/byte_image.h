// Sparse byte container with copy-on-write extents.
//
// Backs simulated memory segments, VFS file contents and checkpoint images.
// An image is a contiguous range [0, size) covered by extents of three
// kinds:
//   kReal — actual bytes (shared_ptr'd, copy-on-write on partial overwrite);
//   kZero — implicit zeros;
//   kRand — deterministic position-based pseudo-random content f(seed, pos).
//
// Real extents give bit-exactness where programs actually read and write;
// pattern extents let a "70 GB" Fig.-6 experiment run without 70 GB of host
// RAM while remaining fully deterministic: reading a pattern extent always
// materializes the same bytes. Copying a ByteImage is O(#extents) — this is
// what makes simulated fork() and forked checkpointing cheap, mirroring
// kernel copy-on-write semantics (§5.3).
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "util/types.h"

namespace dsim {
class ByteWriter;
class ByteReader;
}  // namespace dsim

namespace dsim::sim {

enum class ExtentKind : u8 { kReal = 0, kZero = 1, kRand = 2 };

class ByteImage {
 public:
  struct Extent {
    u64 len = 0;
    ExtentKind kind = ExtentKind::kZero;
    u64 seed = 0;  // kRand only
    std::shared_ptr<const std::vector<std::byte>> data;  // kReal only
    u64 data_off = 0;  // offset into *data (cheap splits)
  };

  /// Observer of content mutations, used by the async checkpoint pipeline's
  /// COW tracker to detect pages the application dirties while a snapshot
  /// drain is in flight. The observer is a property of the *live* image, not
  /// of its content: copies and moved-to images start with no observer (a
  /// snapshot copy must never fire the original's tracker), and assignment
  /// keeps the target's own observer, reporting the whole range as mutated.
  struct WriteObserver {
    virtual ~WriteObserver() = default;
    virtual void on_mutate(u64 off, u64 len) = 0;
  };

  ByteImage() = default;
  /// Zero-filled image of `size` bytes.
  explicit ByteImage(u64 size);

  ByteImage(const ByteImage& other) : size_(other.size_), ext_(other.ext_) {}
  ByteImage(ByteImage&& other) noexcept
      : size_(other.size_), ext_(std::move(other.ext_)) {}
  ByteImage& operator=(const ByteImage& other) {
    if (this != &other) {
      notify(0, std::max(size_, other.size_));
      size_ = other.size_;
      ext_ = other.ext_;
    }
    return *this;
  }
  ByteImage& operator=(ByteImage&& other) noexcept {
    if (this != &other) {
      notify(0, std::max(size_, other.size_));
      size_ = other.size_;
      ext_ = std::move(other.ext_);
    }
    return *this;
  }

  void set_write_observer(WriteObserver* obs) { observer_ = obs; }
  WriteObserver* write_observer() const { return observer_; }

  /// Soft-dirty log: the byte ranges mutated since the log was armed or
  /// last taken — the analogue of Linux's soft-dirty PTE bit
  /// (Documentation/admin-guide/mm/soft-dirty.rst in the kernel tree),
  /// kept as ranges. The incremental checkpointer arms it on each live
  /// private segment at capture and takes it at the next capture, so its
  /// scan rereads only what was written in between. Like the write
  /// observer it belongs to the live image: copies and moved-to images
  /// start unarmed, and assignment keeps the target's log and marks the
  /// whole range.
  struct SoftDirtyLog {
    u64 token = 0;  // what arm_soft_dirty() returned; 0: never armed
    /// Sorted, disjoint, non-touching [begin, end) ranges. A shrink marks
    /// the cut-off tail, so a range may reach past size().
    std::vector<std::pair<u64, u64>> ranges;
  };
  /// The token the log is armed with (0: unarmed), without taking it.
  u64 soft_dirty_token() const { return soft_token_; }
  /// Arm the log with a fresh token, unique in this process and never 0,
  /// and forget the ranges logged so far. Returns the token.
  u64 arm_soft_dirty();
  /// The log's token and the ranges mutated since it was armed or last
  /// taken. Clears the ranges; the log stays armed with the same token.
  SoftDirtyLog take_soft_dirty();

  u64 size() const { return size_; }
  /// Grow (zero-filled) or shrink.
  void resize(u64 new_size);

  /// Overwrite [off, off+bytes.size()) with real bytes.
  void write(u64 off, std::span<const std::byte> bytes);
  /// write(off, bytes) of a buffer the caller hands over, with the same
  /// content, extents, soft-dirty ranges, observer calls and serialized
  /// bytes. The buffer itself becomes the range's extent wherever that is
  /// the extent write() leaves: where write() replaces the range, because
  /// no uniquely owned real extent covers it, and where the range is
  /// exactly one such extent. Strictly inside a larger one it is copied in
  /// place, as write() does: adopting there would split that extent.
  /// Returns whether the buffer was adopted.
  bool write_owned(u64 off, std::vector<std::byte> bytes);
  /// Overwrite [off, off+buffer->size()) with `buffer` itself, without
  /// copying it: the range becomes one real extent sharing the buffer with
  /// whoever else holds it. A shared buffer is never written in place (a
  /// later write() copies first), so other holders keep seeing their bytes.
  /// Once this image is the last holder it may write the buffer in place,
  /// so `buffer` must have been allocated as a non-const vector.
  void adopt(u64 off, std::shared_ptr<const std::vector<std::byte>> buffer);
  /// Read [off, off+out.size()) into `out`, materializing patterns.
  void read(u64 off, std::span<std::byte> out) const;
  /// Replace [off, off+len) with a pattern extent.
  void fill(u64 off, u64 len, ExtentKind kind, u64 seed = 0);

  /// Materialize a sub-range (for compression-ratio sampling and tests).
  std::vector<std::byte> materialize(u64 off, u64 len) const;

  /// Bytes held in real extents (host memory cost).
  u64 real_bytes() const;

  /// Streaming CRC-32 of the full (virtual) content. O(size); use in tests
  /// and for modest images only.
  u32 content_crc() const;

  /// Visit extents in order: fn(offset, extent).
  template <typename Fn>
  void for_each_extent(Fn&& fn) const {
    for (const auto& [off, ext] : ext_) fn(off, ext);
  }
  size_t extent_count() const { return ext_.size(); }

  void serialize(ByteWriter& w) const;
  static ByteImage deserialize(ByteReader& r);

  /// Deterministic content byte of a kRand pattern at absolute position.
  static u8 rand_byte(u64 seed, u64 pos);

 private:
  // Split the extent containing `pos` so that `pos` becomes an extent
  // boundary. No-op if already a boundary or past the end.
  void split_at(u64 pos);
  // Visit [off, off+len) extent by extent, in order:
  // fn(extent, pos, offset of pos in the extent, bytes of this piece).
  template <typename Fn>
  void for_each_piece(u64 off, u64 len, Fn&& fn) const;
  // The one real-bytes writer behind write() and write_owned(): `owned`,
  // when given, holds the bytes `bytes` spans and may be adopted.
  bool store(u64 off, std::span<const std::byte> bytes,
             std::vector<std::byte>* owned);
  // Erase extents fully inside [off, off+len) (callers split boundaries
  // first) and insert the replacement extent.
  void replace_range(u64 off, u64 len, Extent ext);
  void check_invariants() const;
  // The one choke point every mutator reports through.
  void notify(u64 off, u64 len) {
    if (len == 0) return;
    if (observer_ != nullptr) observer_->on_mutate(off, len);
    if (soft_token_ != 0) mark_soft_dirty(off, off + len);
  }
  void mark_soft_dirty(u64 begin, u64 end);

  u64 size_ = 0;
  std::map<u64, Extent> ext_;  // key: start offset; contiguous, no holes
  WriteObserver* observer_ = nullptr;  // not owned; never copied/moved
  // Soft-dirty log (never copied/moved): token, and begin -> end ranges.
  u64 soft_token_ = 0;
  std::map<u64, u64> soft_dirty_;
};

}  // namespace dsim::sim
