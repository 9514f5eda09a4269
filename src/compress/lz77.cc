#include "compress/lz77.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/assertx.h"
#include "util/serialize.h"

namespace dsim::compress {
namespace {

constexpr size_t kWindow = 1 << 16;     // 64 KiB back-reference window
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatch = 1 << 20;   // long matches make zero runs cheap
constexpr int kMaxChain = 32;           // match-finder effort bound
constexpr size_t kHashSize = 1 << 16;

u32 hash4(const std::byte* p) {
  u32 v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> 16;
}

/// Length of the common prefix of a[0..limit) and b[0..limit), compared
/// eight bytes at a time: the first differing byte is the lowest set byte
/// of the little-endian XOR.
size_t match_length(const std::byte* a, const std::byte* b, size_t limit) {
  size_t len = 0;
  while (len + 8 <= limit) {
    const u64 x = load_le<u64>(a + len) ^ load_le<u64>(b + len);
    if (x) return len + static_cast<size_t>(std::countr_zero(x)) / 8;
    len += 8;
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

void put_varint(std::vector<std::byte>& out, u64 v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::byte>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<std::byte>(v));
}

u64 get_varint(std::span<const std::byte> data, size_t& pos) {
  u64 v = 0;
  int shift = 0;
  while (true) {
    DSIM_CHECK_MSG(pos < data.size(), "lz77 stream truncated");
    const u8 b = static_cast<u8>(data[pos++]);
    v |= static_cast<u64>(b & 0x7F) << shift;
    if (!(b & 0x80)) break;
    shift += 7;
    DSIM_CHECK_MSG(shift < 64, "lz77 varint overflow");
  }
  return v;
}

}  // namespace

std::vector<std::byte> lz77_compress(std::span<const std::byte> input) {
  const size_t n = input.size();
  DSIM_CHECK_MSG(n < (size_t{1} << 31), "lz77 input must be under 2 GiB");
  std::vector<std::byte> out;
  out.reserve(n / 2 + 16);

  // head[h] = most recent position with hash h; prev[i % kWindow] = previous
  // position in the chain for position i. Chains never outlive the window,
  // so a chunk-sized input needs a chunk-sized prev.
  std::vector<i32> head(kHashSize, -1);
  std::vector<i32> prev(std::min(n, kWindow), -1);
  size_t lit_start = 0;  // start of pending literal run

  auto flush_literals = [&](size_t end) {
    if (end <= lit_start) return;
    out.push_back(std::byte{0x00});
    put_varint(out, end - lit_start);
    out.insert(out.end(), input.begin() + static_cast<ptrdiff_t>(lit_start),
               input.begin() + static_cast<ptrdiff_t>(end));
  };

  size_t i = 0;
  while (i < n) {
    size_t best_len = 0;
    size_t best_dist = 0;
    if (i + kMinMatch <= n) {
      const u32 h = hash4(input.data() + i);
      i32 cand = head[h];
      int chain = 0;
      while (cand >= 0 && i - static_cast<size_t>(cand) <= kWindow &&
             chain++ < kMaxChain) {
        const size_t c = static_cast<size_t>(cand);
        // Quick reject on first byte beyond current best.
        if (best_len == 0 || (c + best_len < n && i + best_len < n &&
                              input[c + best_len] == input[i + best_len])) {
          const size_t limit = std::min(n - i, kMaxMatch);
          const size_t len =
              match_length(input.data() + c, input.data() + i, limit);
          if (len > best_len) {
            best_len = len;
            best_dist = i - c;
            if (len >= limit) break;
          }
        }
        cand = prev[c % kWindow];
      }
    }

    if (best_len >= kMinMatch) {
      flush_literals(i);
      out.push_back(std::byte{0x01});
      put_varint(out, best_len);
      put_varint(out, best_dist);
      // Insert hash entries for the matched region (sparsely for speed).
      const size_t end = i + best_len;
      const size_t stride = best_len > 512 ? 61 : 1;
      for (size_t j = i; j + kMinMatch <= n && j < end; j += stride) {
        const u32 h = hash4(input.data() + j);
        prev[j % kWindow] = head[h];
        head[h] = static_cast<i32>(j);
      }
      i = end;
      lit_start = i;
    } else {
      if (i + kMinMatch <= n) {
        const u32 h = hash4(input.data() + i);
        prev[i % kWindow] = head[h];
        head[h] = static_cast<i32>(i);
      }
      ++i;
    }
  }
  flush_literals(n);
  return out;
}

std::vector<std::byte> lz77_decompress(std::span<const std::byte> tokens,
                                       u64 expected_size) {
  // Every token is bounded by the declared size before it is copied, so the
  // output is sized once and never grows.
  std::vector<std::byte> out(expected_size);
  std::byte* const dst = out.data();
  u64 o = 0;  // bytes produced so far
  size_t pos = 0;
  while (pos < tokens.size()) {
    const u8 op = static_cast<u8>(tokens[pos++]);
    if (op == 0x00) {
      const u64 len = get_varint(tokens, pos);
      DSIM_CHECK_MSG(len <= tokens.size() - pos, "lz77 literal overrun");
      DSIM_CHECK_MSG(len <= expected_size - o, "lz77 size mismatch");
      std::copy_n(tokens.data() + pos, len, dst + o);
      pos += len;
      o += len;
    } else if (op == 0x01) {
      const u64 len = get_varint(tokens, pos);
      const u64 dist = get_varint(tokens, pos);
      DSIM_CHECK_MSG(dist > 0 && dist <= o, "lz77 bad distance");
      DSIM_CHECK_MSG(len <= expected_size - o, "lz77 size mismatch");
      const std::byte* src = dst + (o - dist);
      if (dist >= len) {
        std::copy_n(src, len, dst + o);
      } else {
        // Overlapping match (a run): each byte may be one this copy wrote.
        for (u64 k = 0; k < len; ++k) dst[o + k] = src[k];
      }
      o += len;
    } else {
      DSIM_UNREACHABLE("lz77 bad opcode");
    }
  }
  DSIM_CHECK_MSG(o == expected_size, "lz77 size mismatch");
  return out;
}

}  // namespace dsim::compress
