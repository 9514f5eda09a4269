#include "compress/huffman.h"

#include <algorithm>
#include <array>
#include <queue>

#include "util/assertx.h"
#include "util/serialize.h"

namespace dsim::compress {
namespace {

constexpr int kMaxBits = 15;
constexpr int kAlphabet = 256;

/// Compute code lengths from symbol frequencies with a standard
/// two-queue Huffman construction, then clamp to kMaxBits by re-running on
/// dampened frequencies if needed (rare for byte alphabets).
std::array<u8, kAlphabet> code_lengths(std::array<u64, kAlphabet> freq) {
  std::array<u8, kAlphabet> lengths{};
  for (int attempt = 0; attempt < 8; ++attempt) {
    struct HNode {
      u64 weight;
      int left = -1, right = -1;  // indices into nodes; -1 = leaf
      int symbol = -1;
    };
    std::vector<HNode> nodes;
    using Entry = std::pair<u64, int>;  // (weight, node index)
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    for (int s = 0; s < kAlphabet; ++s) {
      if (freq[s] == 0) continue;
      nodes.push_back({freq[s], -1, -1, s});
      heap.emplace(freq[s], static_cast<int>(nodes.size() - 1));
    }
    lengths.fill(0);
    if (heap.empty()) return lengths;
    if (heap.size() == 1) {
      lengths[nodes[heap.top().second].symbol] = 1;
      return lengths;
    }
    while (heap.size() > 1) {
      auto [wa, a] = heap.top();
      heap.pop();
      auto [wb, b] = heap.top();
      heap.pop();
      nodes.push_back({wa + wb, a, b, -1});
      heap.emplace(wa + wb, static_cast<int>(nodes.size() - 1));
    }
    // Depth-first walk to assign depths.
    int root = heap.top().second;
    int max_depth = 0;
    std::vector<std::pair<int, int>> stack{{root, 0}};
    while (!stack.empty()) {
      auto [n, depth] = stack.back();
      stack.pop_back();
      const HNode& node = nodes[static_cast<size_t>(n)];
      if (node.symbol >= 0) {
        lengths[node.symbol] = static_cast<u8>(depth);
        max_depth = std::max(max_depth, depth);
      } else {
        stack.emplace_back(node.left, depth + 1);
        stack.emplace_back(node.right, depth + 1);
      }
    }
    if (max_depth <= kMaxBits) return lengths;
    // Dampen frequencies and retry; flattens the tree.
    for (auto& f : freq) {
      if (f) f = (f >> 2) + 1;
    }
  }
  DSIM_UNREACHABLE("huffman length limiting failed to converge");
}

/// Canonical code assignment from lengths (RFC 1951 style).
std::array<u32, kAlphabet> canonical_codes(
    const std::array<u8, kAlphabet>& lengths) {
  std::array<u32, kAlphabet> codes{};
  std::array<u32, kMaxBits + 2> bl_count{};
  for (int s = 0; s < kAlphabet; ++s) bl_count[lengths[s]]++;
  bl_count[0] = 0;
  std::array<u32, kMaxBits + 2> next_code{};
  u32 code = 0;
  for (int bits = 1; bits <= kMaxBits; ++bits) {
    code = (code + bl_count[bits - 1]) << 1;
    next_code[bits] = code;
  }
  for (int s = 0; s < kAlphabet; ++s) {
    if (lengths[s]) codes[s] = next_code[lengths[s]]++;
  }
  return codes;
}

/// Reverse bit order of `code` over `len` bits. We write LSB-first, so
/// canonical (MSB-first) codes are stored reversed to stay prefix-decodable.
u32 reverse_bits(u32 code, int len) {
  u32 r = 0;
  for (int i = 0; i < len; ++i) {
    r = (r << 1) | ((code >> i) & 1);
  }
  return r;
}

/// The bit patterns actually written: each symbol's canonical code, reversed.
std::array<u32, kAlphabet> reversed_codes(
    const std::array<u8, kAlphabet>& lengths) {
  auto codes = canonical_codes(lengths);
  for (int s = 0; s < kAlphabet; ++s) {
    codes[s] = reverse_bits(codes[s], lengths[s]);
  }
  return codes;
}

constexpr size_t kHeaderBytes = kAlphabet + 8;  // code lengths + u64 count

}  // namespace

std::vector<std::byte> huffman_encode(std::span<const std::byte> input) {
  std::array<u64, kAlphabet> freq{};
  for (std::byte b : input) freq[static_cast<u8>(b)]++;
  const auto lengths = code_lengths(freq);
  const auto codes = reversed_codes(lengths);
  u64 total_bits = 0;
  for (int s = 0; s < kAlphabet; ++s) total_bits += freq[s] * lengths[s];

  // The output is sized exactly from the code-length sum; whole 32-bit
  // words go out as the accumulator fills, the last partial word bytewise.
  std::vector<std::byte> out(kHeaderBytes + (total_bits + 7) / 8);
  for (int s = 0; s < kAlphabet; ++s) {
    out[s] = static_cast<std::byte>(lengths[s]);
  }
  store_le<u64>(out.data() + kAlphabet, input.size());
  std::byte* dst = out.data() + kHeaderBytes;
  u64 acc = 0;
  int fill = 0;
  for (std::byte b : input) {
    const int s = static_cast<u8>(b);
    acc |= static_cast<u64>(codes[s]) << fill;
    fill += lengths[s];
    if (fill >= 32) {
      store_le<u32>(dst, static_cast<u32>(acc));
      dst += 4;
      acc >>= 32;
      fill -= 32;
    }
  }
  for (; fill > 0; fill -= 8, acc >>= 8) *dst++ = static_cast<std::byte>(acc);
  return out;
}

std::vector<std::byte> huffman_decode(std::span<const std::byte> input) {
  ByteReader reader(input);
  std::array<u8, kAlphabet> lengths{};
  int max_len = 0;
  for (int s = 0; s < kAlphabet; ++s) {
    lengths[s] = reader.get_u8();
    DSIM_CHECK_MSG(lengths[s] <= kMaxBits, "corrupt huffman stream");
    max_len = std::max<int>(max_len, lengths[s]);
  }
  const u64 count = reader.get_u64();
  const auto payload = reader.get_bytes(reader.remaining());
  // Every symbol costs at least one bit.
  DSIM_CHECK_MSG(count <= 8 * static_cast<u64>(payload.size()),
                 "corrupt huffman stream");
  const auto codes = reversed_codes(lengths);

  // Direct-indexed decode table over the next max_len bits (LSB-first),
  // each entry mapping to (symbol, length). No code is longer than
  // max_len, so a wider table would only repeat this one with period
  // 2^max_len: sizing it to the stream's own longest code decodes
  // identically — corrupt code sets included — at a fraction of the set-up.
  struct Entry {
    i16 symbol = -1;
    u8 len = 0;
  };
  std::vector<Entry> table(size_t{1} << max_len);
  const u64 mask = table.size() - 1;
  for (int s = 0; s < kAlphabet; ++s) {
    const int len = lengths[s];
    if (!len) continue;
    // All table slots whose low `len` bits equal the code decode to s.
    for (size_t idx = codes[s]; idx < table.size(); idx += size_t{1} << len) {
      table[idx] = {static_cast<i16>(s), static_cast<u8>(len)};
    }
  }

  std::vector<std::byte> out(count);
  // Bits past the end of the payload read as zeros; `fill` goes negative
  // as a symbol consumes them, and a symbol needing more than kMaxBits of
  // them is corrupt.
  const std::byte* const in = payload.data();
  const size_t in_size = payload.size();
  u64 acc = 0;
  int fill = 0;
  size_t pos = 0;
  for (u64 i = 0; i < count; ++i) {
    if (fill < kMaxBits) {
      if (in_size - pos >= 8) {
        // One 8-byte load tops the accumulator up to 56..63 valid bits.
        acc |= load_le<u64>(in + pos) << fill;
        pos += static_cast<size_t>(63 - fill) / 8;
        fill |= 56;
      } else {
        while (fill < kMaxBits && pos < in_size) {
          acc |= static_cast<u64>(static_cast<u8>(in[pos++])) << fill;
          fill += 8;
        }
      }
    }
    const Entry e = table[acc & mask];
    DSIM_CHECK_MSG(e.symbol >= 0 && e.len > 0 && e.len <= fill + kMaxBits,
                   "corrupt huffman stream");
    out[i] = static_cast<std::byte>(e.symbol);
    acc >>= e.len;
    fill -= e.len;
  }
  return out;
}

}  // namespace dsim::compress
