#include "ckptstore/erasure.h"

#include <algorithm>
#include <array>
#include <map>

#include "sim/model_params.h"
#include "util/assertx.h"

namespace dsim::ckptstore::erasure {

namespace {

// GF(2^8) with the AES/ECC-standard primitive polynomial x^8+x^4+x^3+x^2+1
// (0x11D). exp table doubled so mul can skip the mod-255 reduction.
struct Field {
  std::array<u8, 512> exp{};
  std::array<u8, 256> log{};

  Field() {
    u16 x = 1;
    for (int i = 0; i < 255; ++i) {
      exp[static_cast<size_t>(i)] = static_cast<u8>(x);
      log[x] = static_cast<u8>(i);
      x <<= 1;
      if (x & 0x100) x ^= 0x11D;
    }
    for (int i = 255; i < 512; ++i) {
      exp[static_cast<size_t>(i)] = exp[static_cast<size_t>(i - 255)];
    }
  }

  u8 mul(u8 a, u8 b) const {
    if (a == 0 || b == 0) return 0;
    return exp[static_cast<size_t>(log[a]) + static_cast<size_t>(log[b])];
  }
  u8 inv(u8 a) const {
    DSIM_CHECK_MSG(a != 0, "GF(2^8) inverse of zero");
    return exp[255 - static_cast<size_t>(log[a])];
  }
  u8 pow(u8 a, int e) const {
    if (e == 0) return 1;
    if (a == 0) return 0;
    return exp[(static_cast<size_t>(log[a]) * static_cast<size_t>(e)) % 255];
  }
};

const Field& gf() {
  static const Field f;
  return f;
}

using Matrix = std::vector<std::vector<u8>>;

/// Invert a square GF(2^8) matrix by Gauss-Jordan elimination. The matrices
/// here are k-row submatrices of the systematic encoding matrix, which the
/// Vandermonde construction guarantees are invertible.
Matrix invert(Matrix a) {
  const size_t n = a.size();
  Matrix inv(n, std::vector<u8>(n, 0));
  for (size_t i = 0; i < n; ++i) inv[i][i] = 1;
  const Field& f = gf();
  for (size_t col = 0; col < n; ++col) {
    size_t pivot = col;
    while (pivot < n && a[pivot][col] == 0) ++pivot;
    DSIM_CHECK_MSG(pivot < n, "erasure decode matrix is singular");
    std::swap(a[pivot], a[col]);
    std::swap(inv[pivot], inv[col]);
    const u8 scale = f.inv(a[col][col]);
    for (size_t j = 0; j < n; ++j) {
      a[col][j] = f.mul(a[col][j], scale);
      inv[col][j] = f.mul(inv[col][j], scale);
    }
    for (size_t row = 0; row < n; ++row) {
      if (row == col || a[row][col] == 0) continue;
      const u8 factor = a[row][col];
      for (size_t j = 0; j < n; ++j) {
        a[row][j] = static_cast<u8>(a[row][j] ^ f.mul(factor, a[col][j]));
        inv[row][j] =
            static_cast<u8>(inv[row][j] ^ f.mul(factor, inv[col][j]));
      }
    }
  }
  return inv;
}

Matrix multiply(const Matrix& a, const Matrix& b) {
  const Field& f = gf();
  Matrix out(a.size(), std::vector<u8>(b[0].size(), 0));
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b[0].size(); ++j) {
      u8 acc = 0;
      for (size_t t = 0; t < b.size(); ++t) {
        acc = static_cast<u8>(acc ^ f.mul(a[i][t], b[t][j]));
      }
      out[i][j] = acc;
    }
  }
  return out;
}

/// The (k+m)×k systematic encoding matrix: Vandermonde over evaluation
/// points 0..k+m-1, column-reduced so the top k rows are the identity.
/// Column operations preserve the all-k-row-submatrices-invertible property
/// of the Vandermonde matrix, which is exactly what reconstruct() relies
/// on. Cached per (k, m) — the simulation is single-threaded.
const Matrix& encoding_matrix(int k, int m) {
  static std::map<std::pair<int, int>, Matrix> cache;
  auto [it, fresh] = cache.try_emplace({k, m});
  if (!fresh) return it->second;
  const Field& f = gf();
  const int rows = k + m;
  Matrix vand(static_cast<size_t>(rows), std::vector<u8>(
                                             static_cast<size_t>(k), 0));
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < k; ++c) {
      // 0^0 == 1 here, so row 0 is [1, 0, ..., 0].
      vand[static_cast<size_t>(r)][static_cast<size_t>(c)] =
          c == 0 ? 1 : f.pow(static_cast<u8>(r), c);
    }
  }
  Matrix top(vand.begin(), vand.begin() + k);
  it->second = multiply(vand, invert(std::move(top)));
  return it->second;
}

}  // namespace

std::vector<std::vector<std::byte>> encode(std::span<const std::byte> data,
                                           int k, int m) {
  DSIM_CHECK_MSG(k >= 1 && m >= 0 && k + m <= 255,
                 "erasure profile must satisfy 1 <= k, 0 <= m, k+m <= 255");
  const u64 frag = fragment_bytes(data.size(), k);
  std::vector<std::vector<std::byte>> out(
      static_cast<size_t>(k + m), std::vector<std::byte>(frag, std::byte{0}));
  // Systematic data fragments: the container split k ways, zero-padded.
  for (u64 pos = 0; pos < data.size(); ++pos) {
    out[static_cast<size_t>(pos / frag)][static_cast<size_t>(pos % frag)] =
        data[pos];
  }
  const Matrix& e = encoding_matrix(k, m);
  const Field& f = gf();
  for (int j = 0; j < m; ++j) {
    const auto& row = e[static_cast<size_t>(k + j)];
    auto& parity = out[static_cast<size_t>(k + j)];
    for (u64 b = 0; b < frag; ++b) {
      u8 acc = 0;
      for (int i = 0; i < k; ++i) {
        acc = static_cast<u8>(
            acc ^ f.mul(row[static_cast<size_t>(i)],
                        static_cast<u8>(out[static_cast<size_t>(i)]
                                           [static_cast<size_t>(b)])));
      }
      parity[static_cast<size_t>(b)] = std::byte{acc};
    }
  }
  return out;
}

std::vector<std::byte> reconstruct(
    const std::vector<std::pair<int, std::vector<std::byte>>>& fragments,
    int k, int m, u64 orig_len) {
  if (fragments.size() < static_cast<size_t>(k)) return {};  // > m losses
  const u64 frag = fragment_bytes(orig_len, k);
  const Matrix& e = encoding_matrix(k, m);
  // Any k supplied fragments determine the data: gather their encoding
  // rows, invert, and multiply the fragment bytes back through.
  Matrix rows(static_cast<size_t>(k));
  std::vector<const std::vector<std::byte>*> shards(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    const auto& [idx, bytes] = fragments[static_cast<size_t>(i)];
    DSIM_CHECK_MSG(idx >= 0 && idx < k + m,
                   "erasure fragment index out of range");
    DSIM_CHECK_MSG(bytes.size() == frag,
                   "erasure fragment length mismatch");
    rows[static_cast<size_t>(i)] = e[static_cast<size_t>(idx)];
    shards[static_cast<size_t>(i)] = &bytes;
  }
  const Matrix dec = invert(std::move(rows));
  const Field& f = gf();
  std::vector<std::byte> out(orig_len);
  for (int d = 0; d < k; ++d) {
    const auto& row = dec[static_cast<size_t>(d)];
    const u64 base = static_cast<u64>(d) * frag;
    if (base >= orig_len) break;
    const u64 take = std::min(frag, orig_len - base);
    for (u64 b = 0; b < take; ++b) {
      u8 acc = 0;
      for (int i = 0; i < k; ++i) {
        acc = static_cast<u8>(
            acc ^ f.mul(row[static_cast<size_t>(i)],
                        static_cast<u8>((*shards[static_cast<size_t>(i)])
                                            [static_cast<size_t>(b)])));
      }
      out[static_cast<size_t>(base + b)] = std::byte{acc};
    }
  }
  return out;
}

double encode_seconds(u64 bytes, int k, int m) {
  if (k == 1) return 0;
  return static_cast<double>(bytes) * static_cast<double>(m) /
         static_cast<double>(k) / sim::params::kErasureBw;
}

double decode_seconds(u64 bytes, int k) {
  if (k == 1) return 0;
  return static_cast<double>(bytes) / sim::params::kErasureBw;
}

u64 store_wire_bytes(u64 bytes, int k, int m) {
  if (k == 1) return bytes;
  return fragment_bytes(bytes, k) * static_cast<u64>(k + m);
}

}  // namespace dsim::ckptstore::erasure
