#include "util/crc32.h"

#include <array>

#include "util/serialize.h"

namespace dsim {
namespace {

// Slicing-by-8: kTables[0] is the classic bytewise table; kTables[k][b] is
// the CRC of byte b followed by k zero bytes, so eight table lookups fold
// eight input bytes into the register at once.
using Tables = std::array<std::array<u32, 256>, 8>;

constexpr Tables make_tables() {
  Tables t{};
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (u32 i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

}  // namespace

u32 crc32_update(u32 crc, std::span<const std::byte> data) {
  u32 c = crc ^ 0xFFFFFFFFu;
  const std::byte* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const u32 lo = load_le<u32>(p) ^ c;
    const u32 hi = load_le<u32>(p + 4);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = kTables[0][(c ^ static_cast<u32>(*p)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace dsim
