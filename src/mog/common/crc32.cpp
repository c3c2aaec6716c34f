#include "mog/common/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace mog {

namespace {

using Table = std::array<std::uint32_t, 256>;

/// Slicing-by-8 tables: t[0] is the classic one-byte table; t[k][i] is the
/// CRC of byte i followed by k zero bytes, so eight table lookups advance
/// the state over eight input bytes at once.
std::array<Table, 8> make_tables() {
  std::array<Table, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
  return t;
}

const std::array<Table, 8>& tables() {
  static const std::array<Table, 8> t = make_tables();
  return t;
}

}  // namespace

std::uint32_t detail::crc32_bytewise(std::uint32_t state, const void* data,
                                     std::size_t bytes) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  const Table& t = tables()[0];
  for (std::size_t i = 0; i < bytes; ++i)
    state = t[(state ^ p[i]) & 0xffu] ^ (state >> 8);
  return state;
}

void Crc32::update(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = state_;
  if constexpr (std::endian::native == std::endian::little) {
    const auto& t = tables();
    for (; bytes >= 8; p += 8, bytes -= 8) {
      std::uint32_t lo, hi;  // memcpy: any alignment
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= c;
      c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
  }
  state_ = detail::crc32_bytewise(c, p, bytes);
}

std::uint32_t crc32(const void* data, std::size_t bytes) {
  Crc32 c;
  c.update(data, bytes);
  return c.value();
}

}  // namespace mog
