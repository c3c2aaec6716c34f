// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) — the checksum used by the
// model snapshot format to detect corrupt checkpoints before they are rolled
// back into a live pipeline.
//
// Incremental interface so callers can stream large arrays without
// concatenating them in memory.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mog {

class Crc32 {
 public:
  void update(const void* data, std::size_t bytes);
  /// Finalized checksum of everything fed so far (update() may continue).
  std::uint32_t value() const { return state_ ^ 0xffffffffu; }

 private:
  std::uint32_t state_ = 0xffffffffu;
};

/// One-shot convenience over a single buffer.
std::uint32_t crc32(const void* data, std::size_t bytes);

namespace detail {
/// The one-byte-per-step table loop over a raw (unfinalized) CRC state:
/// the reference Crc32::update's eight-bytes-per-step loop is tested
/// against.
std::uint32_t crc32_bytewise(std::uint32_t state, const void* data,
                             std::size_t bytes);
}  // namespace detail

}  // namespace mog
