// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected, slice-by-8).
//
// Guards every durable artifact the checkpoint/resume subsystem trusts after
// a crash: Special Rows Area row payloads and the pipeline checkpoint
// manifest. A CRC mismatch on load means the bytes on disk are not the bytes
// that were written — the loader refuses them with a diagnostic instead of
// resuming from corrupt state.
//
// Every special row is checksummed once when written and once when read, so
// the checksum runs at row-flush rate. Slice-by-8 consumes eight bytes per
// step through eight lookup tables (table k maps a byte to its CRC after k
// further zero bytes), about 5x the byte-at-a-time loop, with identical values.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace cudalign::common {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

[[nodiscard]] constexpr Crc32Tables crc32_tables() {
  Crc32Tables tables{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][n] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t n = 0; n < 256; ++n) {
      const std::uint32_t prev = tables[k - 1][n];
      tables[k][n] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

inline constexpr Crc32Tables kCrc32Tables = crc32_tables();

/// Little-endian 32-bit load; compiles to one unaligned load on x86.
[[nodiscard]] inline std::uint32_t load_le32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace detail

/// Incrementally extends `crc` (pass the result of a previous call, or 0 for
/// the first chunk) over `size` bytes at `data`.
[[nodiscard]] inline std::uint32_t crc32_update(std::uint32_t crc, const void* data,
                                                std::size_t size) noexcept {
  const auto& t = detail::kCrc32Tables;
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (; size >= 8; bytes += 8, size -= 8) {
    const std::uint32_t lo = c ^ detail::load_le32(bytes);
    const std::uint32_t hi = detail::load_le32(bytes + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
        t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    c = t[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

/// One-shot CRC-32 of a byte buffer.
[[nodiscard]] inline std::uint32_t crc32(const void* data, std::size_t size) noexcept {
  return crc32_update(0, data, size);
}

[[nodiscard]] inline std::uint32_t crc32(std::string_view text) noexcept {
  return crc32(text.data(), text.size());
}

}  // namespace cudalign::common
