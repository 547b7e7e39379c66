// CRC32 (IEEE 802.3 polynomial, reflected) -- the seal on bytes that come
// from outside the process: the DLSV frame trailer, the .dlel binary graph
// format's footer and the checkpoint records. The message-passing runtime
// also stamps per-message payload checksums with it, but only on a wire with
// injected message faults (comm/mailbox.hpp).
//
// Slice-by-8: eight constexpr-initialised 256-entry tables let update()
// consume eight bytes per step (two 32-bit loads), about 5x the byte-at-a-
// time loop. Same polynomial and same values as the byte loop, so every
// stored seal stays valid. (Hardware crc32 instructions compute CRC32C, a
// different polynomial, and are not used.) No dependencies.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

namespace dlouvain::util {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// t[0] is the byte-at-a-time table; t[k][i] is t[0][i] carried through k
/// more zero bytes, so eight lookups fold eight bytes at once.
constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
  return t;
}

inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

}  // namespace detail

/// Incremental CRC32. Feed bytes in any chunking; `value()` is the standard
/// (final-xor applied) checksum of everything fed so far.
class Crc32 {
 public:
  void update(const void* data, std::size_t size) noexcept {
    // The word loads below read the stream's first byte into the low byte.
    static_assert(std::endian::native == std::endian::little);
    const auto& t = detail::kCrc32Tables;
    const auto* bytes = static_cast<const unsigned char*>(data);
    std::uint32_t c = state_;
    for (; size >= 8; bytes += 8, size -= 8) {
      std::uint32_t lo = 0;
      std::uint32_t hi = 0;
      std::memcpy(&lo, bytes, 4);
      std::memcpy(&hi, bytes + 4, 4);
      lo ^= c;
      c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^ t[5][(lo >> 16) & 0xffu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
          t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    for (std::size_t i = 0; i < size; ++i) c = t[0][(c ^ bytes[i]) & 0xffu] ^ (c >> 8);
    state_ = c;
  }

  void update(std::span<const std::byte> data) noexcept {
    update(data.data(), data.size());
  }

  [[nodiscard]] std::uint32_t value() const noexcept { return state_ ^ 0xffffffffu; }

 private:
  std::uint32_t state_{0xffffffffu};
};

/// One-shot CRC32 of a byte span.
inline std::uint32_t crc32(std::span<const std::byte> data) noexcept {
  Crc32 crc;
  crc.update(data);
  return crc.value();
}

inline std::uint32_t crc32(const void* data, std::size_t size) noexcept {
  Crc32 crc;
  crc.update(data, size);
  return crc.value();
}

}  // namespace dlouvain::util
