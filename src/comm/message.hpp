// Wire representation for the message-passing runtime.
//
// Payloads are opaque byte buffers; the typed API in comm.hpp restricts
// itself to trivially-copyable element types, exactly the constraint MPI
// datatypes impose on the original implementation.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "util/types.hpp"

namespace dlouvain::comm {

/// Message tags. User code uses tags >= 0; the collective implementations
/// reserve the negative space so they never match user traffic.
using Tag = int;

struct Message {
  Rank src{-1};
  Tag tag{0};
  std::vector<std::byte> payload;

  // Wire-integrity metadata, stamped by the destination mailbox as the
  // message is enqueued (the in-process analogue of a transport header).
  // `seq` numbers the (src, tag) stream for duplicate suppression; `crc` is
  // the CRC32 of the payload at send time, verified on receive -- stamped
  // only on a wire with injected message faults, 0 otherwise; `visible_at`
  // implements injected delivery delays (epoch = immediately visible);
  // `arrived_at` records the enqueue instant, so receivers can tell how long
  // a buffer sat waiting -- the raw input of the overlap telemetry's
  // comm_hidden accounting (effective arrival = max(arrived_at, visible_at)).
  std::uint64_t seq{0};
  std::uint32_t crc{0};
  std::chrono::steady_clock::time_point visible_at{};
  std::chrono::steady_clock::time_point arrived_at{};

  /// When the message became (or becomes) deliverable: enqueue time, pushed
  /// back by any injected delay.
  [[nodiscard]] std::chrono::steady_clock::time_point effective_arrival() const {
    return visible_at > arrived_at ? visible_at : arrived_at;
  }
};

/// Deserialize a byte buffer into a vector of T. The buffer size must be a
/// multiple of sizeof(T); enforced by the caller (same-typed send/recv).
template <typename T>
std::vector<T> from_bytes(const std::vector<std::byte>& bytes) {
  static_assert(std::is_trivially_copyable_v<T>,
                "message elements must be trivially copyable");
  std::vector<T> data(bytes.size() / sizeof(T));
  if (!bytes.empty()) std::memcpy(data.data(), bytes.data(), bytes.size());
  return data;
}

}  // namespace dlouvain::comm
