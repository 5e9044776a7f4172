// Message type of the tasklet runtime.
//
// Addressing is *logical*: (replica, node_index, slot). The cluster
// resolves a logical node index to whatever physical node currently plays
// that role, so a spare node that replaced a crashed one transparently
// receives its traffic — exactly the fail-over model of §2.1.
//
// Payloads are shared immutable Buffers: a broadcast fans one allocation
// out to every recipient, and a buddy checkpoint travels as an attachment
// that aliases the sender's stored image (zero-copy transfer).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "buf/buffer.h"
#include "common/require.h"
#include "pup/pup.h"

namespace acr::rt {

/// Slot value addressing the per-node ACR service agent instead of a task.
constexpr int kServiceSlot = -1;

/// Modelled per-message envelope overhead (headers, matching metadata)
/// charged by the latency model on top of the payload bytes.
constexpr std::size_t kMessageHeaderBytes = 64;

struct TaskAddr {
  int node_index = 0;  ///< logical node within the replica
  int slot = 0;        ///< task slot on that node, or kServiceSlot

  friend bool operator==(const TaskAddr&, const TaskAddr&) = default;
};

struct Message {
  int tag = 0;
  int src_replica = 0;
  int dst_replica = 0;
  TaskAddr src{};
  TaskAddr dst{};
  /// Sender replica's app epoch at send time (task messages only); stale
  /// epochs are dropped at delivery after a rollback.
  std::uint64_t app_epoch = 0;
  /// Control payload (a packed wire struct). Shared, not copied, across
  /// broadcast recipients.
  buf::Buffer payload;
  /// Bulk side-channel: checkpoint image bytes riding along with the
  /// payload header. Aliases the sender's buffer — the simulated transfer
  /// costs latency (see bytes_on_wire), not memory.
  buf::Buffer attachment;

  std::size_t size_bytes() const {
    return payload.size() + attachment.size() + kMessageHeaderBytes;
  }
};

/// Builder used by pack_payload for protocol messages: one arena per
/// payload, recycled through the builder's retired slots once the messages
/// holding them are delivered. A protocol payload can wait long (an
/// unacked frame on a lossy wire is kept for retransmission), so it does
/// not share an arena that it would pin. Thread-local so consecutive packs
/// on the engine thread reuse arenas.
inline buf::BufferBuilder& payload_builder() {
  thread_local buf::BufferBuilder builder;
  return builder;
}

/// Arena size of the app payload builder: about 80 small app messages
/// share one.
constexpr std::size_t kAppPayloadArenaBytes = 16 * 1024;

/// Builder for app message payloads, in shared-arena mode: payloads are
/// packed back to back, so one costs its own bytes and no allocation, and
/// an arena is recycled once every message in it is gone. App messages
/// live from send to delivery only; the receiver copies out what it keeps.
inline buf::BufferBuilder& app_payload_builder() {
  thread_local buf::BufferBuilder builder(kAppPayloadArenaBytes);
  return builder;
}

/// Encode a pup-able value as a message payload.
template <typename T>
buf::Buffer pack_payload(T& value) {
  pup::Packer p(payload_builder());
  p | value;
  return p.take_buffer();
}

/// Decode a payload produced by pack_payload.
template <typename T>
T unpack_payload(std::span<const std::byte> payload) {
  T value{};
  pup::Unpacker u(payload);
  u | value;
  ACR_REQUIRE(u.exhausted(), "payload has trailing bytes");
  return value;
}

template <typename T>
T unpack_payload(const Message& m) {
  return unpack_payload<T>(m.payload.bytes());
}

}  // namespace acr::rt
