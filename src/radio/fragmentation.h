// Fragmentation and reassembly.
//
// The testbed radios carried small packets: "all messages are broken into
// several 27-byte fragments, loss of a single fragment results in loss of
// the whole message" (§6.1). Modelling this matters because it amplifies
// per-packet loss into message loss under congestion.

#ifndef SRC_RADIO_FRAGMENTATION_H_
#define SRC_RADIO_FRAGMENTATION_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/radio/position.h"
#include "src/radio/wire_body.h"
#include "src/util/time.h"

namespace diffusion {

// One link-layer fragment of a message: the fragment header plus a handle
// to the whole message body. The fragment covers body bytes
// [body_offset, body_offset + payload_len); every fragment of a message
// shares one body, so nothing is copied per fragment or per receiver.
struct Fragment {
  NodeId src = 0;
  NodeId dst = kBroadcastId;
  uint32_t message_seq = 0;  // per-sender message counter
  uint16_t index = 0;
  uint16_t count = 1;
  // Transmit-side priority class for the MAC's congestion drop policy and
  // per-class rate limiting. Link metadata only — not part of the header.
  uint8_t priority = 1;  // MacPriority::kData
  BodyRef body;
  uint32_t body_offset = 0;
  uint16_t payload_len = 0;

  // Wire bytes of the fragment header (src + dst + seq + index + count + len).
  static constexpr size_t kHeaderBytes = 4 + 4 + 4 + 2 + 2 + 2;

  size_t WireSize() const { return kHeaderBytes + payload_len; }
};

// Splits `body` into fragments covering at most `max_payload` bytes each.
// A zero-length body yields a single empty fragment.
std::vector<Fragment> SplitMessage(NodeId src, NodeId dst, uint32_t message_seq, BodyRef body,
                                   size_t max_payload);

// Collects fragments until a message completes. Incomplete messages are
// purged after `timeout`; a message with a lost fragment therefore never
// surfaces, matching the no-ARQ radio.
//
// Partial messages live in one flat vector keyed by (src, seq), each with an
// inline arrival bitmask (a separate bit vector only past 64 fragments), so
// collecting a message allocates nothing per message, and a single-fragment
// message completes without being stored at all. Purging is gated by a
// watermark, the earliest time any partial can expire (oldest first_seen +
// timeout): Purge scans the partials only once `now` passes it. A fragment
// whose index is not below its count is malformed and is dropped.
class Reassembler {
 public:
  explicit Reassembler(SimDuration timeout) : timeout_(timeout) {}

  struct Completed {
    NodeId src;
    NodeId dst;
    BodyRef body;  // the whole message
  };

  // Adds a fragment; returns the completed message if this was the last
  // missing piece. `now` drives timeout-based purging.
  std::optional<Completed> Add(const Fragment& fragment, SimTime now);

  // Drops partial messages older than the timeout.
  void Purge(SimTime now);

  // Drops every partial message (a dead radio keeps no reassembly state).
  void Clear();

  size_t pending() const { return pending_.size(); }

  // Partials visited by Purge's expiry scans (a work counter).
  uint64_t purge_scans() const { return purge_scans_; }

 private:
  struct Partial {
    uint64_t key = 0;  // MakeKey(src, seq)
    SimTime first_seen = 0;
    NodeId dst = 0;
    uint16_t count = 0;
    uint16_t received = 0;
    uint64_t have_bits = 0;  // arrival bits when count <= 64
    std::vector<bool> have;  // arrival bits when count > 64
    BodyRef body;
  };
  static uint64_t MakeKey(NodeId src, uint32_t seq) {
    return (static_cast<uint64_t>(src) << 32) | seq;
  }
  // Marks fragment `index` of `partial` arrived; false if it already had.
  static bool MarkArrived(Partial& partial, uint16_t index);
  // Removes pending_[i] (order of the rest is not kept).
  void Erase(size_t i);

  SimDuration timeout_;
  std::vector<Partial> pending_;
  SimTime purge_at_ = kMaxSimTime;  // no partial expires until now passes this
  uint64_t purge_scans_ = 0;
};

}  // namespace diffusion

#endif  // SRC_RADIO_FRAGMENTATION_H_
