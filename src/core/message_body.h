// Pooled message bodies.
//
// MessageBody is the WireBody (src/radio/wire_body.h) a DiffusionNode
// sends: the structured Message itself, shared by every fragment and every
// receiver, so no hop serializes or parses it. The attribute set inside
// travels by copy-on-write, so the interned ids and cached hashes the
// sender computed ride along to every receiver. AppendBytes gives the exact
// encoding to receivers that parse bytes (e.g. a micro node on a shared
// channel).
//
// Bodies are recycled through the Simulator's SlotPool: steady-state
// forwarding allocates nothing (the CoW attribute Rep is shared, the body
// slot is reused LIFO).

#ifndef SRC_CORE_MESSAGE_BODY_H_
#define SRC_CORE_MESSAGE_BODY_H_

#include <vector>

#include "src/core/message.h"
#include "src/radio/wire_body.h"
#include "src/util/arena.h"
#include "src/util/byte_buffer.h"

namespace diffusion {

class MessageBody final : public WireBody {
 public:
  // Builds a pooled body carrying a copy of `message` (cheap: the attribute
  // storage is shared copy-on-write). The body returns to `pool` when the
  // last BodyRef drops.
  static BodyRef Make(SlotPool* pool, const Message& message) {
    Pool<MessageBody> typed(pool);
    return BodyRef(typed.New(pool, message));
  }

  // The structured message. last_hop/next_hop are the *sender's* link
  // context — receivers must overwrite them (see
  // DiffusionNode::OnRadioReceive), exactly as Deserialize leaves them at
  // defaults.
  const Message& message() const { return message_; }

  size_t wire_size() const override { return wire_size_; }

  void AppendBytes(std::vector<uint8_t>* out) const override {
    ByteWriter writer;
    message_.SerializeInto(&writer);
    out->insert(out->end(), writer.data().begin(), writer.data().end());
  }

 private:
  friend class Pool<MessageBody>;  // placement-constructs and destroys bodies

  MessageBody(SlotPool* pool, const Message& message)
      : pool_(pool), message_(message), wire_size_(message.WireSize()) {}

  void Recycle() override {
    SlotPool* pool = pool_;  // survives destruction below
    Pool<MessageBody> typed(pool);
    typed.Delete(this);
  }

  SlotPool* pool_;
  Message message_;
  size_t wire_size_;
};

}  // namespace diffusion

#endif  // SRC_CORE_MESSAGE_BODY_H_
