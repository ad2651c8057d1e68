// Wire bodies: the one form a message takes on the simulated radio.
//
// A message is sent as a refcounted handle to its body. Every fragment of
// the message holds the same handle plus the byte range it covers, and
// every receiver that reassembles the message gets the same body back. The
// radio only *accounts* for bytes in flight (fragment counts, airtime,
// Figure-8 byte totals), so every size-derived quantity is computed from
// wire_size(); AppendBytes() materializes the exact encoding for receivers
// that parse bytes.
//
// Two concrete bodies exist: MessageBody (src/core/message_body.h) wraps a
// structured diffusion Message, and ByteBody below wraps bytes — from a
// sender that holds bytes (Radio::SendMessage) or from a frame bridged in
// from another region (src/radio/region_bridge.cc).
//
// The refcount is intrusive and non-atomic: a body never leaves its
// simulation thread. Recycle() gives the concrete type its storage back
// (bodies are pooled through the simulator's SlotPool).

#ifndef SRC_RADIO_WIRE_BODY_H_
#define SRC_RADIO_WIRE_BODY_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/arena.h"

namespace diffusion {

class BodyRef;

class WireBody {
 public:
  WireBody(const WireBody&) = delete;
  WireBody& operator=(const WireBody&) = delete;

  // Exact byte count of the encoded body.
  virtual size_t wire_size() const = 0;

  // Appends the encoded bytes to `out`.
  virtual void AppendBytes(std::vector<uint8_t>* out) const = 0;

 protected:
  WireBody() = default;
  virtual ~WireBody() = default;

  // Called when the last BodyRef drops; the implementation returns its
  // storage to whatever pool issued it.
  virtual void Recycle() = 0;

 private:
  friend class BodyRef;
  mutable uint32_t refs_ = 0;
};

// Intrusive smart pointer over WireBody. Copies bump a plain (non-atomic)
// count: no control-block allocation, no contention — one simulation is one
// thread.
class BodyRef {
 public:
  BodyRef() = default;
  explicit BodyRef(const WireBody* body) : body_(body) {
    if (body_ != nullptr) {
      ++body_->refs_;
    }
  }
  BodyRef(const BodyRef& other) : body_(other.body_) {
    if (body_ != nullptr) {
      ++body_->refs_;
    }
  }
  BodyRef(BodyRef&& other) noexcept : body_(other.body_) { other.body_ = nullptr; }
  BodyRef& operator=(BodyRef other) noexcept {
    std::swap(body_, other.body_);
    return *this;
  }
  ~BodyRef() { Drop(); }

  const WireBody* get() const { return body_; }
  const WireBody& operator*() const { return *body_; }
  const WireBody* operator->() const { return body_; }
  explicit operator bool() const { return body_ != nullptr; }

  void reset() { Drop(); }

 private:
  void Drop() {
    if (body_ != nullptr && --body_->refs_ == 0) {
      const_cast<WireBody*>(body_)->Recycle();
    }
    body_ = nullptr;
  }

  const WireBody* body_ = nullptr;
};

// A body over an owned byte vector.
class ByteBody final : public WireBody {
 public:
  // Builds a pooled body holding `bytes`; the body returns to `pool` when
  // the last BodyRef drops.
  static BodyRef Make(SlotPool* pool, std::vector<uint8_t> bytes) {
    Pool<ByteBody> typed(pool);
    return BodyRef(typed.New(pool, std::move(bytes)));
  }

  size_t wire_size() const override { return bytes_.size(); }

  void AppendBytes(std::vector<uint8_t>* out) const override {
    out->insert(out->end(), bytes_.begin(), bytes_.end());
  }

 private:
  friend class Pool<ByteBody>;  // placement-constructs and destroys bodies

  ByteBody(SlotPool* pool, std::vector<uint8_t> bytes) : pool_(pool), bytes_(std::move(bytes)) {}

  void Recycle() override {
    SlotPool* pool = pool_;  // survives destruction below
    Pool<ByteBody> typed(pool);
    typed.Delete(this);
  }

  SlotPool* pool_;
  std::vector<uint8_t> bytes_;
};

}  // namespace diffusion

#endif  // SRC_RADIO_WIRE_BODY_H_
