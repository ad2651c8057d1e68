#include "src/radio/fragmentation.h"

#include <algorithm>

namespace diffusion {

std::vector<Fragment> SplitMessage(NodeId src, NodeId dst, uint32_t message_seq, BodyRef body,
                                   size_t max_payload) {
  std::vector<Fragment> fragments;
  const size_t total = body->wire_size();
  const size_t chunk = std::max<size_t>(max_payload, 1);
  const size_t count = total == 0 ? 1 : (total + chunk - 1) / chunk;
  fragments.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Fragment fragment;
    fragment.src = src;
    fragment.dst = dst;
    fragment.message_seq = message_seq;
    fragment.index = static_cast<uint16_t>(i);
    fragment.count = static_cast<uint16_t>(count);
    const size_t begin = i * chunk;
    const size_t end = std::min(total, begin + chunk);
    fragment.body = body;
    fragment.body_offset = static_cast<uint32_t>(begin);
    fragment.payload_len = static_cast<uint16_t>(end - begin);
    fragments.push_back(std::move(fragment));
  }
  return fragments;
}

std::optional<Reassembler::Completed> Reassembler::Add(const Fragment& fragment, SimTime now) {
  Purge(now);
  if (fragment.index >= fragment.count) {
    return std::nullopt;
  }
  const uint64_t key = MakeKey(fragment.src, fragment.message_seq);
  size_t at = 0;
  while (at < pending_.size() && pending_[at].key != key) {
    ++at;
  }
  if (at < pending_.size() && pending_[at].count != fragment.count) {
    // Inconsistent fragment stream (e.g. sender restarted its counter);
    // restart collection from this fragment.
    Erase(at);
    at = pending_.size();
  }
  if (fragment.count == 1) {
    return Completed{fragment.src, fragment.dst, fragment.body};
  }
  if (at == pending_.size()) {
    Partial& partial = pending_.emplace_back();
    partial.key = key;
    partial.first_seen = now;
    partial.dst = fragment.dst;
    partial.count = fragment.count;
    if (fragment.count > 64) {
      partial.have.assign(fragment.count, false);
    }
    // Every fragment of a message shares one body; track arrival only.
    partial.body = fragment.body;
    purge_at_ = std::min(purge_at_, now + timeout_);
  }
  Partial& partial = pending_[at];
  if (MarkArrived(partial, fragment.index)) {
    ++partial.received;
  }
  if (partial.received < partial.count) {
    return std::nullopt;
  }
  Completed completed{fragment.src, partial.dst, std::move(partial.body)};
  Erase(at);
  return completed;
}

bool Reassembler::MarkArrived(Partial& partial, uint16_t index) {
  if (partial.count > 64) {
    if (partial.have[index]) {
      return false;
    }
    partial.have[index] = true;
    return true;
  }
  const uint64_t bit = uint64_t{1} << index;
  if ((partial.have_bits & bit) != 0) {
    return false;
  }
  partial.have_bits |= bit;
  return true;
}

void Reassembler::Erase(size_t i) {
  if (i + 1 != pending_.size()) {
    pending_[i] = std::move(pending_.back());
  }
  pending_.pop_back();
}

void Reassembler::Purge(SimTime now) {
  if (now <= purge_at_) {
    return;
  }
  purge_scans_ += pending_.size();
  purge_at_ = kMaxSimTime;
  for (size_t i = 0; i < pending_.size();) {
    if (now - pending_[i].first_seen > timeout_) {
      Erase(i);
    } else {
      purge_at_ = std::min(purge_at_, pending_[i].first_seen + timeout_);
      ++i;
    }
  }
}

void Reassembler::Clear() {
  pending_.clear();
  purge_at_ = kMaxSimTime;
}

}  // namespace diffusion
