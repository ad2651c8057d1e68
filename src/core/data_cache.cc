#include "src/core/data_cache.h"

#include <algorithm>

namespace diffusion {

size_t DataCache::Home(uint64_t id) const {
  // Fibonacci hashing: packet ids are (origin << 32) | seq, so the high
  // bits of the product mix both halves.
  return static_cast<size_t>((id * 0x9E3779B97F4A7C15ull) >> (64 - table_bits_));
}

size_t DataCache::Find(uint64_t id) const {
  if (count_ == 0) {
    return kNotFound;
  }
  const size_t mask = table_.size() - 1;
  for (size_t slot = Home(id);; slot = (slot + 1) & mask) {
    const uint32_t entry = table_[slot];
    if (entry == 0) {
      return kNotFound;
    }
    if (ring_[entry - 1] == id) {
      return slot;
    }
  }
}

void DataCache::InsertPosition(uint64_t id, uint32_t pos) {
  const size_t mask = table_.size() - 1;
  size_t slot = Home(id);
  while (table_[slot] != 0) {
    slot = (slot + 1) & mask;
  }
  table_[slot] = pos + 1;
}

void DataCache::EraseSlot(size_t slot) {
  const size_t mask = table_.size() - 1;
  size_t hole = slot;
  for (size_t next = (hole + 1) & mask; table_[next] != 0; next = (next + 1) & mask) {
    const size_t home = Home(ring_[table_[next] - 1]);
    // The entry at `next` may move back into the hole only if its home slot
    // does not lie cyclically in (hole, next].
    const bool stays = hole <= next ? (hole < home && home <= next) : (hole < home || home <= next);
    if (!stays) {
      table_[hole] = table_[next];
      hole = next;
    }
  }
  table_[hole] = 0;
}

void DataCache::Grow(size_t ring_size) {
  std::vector<uint64_t> ring(ring_size);
  for (size_t i = 0; i < count_; ++i) {
    ring[i] = ring_[(head_ + i) % ring_.size()];
  }
  ring_ = std::move(ring);
  head_ = 0;
  // At most half full: probe chains stay short.
  table_bits_ = 1;
  while ((size_t{1} << table_bits_) < 2 * ring_size) {
    ++table_bits_;
  }
  table_.assign(size_t{1} << table_bits_, 0);
  for (size_t i = 0; i < count_; ++i) {
    InsertPosition(ring_[i], static_cast<uint32_t>(i));
  }
}

bool DataCache::CheckAndInsert(uint64_t id) {
  if (Find(id) != kNotFound) {
    ++hits_;
    return true;
  }
  if (capacity_ == 0) {
    return false;
  }
  if (count_ == ring_.size() && ring_.size() < capacity_) {
    Grow(std::min(capacity_, std::max(kInitialRing, 2 * ring_.size())));
  }
  size_t pos = head_;
  if (count_ < ring_.size()) {
    pos += count_;
    if (pos >= ring_.size()) {
      pos -= ring_.size();
    }
    ++count_;
  } else {
    // Full at capacity: the oldest id gives up its position.
    EraseSlot(Find(ring_[pos]));
    if (++head_ == ring_.size()) {
      head_ = 0;
    }
  }
  ring_[pos] = id;
  InsertPosition(id, static_cast<uint32_t>(pos));
  return false;
}

void DataCache::Clear() {
  std::fill(table_.begin(), table_.end(), 0);
  head_ = 0;
  count_ = 0;
}

bool DataCache::ConsistencyCheck() const {
  size_t filled = 0;
  for (const uint32_t entry : table_) {
    if (entry == 0) {
      continue;
    }
    ++filled;
    const size_t pos = entry - 1;
    // The position must be live...
    if (pos >= ring_.size() || (pos + ring_.size() - head_) % ring_.size() >= count_) {
      return false;
    }
  }
  if (filled != count_) {
    return false;
  }
  // ...and each live id must be found at its own position.
  for (size_t i = 0; i < count_; ++i) {
    const size_t pos = (head_ + i) % ring_.size();
    const size_t slot = Find(ring_[pos]);
    if (slot == kNotFound || table_[slot] - 1 != pos) {
      return false;
    }
  }
  return true;
}

}  // namespace diffusion
