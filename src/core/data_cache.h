// Duplicate/loop-suppression cache (paper §3.1).
//
// "The core diffusion mechanism uses the cache to suppress duplicate
// messages and prevent loops." Entries are packet ids (origin + sequence),
// which survive re-broadcast, so a flooded message is processed at most once
// per node. Bounded FIFO eviction keeps memory constant.
//
// Storage is flat, like the static arrays of the paper's micro-diffusion:
// a FIFO ring holds the cached ids in insertion order, and an
// open-addressing table (linear probing, backward-shift deletion) maps an
// id to its ring position. Eviction overwrites the ring's oldest position
// and deletes exactly that position's table entry, so the two structures
// cannot disagree about which ids are live. Nothing is allocated until the
// first insert; the ring then grows by doubling up to `capacity`, so a node
// that sees a few hundred ids never pays for a 4096-entry cache.

#ifndef SRC_CORE_DATA_CACHE_H_
#define SRC_CORE_DATA_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace diffusion {

class DataCache {
 public:
  explicit DataCache(size_t capacity) : capacity_(capacity) {}

  // Records `id`; returns true if it was already present (a duplicate).
  bool CheckAndInsert(uint64_t id);

  // Forgets every cached id (a rebooted node's cold cache). The hit counter
  // keeps running; the storage stays allocated.
  void Clear();

  bool Contains(uint64_t id) const { return Find(id) != kNotFound; }
  size_t size() const { return count_; }
  size_t capacity() const { return capacity_; }
  uint64_t hits() const { return hits_; }

  // FIFO bookkeeping entries. Invariant-checked by tests: equals size().
  size_t order_size() const { return count_; }

  // True when the id table and the FIFO ring agree: the table holds exactly
  // one entry per live ring position, reachable from that id's home slot.
  bool ConsistencyCheck() const;

 private:
  static constexpr size_t kNotFound = ~size_t{0};
  static constexpr size_t kInitialRing = 16;

  // The table slot whose probe sequence for `id` starts.
  size_t Home(uint64_t id) const;
  // The table slot holding `id`, or kNotFound.
  size_t Find(uint64_t id) const;
  // Files ring position `pos` (holding `id`) into the table.
  void InsertPosition(uint64_t id, uint32_t pos);
  // Empties table slot `slot`, shifting later probe-chain entries back.
  void EraseSlot(size_t slot);
  // Grows the ring to `ring_size` (oldest id first) and rebuilds the table.
  void Grow(size_t ring_size);

  size_t capacity_;
  uint64_t hits_ = 0;
  std::vector<uint64_t> ring_;   // cached ids; live span [head_, head_ + count_)
  size_t head_ = 0;              // ring position of the oldest id
  size_t count_ = 0;
  std::vector<uint32_t> table_;  // ring position + 1 per slot; 0 = empty
  int table_bits_ = 0;
};

}  // namespace diffusion

#endif  // SRC_CORE_DATA_CACHE_H_
