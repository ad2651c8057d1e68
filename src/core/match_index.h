// Candidate index for filter/subscription dispatch, keyed on `class`.
//
// A node's filters and subscriptions nearly all carry one numeric EQ formal
// on `class` (interest vs data), so the index files each entry by its class
// formals into one of three groups, and a message visits only the groups
// its class actuals can satisfy:
//
//   * numeric-EQ buckets, keyed by NormalizedBits of the formal's value:
//     an EQ v formal needs some actual == v, and that actual names v's
//     bucket, so bucketing cannot lose a match;
//   * any_: every other class formal (string EQ, NE, inequalities,
//     EQ_ANY, blob comparisons), visited whenever the message carries a
//     class actual at all — such a formal needs one to be satisfied;
//   * unconstrained_: entries with no formal on `class`, visited always.
//
// The candidate set is a superset of the match set; callers run the full
// OneWayMatch/TwoWayMatch on each candidate to drop the rest. Two formals of
// one entry may be satisfied by different actuals (paper §3.2), so an entry
// is filed by a single formal and no other formal narrows it.
//
// ForEachCandidate visits each entry at most once per message (bucket
// entries carry a per-visit epoch stamp, since duplicate or -0/+0 actuals
// name one bucket twice) in a deterministic order: unconstrained_, the
// buckets in actual order, then any_. The stamps make concurrent queries of
// one index racy: an index belongs to one simulation thread.

#ifndef SRC_CORE_MATCH_INDEX_H_
#define SRC_CORE_MATCH_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/naming/attribute_set.h"
#include "src/naming/keys.h"

namespace diffusion {

// One indexed filter or subscription. `id` is the handle value (unique per
// owner map), `priority` orders filter selection (0 for subscriptions), and
// `attrs` points at the owner's stored attribute set (stable address — the
// owners keep entries in node-based maps).
struct MatchIndexEntry {
  uint32_t id = 0;
  int32_t priority = 0;
  const AttributeSet* attrs = nullptr;
  // Epoch stamp of the last ForEachCandidate visit (dedup bookkeeping, not
  // part of the entry's value).
  mutable uint64_t last_visit = 0;
};

class MatchIndex {
 public:
  MatchIndex() = default;

  MatchIndex(const MatchIndex&) = delete;
  MatchIndex& operator=(const MatchIndex&) = delete;

  // `attrs` must outlive the entry and must not be mutated while indexed.
  // Returns false (and indexes nothing) if `id` is already present.
  bool Insert(uint32_t id, int32_t priority, const AttributeSet* attrs);

  // Removes the entry by id alone — the position map remembers where it
  // was filed, so erasure cannot be confused by attributes that changed
  // after Insert. Returns false if `id` is not indexed.
  bool Erase(uint32_t id);

  size_t size() const { return size_; }

  // Incremented by every successful Insert/Erase, so callers can tell that
  // state derived from the index went stale.
  uint64_t version() const { return version_; }

  // Invokes `fn(const MatchIndexEntry&)` for every entry that could match
  // `message`, at most once per entry. The index must not be mutated from
  // inside `fn`.
  template <typename Fn>
  void ForEachCandidate(const AttributeSet& message, Fn&& fn) const {
    for (const MatchIndexEntry& entry : unconstrained_) {
      fn(entry);
    }
    const uint64_t stamp = ++epoch_;
    bool has_actual = false;
    for (const Attribute& attr : ClassRun(message)) {
      if (!attr.IsActual()) {
        continue;
      }
      has_actual = true;
      // A NaN actual names the NaN bucket, whose EQ NaN formals never
      // match: a harmless false positive.
      const std::optional<double> value = attr.AsDouble();
      if (!value.has_value()) {
        continue;
      }
      auto bucket = num_eq_.find(NormalizedBits(*value));
      if (bucket == num_eq_.end()) {
        continue;
      }
      for (const MatchIndexEntry& entry : bucket->second) {
        if (entry.last_visit != stamp) {
          entry.last_visit = stamp;
          fn(entry);
        }
      }
    }
    if (has_actual) {
      for (const MatchIndexEntry& entry : any_) {
        fn(entry);
      }
    }
  }

 private:
  // Bit pattern of `v` with -0.0 collapsed to +0.0 and every NaN collapsed
  // to one representation, so bucket keys agree exactly where double
  // comparison says equal.
  static uint64_t NormalizedBits(double v);

  using Group = std::vector<MatchIndexEntry>;

  struct Position {
    Group* group = nullptr;
    uint32_t slot = 0;
    uint64_t bucket = 0;  // num_eq_ key when `group` is a bucket
  };

  // The attributes on `class`, contiguous in the key-sorted set.
  static std::span<const Attribute> ClassRun(const AttributeSet& attrs) {
    const AttributeVector& items = attrs.items();
    auto first = std::lower_bound(
        items.begin(), items.end(), AttrKey{kKeyClass},
        [](const Attribute& attr, AttrKey key) { return attr.key() < key; });
    auto last = std::find_if(first, items.end(),
                             [](const Attribute& attr) { return attr.key() != kKeyClass; });
    return {first, last};
  }

  // Picks the group `attrs` belongs in (creating its bucket on demand).
  Position Classify(const AttributeSet& attrs);

  // Counters first: size() is read for every message a node receives.
  size_t size_ = 0;
  uint64_t version_ = 0;
  mutable uint64_t epoch_ = 0;

  std::unordered_map<uint64_t, Group> num_eq_;
  Group any_;
  Group unconstrained_;
  std::unordered_map<uint32_t, Position> positions_;
};

}  // namespace diffusion

#endif  // SRC_CORE_MATCH_INDEX_H_
