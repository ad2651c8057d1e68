#include "src/naming/matching.h"

#include <algorithm>

#include "src/util/byte_buffer.h"

namespace diffusion {

bool OneWayMatch(const AttributeSet& a, const AttributeSet& b) {
  // Merge-scan over the canonical (key-sorted) forms: the cursor into B only
  // moves forward, so the cost is O(|A| + |B|) plus the length of same-key
  // runs, instead of the nested-scan reference's O(|A| * |B|)
  // (tests/matching_reference.h).
  const AttributeVector& formals = a.items();
  const AttributeVector& actuals = b.items();
  size_t j = 0;
  for (const Attribute& formal : formals) {
    if (!formal.IsFormal()) {
      continue;
    }
    const AttrKey key = formal.key();
    while (j < actuals.size() && actuals[j].key() < key) {
      ++j;
    }
    // `j` now sits at the start of B's run for `key` (if any). A's formals
    // are sorted too, so a later formal with the same key rescans from the
    // run start — `j` never needs to move backwards.
    bool matched = false;
    for (size_t k = j; k < actuals.size() && actuals[k].key() == key; ++k) {
      if (actuals[k].IsActual() && formal.MatchesActual(actuals[k])) {
        matched = true;
        break;
      }
    }
    if (!matched) {
      return false;
    }
  }
  return true;
}

bool TwoWayMatch(const AttributeSet& a, const AttributeSet& b) {
  return OneWayMatch(a, b) && OneWayMatch(b, a);
}

bool ExactMatch(const AttributeSet& a, const AttributeSet& b) {
  // The precomputed order-insensitive hashes reject non-equal sets in O(1);
  // operator== re-checks structurally on a hash hit (paper §3.1: "hashes of
  // attributes can be computed and compared rather than complete data").
  return a == b;
}

uint64_t HashAttributes(const AttributeVector& attrs) {
  // FNV-1a over each attribute's wire encoding. Per-attribute hashes are
  // folded through two independent commutative accumulators (sum and xor) so
  // that attribute order does not change the result.
  uint64_t sum = 0;
  uint64_t xor_acc = 0;
  ByteWriter writer;  // one scratch buffer for the whole set, cleared per attr
  for (const Attribute& attr : attrs) {
    writer.Clear();
    attr.Serialize(&writer);
    uint64_t h = 0xcbf29ce484222325ULL;
    for (uint8_t byte : writer.data()) {
      h ^= byte;
      h *= 0x100000001b3ULL;
    }
    sum += h * 0x9e3779b97f4a7c15ULL;
    xor_acc ^= h;
  }
  uint64_t combined = sum ^ (xor_acc * 0xff51afd7ed558ccdULL) ^ attrs.size();
  combined ^= combined >> 33;
  combined *= 0xc4ceb9fe1a85ec53ULL;
  combined ^= combined >> 33;
  return combined;
}

}  // namespace diffusion
