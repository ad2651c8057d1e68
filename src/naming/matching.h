// Matching rules (paper §3.2, Figure 2).
//
// A one-way match from A to B succeeds when every formal in A is satisfied by
// some actual in B with the same key. Two attribute sets have a complete
// match when one-way matches succeed in both directions. All formals are
// effectively "anded" together.

#ifndef SRC_NAMING_MATCHING_H_
#define SRC_NAMING_MATCHING_H_

#include <cstdint>

#include "src/naming/attribute.h"
#include "src/naming/attribute_set.h"

namespace diffusion {

// Figure 2: for each formal a in A, some actual b in B with a.key == b.key
// must satisfy a's comparison. A set with no formals trivially matches.
//
// These canonical AttributeSet functions are the fast path (merge-scans over
// the sorted form, plus a precomputed-hash pre-check for ExactMatch) and the
// API everything routes through; AttributeVector arguments canonicalize
// implicitly. tests/matching_reference.h holds the direct nested-scan
// transcription of Figure 2 they are checked against.
bool OneWayMatch(const AttributeSet& a, const AttributeSet& b);

// Complete (two-way) match: OneWayMatch(a, b) && OneWayMatch(b, a).
bool TwoWayMatch(const AttributeSet& a, const AttributeSet& b);

// Exact structural equality of two attribute sets, insensitive to order.
// Used by the diffusion core to recognize "the same interest" rather than a
// merely compatible one.
bool ExactMatch(const AttributeSet& a, const AttributeSet& b);

// Order-insensitive hash over an attribute set. The diffusion core compares
// hashes before full data as an optimization (§3.1: "hashes of attributes
// can be computed and compared rather than complete data").
uint64_t HashAttributes(const AttributeVector& attrs);

}  // namespace diffusion

#endif  // SRC_NAMING_MATCHING_H_
