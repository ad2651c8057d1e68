// Reference matchers: a direct transcription of the paper's Figure 2 as
// nested linear scans over unsorted attribute vectors.
//
// src/naming/matching.h is the engine's fast path (merge-scans over the
// canonical form, hash pre-checks). These are the oracle it must agree with
// on every input: the randomized equivalence tests in tests/matching_test.cc
// and tests/api_misuse_test.cc, and the baseline side of
// bench/matching_hotpath.

#ifndef TESTS_MATCHING_REFERENCE_H_
#define TESTS_MATCHING_REFERENCE_H_

#include "src/naming/attribute.h"

namespace diffusion {

// For each formal in `a`, some actual in `b` with the same key satisfies it.
bool OneWayMatchLinear(const AttributeVector& a, const AttributeVector& b);

// OneWayMatchLinear in both directions.
bool TwoWayMatchLinear(const AttributeVector& a, const AttributeVector& b);

// Order-insensitive multiset equality.
bool ExactMatchLinear(const AttributeVector& a, const AttributeVector& b);

}  // namespace diffusion

#endif  // TESTS_MATCHING_REFERENCE_H_
