#include "tests/matching_reference.h"

#include <vector>

namespace diffusion {

bool OneWayMatchLinear(const AttributeVector& a, const AttributeVector& b) {
  // Direct transcription of Figure 2.
  for (const Attribute& formal : a) {
    if (!formal.IsFormal()) {
      continue;
    }
    bool matched = false;
    for (const Attribute& actual : b) {
      if (actual.key() == formal.key() && actual.IsActual() && formal.MatchesActual(actual)) {
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

bool TwoWayMatchLinear(const AttributeVector& a, const AttributeVector& b) {
  return OneWayMatchLinear(a, b) && OneWayMatchLinear(b, a);
}

bool ExactMatchLinear(const AttributeVector& a, const AttributeVector& b) {
  if (a.size() != b.size()) {
    return false;
  }
  // Order-insensitive multiset equality. Attribute sets are small (the paper
  // reports 6-30 attributes), so quadratic matching with a used-mask is
  // cheaper than sorting through a comparator.
  std::vector<bool> used(b.size(), false);
  for (const Attribute& attr : a) {
    bool found = false;
    for (size_t i = 0; i < b.size(); ++i) {
      if (!used[i] && attr == b[i]) {
        used[i] = true;
        found = true;
        break;
      }
    }
    if (!found) {
      return false;
    }
  }
  return true;
}

}  // namespace diffusion
