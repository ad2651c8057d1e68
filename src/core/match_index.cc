#include "src/core/match_index.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

namespace diffusion {

uint64_t MatchIndex::NormalizedBits(double v) {
  if (std::isnan(v)) {
    v = std::numeric_limits<double>::quiet_NaN();
  } else if (v == 0.0) {
    v = 0.0;  // collapse -0.0 into +0.0
  }
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

MatchIndex::Position MatchIndex::Classify(const AttributeSet& attrs) {
  bool has_class_formal = false;
  for (const Attribute& attr : ClassRun(attrs)) {
    if (!attr.IsFormal()) {
      continue;
    }
    has_class_formal = true;
    if (attr.op() == AttrOp::kEq) {
      if (std::optional<double> value = attr.AsDouble()) {
        Position position;
        position.bucket = NormalizedBits(*value);
        position.group = &num_eq_[position.bucket];
        return position;
      }
    }
  }
  Position position;
  position.group = has_class_formal ? &any_ : &unconstrained_;
  return position;
}

bool MatchIndex::Insert(uint32_t id, int32_t priority, const AttributeSet* attrs) {
  auto [slot_it, inserted] = positions_.try_emplace(id);
  if (!inserted) {
    return false;
  }
  Position position = Classify(*attrs);
  position.slot = static_cast<uint32_t>(position.group->size());
  position.group->push_back(MatchIndexEntry{id, priority, attrs});
  slot_it->second = position;
  ++size_;
  ++version_;
  return true;
}

bool MatchIndex::Erase(uint32_t id) {
  auto it = positions_.find(id);
  if (it == positions_.end()) {
    return false;
  }
  const Position position = it->second;
  Group& group = *position.group;
  const uint32_t last = static_cast<uint32_t>(group.size()) - 1;
  if (position.slot != last) {
    group[position.slot] = std::move(group[last]);
    positions_[group[position.slot].id].slot = position.slot;
  }
  group.pop_back();
  positions_.erase(it);
  if (group.empty() && &group != &any_ && &group != &unconstrained_) {
    num_eq_.erase(position.bucket);
  }
  --size_;
  ++version_;
  return true;
}

}  // namespace diffusion
