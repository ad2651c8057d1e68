// MatchIndex at the unit level: the three-group classification and visit
// order, the at-most-once ForEachCandidate contract, position-map erasure
// under churn, and randomized index-vs-full-scan equivalence over
// inequality-heavy corpora on `class` (the node-level randomization in
// api_misuse_test biases EQ).

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "src/core/match_index.h"
#include "src/naming/attribute_set.h"
#include "src/naming/keys.h"
#include "src/naming/matching.h"
#include "src/util/rng.h"

namespace diffusion {
namespace {

constexpr AttrKey kKey = kKeyClass;
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

AttributeSet Range(double lo, double hi) {
  return {Attribute::Float64(kKey, AttrOp::kGe, lo), Attribute::Float64(kKey, AttrOp::kLe, hi)};
}

AttributeSet Actual(double v) { return {Attribute::Float64(kKey, AttrOp::kIs, v)}; }

// Collects the candidate ids ForEachCandidate offers for `message`.
std::vector<uint32_t> Candidates(const MatchIndex& index, const AttributeSet& message) {
  std::vector<uint32_t> ids;
  index.ForEachCandidate(message, [&](const MatchIndexEntry& entry) { ids.push_back(entry.id); });
  return ids;
}

// The true match set, by full scan over the stored sets.
std::vector<uint32_t> FullScan(const std::vector<AttributeSet>& entries,
                               const AttributeSet& message) {
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (OneWayMatch(entries[i], message)) {
      ids.push_back(static_cast<uint32_t>(i));
    }
  }
  return ids;
}

// The index contract: candidates ⊇ true matches, and no id offered twice.
void ExpectSoundAndDeduped(const std::vector<AttributeSet>& entries, const MatchIndex& index,
                           const AttributeSet& message, const char* context) {
  std::vector<uint32_t> candidates = Candidates(index, message);
  std::vector<uint32_t> sorted = candidates;
  std::sort(sorted.begin(), sorted.end());
  ASSERT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end())
      << context << ": duplicate candidate visit";
  for (uint32_t id : FullScan(entries, message)) {
    ASSERT_TRUE(std::binary_search(sorted.begin(), sorted.end(), id))
        << context << ": candidate set lost true match id " << id << " for message "
        << message.ToString();
  }
}

// ---- classification coverage: every group type round-trips a match ----

TEST(MatchIndexTest, GroupsVisitedInFixedOrder) {
  // Inserted out of group order: any_, bucket 1, unconstrained, bucket 0,
  // any_, bucket 1. Visits come unconstrained first, then the buckets in
  // the order the message's actuals name them, then any_, each group in
  // insertion order.
  std::vector<AttributeSet> entries;
  entries.push_back({Attribute::Int32(kKey, AttrOp::kNe, 7)});
  entries.push_back({ClassEq(kClassData)});
  entries.push_back({Attribute::Int32(kKeyTask, AttrOp::kEq, 1)});
  entries.push_back({ClassEq(kClassInterest)});
  entries.push_back({Attribute::String(kKey, AttrOp::kEq, "data")});
  entries.push_back({ClassEq(kClassData)});
  MatchIndex index;
  for (size_t i = 0; i < entries.size(); ++i) {
    ASSERT_TRUE(index.Insert(static_cast<uint32_t>(i), 0, &entries[i]));
  }
  const AttributeSet message = {ClassIs(kClassInterest), ClassIs(kClassData)};
  EXPECT_EQ(Candidates(index, message), (std::vector<uint32_t>{2, 3, 1, 5, 0, 4}));
}

TEST(MatchIndexTest, EqBucketsAndAnyGroupPruneByClassActual) {
  std::vector<AttributeSet> entries;
  entries.push_back({ClassEq(kClassData)});
  entries.push_back({ClassEq(kClassInterest)});
  entries.push_back({Attribute::Int32(kKey, AttrOp::kGe, 0)});
  entries.push_back({Attribute::Int32(kKeyTask, AttrOp::kEq, 1)});
  MatchIndex index;
  for (size_t i = 0; i < entries.size(); ++i) {
    ASSERT_TRUE(index.Insert(static_cast<uint32_t>(i), 0, &entries[i]));
  }
  // A data message skips the interest bucket; a message with no class
  // actual can satisfy no class formal, so it sees only the unconstrained
  // entry.
  EXPECT_EQ(Candidates(index, AttributeSet{ClassIs(kClassData)}),
            (std::vector<uint32_t>{3, 0, 2}));
  const AttributeSet classless = {Attribute::Int32(kKeyTask, AttrOp::kIs, 1)};
  EXPECT_EQ(Candidates(index, classless), (std::vector<uint32_t>{3}));
}

TEST(MatchIndexTest, IntervalEntriesFoundByStabbingActual) {
  std::vector<AttributeSet> entries;
  entries.push_back(Range(10.0, 20.0));
  entries.push_back(Range(15.0, 30.0));
  entries.push_back(Range(100.0, 200.0));
  entries.push_back(Range(-kInf, kInf));
  MatchIndex index;
  for (size_t i = 0; i < entries.size(); ++i) {
    ASSERT_TRUE(index.Insert(static_cast<uint32_t>(i), 0, &entries[i]));
  }
  for (double v : {9.9, 10.0, 12.0, 15.0, 20.0, 20.1, 150.0, -5.0}) {
    ExpectSoundAndDeduped(entries, index, Actual(v), "interval stab");
  }
}

TEST(MatchIndexTest, TwoFormalsSatisfiedByDifferentActuals) {
  // OneWayMatch semantics: each formal needs SOME actual — not the same
  // one. Actuals {-5, 25} satisfy GE 10 (via 25) and LE 20 (via -5) even
  // though neither lies in [10, 20]. The index must still offer the entry.
  std::vector<AttributeSet> entries;
  entries.push_back(Range(10.0, 20.0));
  MatchIndex index;
  ASSERT_TRUE(index.Insert(0, 0, &entries[0]));
  const AttributeSet message = {Attribute::Float64(kKey, AttrOp::kIs, -5.0),
                                Attribute::Float64(kKey, AttrOp::kIs, 25.0)};
  ASSERT_TRUE(OneWayMatch(entries[0], message));
  ExpectSoundAndDeduped(entries, index, message, "split actuals");
}

TEST(MatchIndexTest, ContradictoryBoundsStillMatchable) {
  // GE 20 and LE 10 look empty as an interval but are jointly satisfiable
  // by two actuals spanning the gap.
  std::vector<AttributeSet> entries;
  entries.push_back(Range(20.0, 10.0));
  MatchIndex index;
  ASSERT_TRUE(index.Insert(0, 0, &entries[0]));
  const AttributeSet spanning = {Attribute::Float64(kKey, AttrOp::kIs, 5.0),
                                 Attribute::Float64(kKey, AttrOp::kIs, 25.0)};
  ASSERT_TRUE(OneWayMatch(entries[0], spanning));
  ExpectSoundAndDeduped(entries, index, spanning, "contradictory bounds");
}

TEST(MatchIndexTest, StrictBoundsExcludeEndpoints) {
  std::vector<AttributeSet> entries;
  entries.push_back({Attribute::Float64(kKey, AttrOp::kGt, 10.0),
                     Attribute::Float64(kKey, AttrOp::kLt, 20.0)});
  entries.push_back({Attribute::Float64(kKey, AttrOp::kGt, 10.0)});
  entries.push_back({Attribute::Float64(kKey, AttrOp::kLt, 20.0)});
  MatchIndex index;
  for (size_t i = 0; i < entries.size(); ++i) {
    ASSERT_TRUE(index.Insert(static_cast<uint32_t>(i), 0, &entries[i]));
  }
  for (double v : {10.0, 10.0000001, 15.0, 19.9999999, 20.0}) {
    ExpectSoundAndDeduped(entries, index, Actual(v), "strict bounds");
  }
}

TEST(MatchIndexTest, NeFormalsNeverLoseAMatch) {
  std::vector<AttributeSet> entries;
  entries.push_back({Attribute::Float64(kKey, AttrOp::kNe, 5.0)});
  entries.push_back({Attribute::Float64(kKey, AttrOp::kNe, 7.0)});
  entries.push_back({Attribute::String(kKey, AttrOp::kNe, "red")});
  MatchIndex index;
  for (size_t i = 0; i < entries.size(); ++i) {
    ASSERT_TRUE(index.Insert(static_cast<uint32_t>(i), 0, &entries[i]));
  }
  ExpectSoundAndDeduped(entries, index, Actual(5.0), "one NE actual");
  // Two distinct actuals 5.0 and 7.0: both NE entries satisfiable.
  const AttributeSet both = {Attribute::Float64(kKey, AttrOp::kIs, 5.0),
                             Attribute::Float64(kKey, AttrOp::kIs, 7.0)};
  ExpectSoundAndDeduped(entries, index, both, "two distinct NE actuals");
  // String NE: "red" actual kills entry 2; "blue" keeps it.
  const AttributeSet red = {Attribute::String(kKey, AttrOp::kIs, "red")};
  const AttributeSet blue = {Attribute::String(kKey, AttrOp::kIs, "blue")};
  ExpectSoundAndDeduped(entries, index, red, "NE red");
  ExpectSoundAndDeduped(entries, index, blue, "NE blue");
}

TEST(MatchIndexTest, NanActualSatisfiesNeButNothingElse) {
  std::vector<AttributeSet> entries;
  entries.push_back({Attribute::Float64(kKey, AttrOp::kNe, 5.0)});
  entries.push_back({Attribute::Float64(kKey, AttrOp::kEq, 5.0)});
  entries.push_back(Range(0.0, 10.0));
  MatchIndex index;
  for (size_t i = 0; i < entries.size(); ++i) {
    ASSERT_TRUE(index.Insert(static_cast<uint32_t>(i), 0, &entries[i]));
  }
  // NaN != 5.0 is true, so the NE entry matches and must be offered.
  ExpectSoundAndDeduped(entries, index, Actual(kNaN), "NaN actual");
  // NaN bounds are unsatisfiable; the entry lands in any_ (still offered,
  // conservatively, whenever an actual on the key exists).
  std::vector<AttributeSet> nan_bound;
  nan_bound.push_back({Attribute::Float64(kKey, AttrOp::kGe, kNaN)});
  MatchIndex index2;
  ASSERT_TRUE(index2.Insert(0, 0, &nan_bound[0]));
  ExpectSoundAndDeduped(nan_bound, index2, Actual(3.0), "NaN bound");
}

TEST(MatchIndexTest, NegativeZeroAndPositiveZeroAgree) {
  std::vector<AttributeSet> entries;
  entries.push_back({Attribute::Float64(kKey, AttrOp::kEq, -0.0)});
  entries.push_back(Range(-0.0, 0.0));
  entries.push_back({Attribute::Float64(kKey, AttrOp::kGe, 0.0)});
  MatchIndex index;
  for (size_t i = 0; i < entries.size(); ++i) {
    ASSERT_TRUE(index.Insert(static_cast<uint32_t>(i), 0, &entries[i]));
  }
  ExpectSoundAndDeduped(entries, index, Actual(0.0), "+0 actual");
  ExpectSoundAndDeduped(entries, index, Actual(-0.0), "-0 actual");
}

TEST(MatchIndexTest, MixedNumericTypesShareBuckets) {
  // An int32 formal and a float64 actual that compare equal must meet.
  std::vector<AttributeSet> entries;
  entries.push_back({Attribute::Int32(kKey, AttrOp::kEq, 42)});
  entries.push_back({Attribute::Int32(kKey, AttrOp::kGe, 40), Attribute::Int32(kKey, AttrOp::kLe, 50)});
  MatchIndex index;
  for (size_t i = 0; i < entries.size(); ++i) {
    ASSERT_TRUE(index.Insert(static_cast<uint32_t>(i), 0, &entries[i]));
  }
  ExpectSoundAndDeduped(entries, index, Actual(42.0), "float actual, int formal");
}

// ---- the duplicate-visit satellite ----

TEST(MatchIndexTest, DuplicateActualsVisitEachEntryOnce) {
  std::vector<AttributeSet> entries;
  entries.push_back({ClassEq(kClassData)});
  entries.push_back({Attribute::Int32(kKeyClass, AttrOp::kNe, 99)});
  MatchIndex index;
  for (size_t i = 0; i < entries.size(); ++i) {
    ASSERT_TRUE(index.Insert(static_cast<uint32_t>(i), 0, &entries[i]));
  }
  // Three copies of the same actual used to mean three bucket visits.
  const AttributeSet message = {ClassIs(kClassData), ClassIs(kClassData), ClassIs(kClassData)};
  std::map<uint32_t, int> visits;
  index.ForEachCandidate(message, [&](const MatchIndexEntry& entry) { ++visits[entry.id]; });
  for (const auto& [id, count] : visits) {
    EXPECT_EQ(count, 1) << "entry " << id << " visited " << count << " times";
  }
  EXPECT_EQ(visits.count(0u), 1u);
}

// ---- Erase satellites ----

TEST(MatchIndexTest, EraseUnknownIdReturnsFalse) {
  MatchIndex index;
  EXPECT_FALSE(index.Erase(7));
  AttributeSet attrs = {ClassEq(kClassData)};
  ASSERT_TRUE(index.Insert(1, 0, &attrs));
  EXPECT_FALSE(index.Erase(2));
  EXPECT_TRUE(index.Erase(1));
  EXPECT_FALSE(index.Erase(1));  // double erase
  EXPECT_EQ(index.size(), 0u);
}

TEST(MatchIndexTest, DuplicateInsertRejected) {
  MatchIndex index;
  AttributeSet attrs = {ClassEq(kClassData)};
  EXPECT_TRUE(index.Insert(1, 0, &attrs));
  EXPECT_FALSE(index.Insert(1, 5, &attrs));
  EXPECT_EQ(index.size(), 1u);
}

TEST(MatchIndexTest, EraseWorksAfterAttrsMutatedWhileIndexed) {
  // Regression: the old Erase re-classified from the (now mutated) attrs,
  // missed the entry's real group, silently no-opped, and left a dangling
  // MatchIndexEntry. Erase-by-id must find it regardless.
  MatchIndex index;
  AttributeSet attrs = {ClassEq(kClassData)};
  ASSERT_TRUE(index.Insert(1, 0, &attrs));
  attrs.RemoveKey(kKeyClass);  // re-classification would now say "unconstrained"
  attrs.push_back(ClassEq(kClassInterest));  // ...or a different bucket
  EXPECT_TRUE(index.Erase(1));
  EXPECT_EQ(index.size(), 0u);
  // No dangling entry: nothing may be offered for any message.
  AttributeSet probe = {ClassIs(kClassData)};
  EXPECT_TRUE(Candidates(index, probe).empty());
  probe = AttributeSet{ClassIs(kClassInterest)};
  EXPECT_TRUE(Candidates(index, probe).empty());
}

TEST(MatchIndexTest, SwapAndPopKeepsPositionsConsistentUnderChurn) {
  // Many entries in one bucket, erased in random order: every erase must
  // succeed and the survivors must stay findable (the swap-and-pop slot
  // fixup is what this exercises).
  Rng rng(7);
  std::vector<AttributeSet> entries;
  entries.reserve(64);
  for (int i = 0; i < 64; ++i) {
    entries.push_back({ClassEq(kClassData)});
  }
  MatchIndex index;
  for (size_t i = 0; i < entries.size(); ++i) {
    ASSERT_TRUE(index.Insert(static_cast<uint32_t>(i), 0, &entries[i]));
  }
  std::vector<uint32_t> order(64);
  for (uint32_t i = 0; i < 64; ++i) {
    order[i] = i;
  }
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<size_t>(rng.NextInt(0, static_cast<int64_t>(i) - 1))]);
  }
  const AttributeSet probe = {ClassIs(kClassData)};
  std::vector<bool> alive(64, true);
  for (uint32_t victim : order) {
    ASSERT_TRUE(index.Erase(victim));
    alive[victim] = false;
    std::vector<uint32_t> ids = Candidates(index, probe);
    std::sort(ids.begin(), ids.end());
    std::vector<uint32_t> expected;
    for (uint32_t i = 0; i < 64; ++i) {
      if (alive[i]) {
        expected.push_back(i);
      }
    }
    ASSERT_EQ(ids, expected);
  }
  EXPECT_EQ(index.size(), 0u);
}

TEST(MatchIndexTest, VersionBumpsOnMutationOnly) {
  MatchIndex index;
  AttributeSet attrs = {ClassEq(kClassData)};
  const uint64_t v0 = index.version();
  ASSERT_TRUE(index.Insert(1, 0, &attrs));
  EXPECT_GT(index.version(), v0);
  const uint64_t v1 = index.version();
  EXPECT_FALSE(index.Insert(1, 0, &attrs));  // rejected: no bump
  EXPECT_FALSE(index.Erase(9));              // miss: no bump
  EXPECT_EQ(index.version(), v1);
  const AttributeSet probe = {ClassIs(kClassData)};
  (void)Candidates(index, probe);  // queries: no bump
  EXPECT_EQ(index.version(), v1);
  ASSERT_TRUE(index.Erase(1));
  EXPECT_GT(index.version(), v1);
}

// ---- randomized equivalence over inequality-heavy and mixed corpora ----

Attribute RandomKeyFormal(Rng* rng) {
  // Heavy on inequality operators; values from a small grid so boundary
  // collisions (EQ vs GE of the same value, etc.) actually happen.
  const AttrOp op = static_cast<AttrOp>(rng->NextInt(1, 7));  // kEq..kEqAny
  switch (rng->NextInt(0, 4)) {
    case 0:
      return Attribute::Float64(kKey, op, static_cast<double>(rng->NextInt(0, 20)));
    case 1:
      return Attribute::Int32(kKey, op, static_cast<int32_t>(rng->NextInt(0, 20)));
    case 2:
      return Attribute::String(kKey, op, "s" + std::to_string(rng->NextInt(0, 5)));
    case 3: {
      const double specials[] = {-kInf, kInf, kNaN, -0.0, 1e308, -1e308, 1e-308};
      return Attribute::Float64(kKey, op, specials[rng->NextInt(0, 6)]);
    }
    default:
      return Attribute::Blob(kKey, op, {static_cast<uint8_t>(rng->NextInt(0, 3))});
  }
}

Attribute RandomKeyActual(Rng* rng) {
  switch (rng->NextInt(0, 3)) {
    case 0:
      return Attribute::Float64(kKey, AttrOp::kIs, static_cast<double>(rng->NextInt(0, 20)));
    case 1:
      return Attribute::Int32(kKey, AttrOp::kIs, static_cast<int32_t>(rng->NextInt(0, 20)));
    case 2:
      return Attribute::String(kKey, AttrOp::kIs, "s" + std::to_string(rng->NextInt(0, 5)));
    default: {
      const double specials[] = {-kInf, kInf, kNaN, -0.0, 1e308, -1e308};
      return Attribute::Float64(kKey, AttrOp::kIs, specials[rng->NextInt(0, 5)]);
    }
  }
}

TEST(MatchIndexTest, RandomizedInequalityCorpusNeverLosesAMatch) {
  Rng rng(12345);
  for (int iter = 0; iter < 400; ++iter) {
    std::vector<AttributeSet> entries;
    const int n = static_cast<int>(rng.NextInt(1, 40));
    for (int i = 0; i < n; ++i) {
      AttributeVector attrs;
      const int formals = static_cast<int>(rng.NextInt(0, 3));
      for (int f = 0; f < formals; ++f) {
        attrs.push_back(RandomKeyFormal(&rng));
      }
      if (rng.NextBool(0.3)) {
        attrs.push_back(Attribute::Int32(kKeyTask, AttrOp::kEq, 1));  // off-key formal
      }
      entries.push_back(AttributeSet(std::move(attrs)));
    }
    MatchIndex index;
    for (size_t i = 0; i < entries.size(); ++i) {
      ASSERT_TRUE(index.Insert(static_cast<uint32_t>(i), 0, &entries[i]));
    }
    for (int m = 0; m < 8; ++m) {
      AttributeVector message_attrs;
      const int actuals = static_cast<int>(rng.NextInt(0, 4));
      for (int a = 0; a < actuals; ++a) {
        message_attrs.push_back(RandomKeyActual(&rng));
      }
      if (rng.NextBool(0.3)) {
        message_attrs.push_back(Attribute::Int32(kKeyTask, AttrOp::kIs, 1));
      }
      const AttributeSet message(std::move(message_attrs));
      ExpectSoundAndDeduped(entries, index, message, "randomized corpus");
    }
  }
}

TEST(MatchIndexTest, RandomizedChurnKeepsIndexConsistent) {
  // Interleaved inserts, erases and queries: after every mutation the
  // candidate sets must still cover the full scan of live entries.
  Rng rng(999);
  std::vector<AttributeSet> storage;  // stable via reserve
  storage.reserve(512);
  std::map<uint32_t, size_t> live;  // id -> storage slot
  MatchIndex index;
  uint32_t next_id = 0;
  for (int step = 0; step < 600; ++step) {
    const bool do_insert = live.empty() || rng.NextBool(0.55);
    if (do_insert && storage.size() < storage.capacity()) {
      AttributeVector attrs;
      const int formals = static_cast<int>(rng.NextInt(0, 2));
      for (int f = 0; f < formals; ++f) {
        attrs.push_back(RandomKeyFormal(&rng));
      }
      storage.push_back(AttributeSet(std::move(attrs)));
      const uint32_t id = next_id++;
      ASSERT_TRUE(index.Insert(id, 0, &storage.back()));
      live[id] = storage.size() - 1;
    } else if (!live.empty()) {
      auto victim = live.begin();
      std::advance(victim, rng.NextInt(0, static_cast<int64_t>(live.size()) - 1));
      ASSERT_TRUE(index.Erase(victim->first));
      live.erase(victim);
    }
    ASSERT_EQ(index.size(), live.size());
    if (step % 10 == 0) {
      AttributeVector message_attrs;
      const int actuals = static_cast<int>(rng.NextInt(0, 3));
      for (int a = 0; a < actuals; ++a) {
        message_attrs.push_back(RandomKeyActual(&rng));
      }
      const AttributeSet message(std::move(message_attrs));
      std::vector<uint32_t> candidates = Candidates(index, message);
      std::sort(candidates.begin(), candidates.end());
      ASSERT_TRUE(std::adjacent_find(candidates.begin(), candidates.end()) == candidates.end());
      for (const auto& [id, slot] : live) {
        if (OneWayMatch(storage[slot], message)) {
          ASSERT_TRUE(std::binary_search(candidates.begin(), candidates.end(), id))
              << "lost id " << id << " at step " << step;
        }
      }
    }
  }
}

}  // namespace
}  // namespace diffusion
