// Tests for the Figure-2 matching rules, the §3.2 worked example, and the
// Figure-10 benchmark attribute sets.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/apps/animal.h"
#include "src/naming/attribute.h"
#include "src/naming/keys.h"
#include "src/naming/matching.h"
#include "src/util/rng.h"
#include "tests/matching_reference.h"

namespace diffusion {
namespace {

Attribute ConfIs(double v) { return Attribute::Float64(kKeyConfidence, AttrOp::kIs, v); }
Attribute Conf(AttrOp op, double v) { return Attribute::Float64(kKeyConfidence, op, v); }

// The paper's own example: "confidence GT 0.5" must have an actual such as
// "confidence IS 0.7" and would not match "confidence IS 0.3",
// "confidence LT 0.7", or "confidence GT 0.7".
TEST(MatchingTest, PaperConfidenceExample) {
  const AttributeVector formal = {Conf(AttrOp::kGt, 0.5)};
  EXPECT_TRUE(OneWayMatch(formal, {ConfIs(0.7)}));
  EXPECT_FALSE(OneWayMatch(formal, {ConfIs(0.3)}));
  EXPECT_FALSE(OneWayMatch(formal, {Conf(AttrOp::kLt, 0.7)}));  // formal, not actual
  EXPECT_FALSE(OneWayMatch(formal, {Conf(AttrOp::kGt, 0.7)}));
}

TEST(MatchingTest, EachComparisonOperator) {
  // actual.value <op> formal.value, with the actual on the left.
  EXPECT_TRUE(Conf(AttrOp::kEq, 5).MatchesActual(ConfIs(5)));
  EXPECT_FALSE(Conf(AttrOp::kEq, 5).MatchesActual(ConfIs(6)));
  EXPECT_TRUE(Conf(AttrOp::kNe, 5).MatchesActual(ConfIs(6)));
  EXPECT_FALSE(Conf(AttrOp::kNe, 5).MatchesActual(ConfIs(5)));
  EXPECT_TRUE(Conf(AttrOp::kLe, 5).MatchesActual(ConfIs(5)));
  EXPECT_TRUE(Conf(AttrOp::kLe, 5).MatchesActual(ConfIs(4)));
  EXPECT_FALSE(Conf(AttrOp::kLe, 5).MatchesActual(ConfIs(6)));
  EXPECT_TRUE(Conf(AttrOp::kGe, 5).MatchesActual(ConfIs(5)));
  EXPECT_FALSE(Conf(AttrOp::kGe, 5).MatchesActual(ConfIs(4)));
  EXPECT_TRUE(Conf(AttrOp::kLt, 5).MatchesActual(ConfIs(4)));
  EXPECT_FALSE(Conf(AttrOp::kLt, 5).MatchesActual(ConfIs(5)));
  EXPECT_TRUE(Conf(AttrOp::kGt, 5).MatchesActual(ConfIs(6)));
  EXPECT_FALSE(Conf(AttrOp::kGt, 5).MatchesActual(ConfIs(5)));
}

TEST(MatchingTest, EqAnyMatchesAnyActualWithKey) {
  const Attribute any = Attribute::Int32(kKeyType, AttrOp::kEqAny, 0);
  EXPECT_TRUE(any.MatchesActual(Attribute::String(kKeyType, AttrOp::kIs, "anything")));
  EXPECT_TRUE(any.MatchesActual(Attribute::Float64(kKeyType, AttrOp::kIs, 3.2)));
  EXPECT_FALSE(any.MatchesActual(Attribute::String(kKeyTask, AttrOp::kIs, "anything")));
}

TEST(MatchingTest, KeysMustAgree) {
  EXPECT_FALSE(Conf(AttrOp::kGt, 1).MatchesActual(
      Attribute::Float64(kKeyIntensity, AttrOp::kIs, 100.0)));
}

TEST(MatchingTest, ActualIsNotAPredicate) {
  EXPECT_FALSE(ConfIs(5).MatchesActual(ConfIs(5)));
}

TEST(MatchingTest, CrossNumericTypeComparisons) {
  // An int32 formal bound matches a float64 actual, and vice versa.
  const Attribute int_formal = Attribute::Int32(kKeyConfidence, AttrOp::kGt, 50);
  EXPECT_TRUE(int_formal.MatchesActual(ConfIs(50.5)));
  EXPECT_FALSE(int_formal.MatchesActual(ConfIs(49.5)));
  const Attribute float_formal = Conf(AttrOp::kLe, 10.5);
  EXPECT_TRUE(float_formal.MatchesActual(Attribute::Int32(kKeyConfidence, AttrOp::kIs, 10)));
}

TEST(MatchingTest, StringComparisons) {
  const Attribute eq = Attribute::String(kKeyTask, AttrOp::kEq, "detectAnimal");
  EXPECT_TRUE(eq.MatchesActual(Attribute::String(kKeyTask, AttrOp::kIs, "detectAnimal")));
  EXPECT_FALSE(eq.MatchesActual(Attribute::String(kKeyTask, AttrOp::kIs, "detectanimal")));
  const Attribute lt = Attribute::String(kKeyTask, AttrOp::kLt, "m");
  EXPECT_TRUE(lt.MatchesActual(Attribute::String(kKeyTask, AttrOp::kIs, "apple")));
  EXPECT_FALSE(lt.MatchesActual(Attribute::String(kKeyTask, AttrOp::kIs, "zebra")));
}

TEST(MatchingTest, StringFormalDoesNotMatchNumericActual) {
  const Attribute formal = Attribute::String(kKeyTask, AttrOp::kEq, "5");
  EXPECT_FALSE(formal.MatchesActual(Attribute::Int32(kKeyTask, AttrOp::kIs, 5)));
}

TEST(MatchingTest, MissingActualFailsOneWay) {
  const AttributeVector a = {Conf(AttrOp::kGt, 0.5),
                             Attribute::String(kKeyTask, AttrOp::kEq, "t")};
  const AttributeVector b = {ConfIs(0.9)};  // no task actual
  EXPECT_FALSE(OneWayMatch(a, b));
}

TEST(MatchingTest, AllFormalsAreAnded) {
  const AttributeVector range = {
      Attribute::Float64(kKeyXCoord, AttrOp::kGe, 0.0),
      Attribute::Float64(kKeyXCoord, AttrOp::kLe, 10.0),
  };
  EXPECT_TRUE(OneWayMatch(range, {Attribute::Float64(kKeyXCoord, AttrOp::kIs, 5.0)}));
  EXPECT_FALSE(OneWayMatch(range, {Attribute::Float64(kKeyXCoord, AttrOp::kIs, 15.0)}));
  EXPECT_FALSE(OneWayMatch(range, {Attribute::Float64(kKeyXCoord, AttrOp::kIs, -1.0)}));
}

TEST(MatchingTest, SetWithNoFormalsMatchesTrivially) {
  EXPECT_TRUE(OneWayMatch({}, {}));
  EXPECT_TRUE(OneWayMatch({ConfIs(1)}, {}));
}

TEST(MatchingTest, TwoWayRequiresBothDirections) {
  const AttributeVector interest = {Conf(AttrOp::kGt, 0.5), ClassIs(kClassInterest)};
  const AttributeVector data = {ConfIs(0.7), ClassIs(kClassData)};
  EXPECT_TRUE(TwoWayMatch(interest, data));

  const AttributeVector demanding_data = {ConfIs(0.7),
                                          Attribute::String(kKeyTask, AttrOp::kEq, "x")};
  EXPECT_FALSE(TwoWayMatch(interest, demanding_data));  // data's formal unsatisfied
}

// The full §3.2 worked example.
TEST(MatchingTest, FourLeggedAnimalScenario) {
  const AttributeVector interest = FourLeggedAnimalInterest();
  const AttributeVector detection = FourLeggedAnimalDetection();
  const AttributeVector sensor_watch = FourLeggedSensorWatch();

  // The detection satisfies the user's query.
  EXPECT_TRUE(TwoWayMatch(interest, detection));
  // The sensor's "interest about interests" matches the user's interest.
  EXPECT_TRUE(TwoWayMatch(sensor_watch, interest));
  // But the sensor watch does not match plain data.
  EXPECT_FALSE(TwoWayMatch(sensor_watch, detection));

  // A detection outside the rectangle fails.
  AttributeVector outside = detection;
  RemoveAttributes(&outside, kKeyXCoord);
  outside.push_back(Attribute::Float64(kKeyXCoord, AttrOp::kIs, 500.0));
  EXPECT_FALSE(TwoWayMatch(interest, outside));
}

// Figure 10's sets as used by the §6.3 microbenchmark.
TEST(MatchingTest, Figure10Sets) {
  const AttributeVector set_a = AnimalInterestSetA();
  const AttributeVector set_b = AnimalDataSetB();
  EXPECT_EQ(set_a.size(), 8u);
  EXPECT_EQ(set_b.size(), 6u);
  EXPECT_TRUE(TwoWayMatch(set_a, set_b));
  EXPECT_FALSE(TwoWayMatch(set_a, MakeNoMatch(set_b)));
}

TEST(MatchingTest, Figure10GrownSetsStillMatch) {
  const AttributeVector set_a = AnimalInterestSetA();
  for (size_t n : {6u, 10u, 20u, 30u}) {
    const AttributeVector is_grown = GrowSetB(n, SetGrowth::kActualIs);
    EXPECT_EQ(is_grown.size(), n);
    EXPECT_TRUE(TwoWayMatch(set_a, is_grown)) << "IS-grown to " << n;
    const AttributeVector eq_grown = GrowSetB(n, SetGrowth::kFormalEq);
    EXPECT_EQ(eq_grown.size(), n);
    EXPECT_TRUE(TwoWayMatch(set_a, eq_grown)) << "EQ-grown to " << n;
    EXPECT_FALSE(TwoWayMatch(set_a, MakeNoMatch(is_grown)));
    EXPECT_FALSE(TwoWayMatch(set_a, MakeNoMatch(eq_grown)));
  }
}

TEST(MatchingTest, ExactMatchIsOrderInsensitive) {
  AttributeVector a = AnimalInterestSetA();
  AttributeVector shuffled = a;
  std::swap(shuffled[0], shuffled[5]);
  std::swap(shuffled[2], shuffled[7]);
  EXPECT_TRUE(ExactMatch(a, shuffled));
  shuffled.pop_back();
  EXPECT_FALSE(ExactMatch(a, shuffled));
}

TEST(MatchingTest, ExactMatchDetectsValueDifference) {
  AttributeVector a = AnimalDataSetB();
  AttributeVector b = MakeNoMatch(a);
  EXPECT_FALSE(ExactMatch(a, b));
  EXPECT_TRUE(ExactMatch(a, a));
}

TEST(MatchingTest, ExactMatchHandlesDuplicateAttributes) {
  const Attribute x = ConfIs(1);
  const Attribute y = ConfIs(2);
  EXPECT_TRUE(ExactMatch({x, x, y}, {y, x, x}));
  EXPECT_FALSE(ExactMatch({x, x, y}, {x, y, y}));
}

TEST(MatchingTest, HashIsOrderInsensitive) {
  AttributeVector a = AnimalInterestSetA();
  AttributeVector shuffled = a;
  std::swap(shuffled[1], shuffled[6]);
  std::swap(shuffled[0], shuffled[3]);
  EXPECT_EQ(HashAttributes(a), HashAttributes(shuffled));
}

TEST(MatchingTest, HashDiscriminates) {
  EXPECT_NE(HashAttributes(AnimalInterestSetA()), HashAttributes(AnimalDataSetB()));
  EXPECT_NE(HashAttributes(AnimalDataSetB()), HashAttributes(MakeNoMatch(AnimalDataSetB())));
  EXPECT_NE(HashAttributes({}), HashAttributes({ConfIs(0)}));
}

// Property sweep: two-way matching is symmetric by construction, and
// exact-equal sets always two-way match (actuals impose no requirements and
// identical formals are satisfied iff they are in both — actually identical
// formals must be satisfied by actuals, so we only assert hash/exact
// consistency here).
class MatchingPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MatchingPropertyTest, HashConsistentWithExactMatch) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 17);
  AttributeVector a;
  const int count = static_cast<int>(rng.NextInt(0, 12));
  for (int i = 0; i < count; ++i) {
    a.push_back(Attribute::Int32(static_cast<AttrKey>(rng.NextInt(1, 5)),
                                 static_cast<AttrOp>(rng.NextInt(0, 7)),
                                 static_cast<int32_t>(rng.NextInt(0, 3))));
  }
  AttributeVector b = a;
  // Shuffle b.
  for (size_t i = b.size(); i > 1; --i) {
    std::swap(b[i - 1], b[static_cast<size_t>(rng.NextInt(0, static_cast<int64_t>(i) - 1))]);
  }
  EXPECT_TRUE(ExactMatch(a, b));
  EXPECT_EQ(HashAttributes(a), HashAttributes(b));
  EXPECT_EQ(TwoWayMatch(a, b), TwoWayMatch(b, a));  // symmetry
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, MatchingPropertyTest, ::testing::Range(0, 30));

// Inequality operators over the doubles that break naive orderings: the
// merge-scan fast path must agree with the linear reference on every
// (formal op, formal value, actual value) combination, including NaN (never
// satisfies a comparison, always satisfies NE), the infinities, -0.0
// (equal to +0.0), and the extremes of the exponent range.
TEST(MatchingTest, ExtremeValueInequalityAgreesWithLinearReference) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double values[] = {-kInf, -1e308, -5.0, -1e-308, -0.0, 0.0,
                           1e-308, 5.0,   1e308, kInf,   kNaN};
  const AttrOp ops[] = {AttrOp::kEq, AttrOp::kNe, AttrOp::kLe, AttrOp::kGe,
                        AttrOp::kLt, AttrOp::kGt, AttrOp::kEqAny};
  for (AttrOp op : ops) {
    for (double formal_value : values) {
      for (double actual_value : values) {
        const AttributeVector a = {Conf(op, formal_value)};
        const AttributeVector b = {ConfIs(actual_value)};
        const bool linear = OneWayMatchLinear(a, b);
        EXPECT_EQ(OneWayMatch(AttributeSet(a), AttributeSet(b)), linear)
            << AttrOpName(op) << " " << formal_value << " vs IS " << actual_value;
        // Spot-check a few ground truths the reference itself must honor.
        if (std::isnan(actual_value) || std::isnan(formal_value)) {
          EXPECT_EQ(linear, op == AttrOp::kNe || op == AttrOp::kEqAny);
        }
      }
    }
  }
  // -0.0 and +0.0 are the same number to every comparison.
  EXPECT_TRUE(OneWayMatch(AttributeSet({Conf(AttrOp::kEq, -0.0)}), AttributeSet({ConfIs(0.0)})));
  EXPECT_TRUE(OneWayMatch(AttributeSet({Conf(AttrOp::kLe, -0.0)}), AttributeSet({ConfIs(0.0)})));
  EXPECT_FALSE(OneWayMatch(AttributeSet({Conf(AttrOp::kLt, 0.0)}), AttributeSet({ConfIs(-0.0)})));
}

}  // namespace
}  // namespace diffusion
