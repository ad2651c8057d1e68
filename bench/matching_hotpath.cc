// Matching/dispatch hot-path benchmark — the proof for this PR's fast path.
//
// Two workloads, each measured with the pre-PR reference implementation and
// with the canonical fast path, over the same inputs:
//
//  * dispatch — a busy node's filter chain: 64 registered filters (most
//    watching interests, some watching typed data) against a mixed message
//    stream grown with the Figure-11 rules. The reference scans every filter
//    with the nested-loop OneWayMatchLinear; the fast path asks MatchIndex
//    for candidates and confirms with the merge-scan OneWayMatch. Winners
//    are asserted identical before anything is timed.
//
//  * exact — GradientTable::FindExact: recognizing a refreshed interest among
//    64 remembered ones. The reference runs the quadratic multiset compare
//    (ExactMatchLinear); the fast path's precomputed order-insensitive hash
//    rejects non-equal sets in O(1).
//
// Emits BENCH_matching.json ("diffusion-bench-v1" schema). Flags:
//   --out=PATH              where to write the JSON (default BENCH_matching.json)
//   --check=PATH            validate an existing file against the schema; no run
//   --reps=N                timing repetitions (default 40)
//   --require-speedup=X     exit non-zero unless both speedups reach X

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_flags.h"
#include "bench/bench_json.h"
#include "src/apps/animal.h"
#include "src/core/match_index.h"
#include "src/naming/keys.h"
#include "src/naming/matching.h"
#include "src/util/rng.h"
#include "tests/matching_reference.h"

namespace diffusion {
namespace {

volatile uint64_t g_sink = 0;  // defeats dead-code elimination of timed loops

void Shuffle(AttributeVector* attrs, Rng* rng) {
  for (size_t i = attrs->size(); i > 1; --i) {
    std::swap((*attrs)[i - 1],
              (*attrs)[static_cast<size_t>(rng->NextInt(0, static_cast<int64_t>(i) - 1))]);
  }
}

// A registered filter, in both representations.
struct Entry {
  uint32_t id = 0;
  int32_t priority = 0;
  AttributeVector linear_attrs;  // what the pre-PR chain stored
  AttributeSet attrs;            // what the indexed chain stores
};

// The chain of a node running the shipped filters: interest-side machinery
// (gradient scoping, caches, aggregation triggers — all matching on
// `class EQ interest`, most further constrained by task) plus a smaller set
// of typed data filters. Data is the high-rate traffic, so the index's job
// is to keep the interest-side majority out of the data fast path.
std::vector<Entry> MakeFilters() {
  std::vector<Entry> filters;
  uint32_t next_id = 1;
  for (int i = 0; i < 48; ++i) {
    Entry entry;
    entry.id = next_id++;
    entry.priority = 100 + i;
    entry.linear_attrs = {ClassEq(kClassInterest),
                          Attribute::String(kKeyTask, AttrOp::kEq, "task" + std::to_string(i % 12)),
                          Attribute::Float64(kKeyConfidence, AttrOp::kGt, 50.0)};
    entry.attrs = entry.linear_attrs;
    filters.push_back(std::move(entry));
  }
  for (int i = 0; i < 16; ++i) {
    Entry entry;
    entry.id = next_id++;
    entry.priority = 10 + i;
    entry.linear_attrs = {ClassEq(kClassData),
                          Attribute::String(kKeyType, AttrOp::kEq, "type" + std::to_string(i % 8))};
    entry.attrs = entry.linear_attrs;
    filters.push_back(std::move(entry));
  }
  return filters;
}

// A message, in both representations.
struct Msg {
  AttributeVector linear_attrs;
  AttributeSet attrs;
};

// Mixed traffic, data-heavy: Figure-11-grown data sets (6..30 attributes,
// shuffled like real decode order) with a typed actual, plus occasional
// interest refreshes. The 31:1 ratio is generous to the slow path — the
// paper's interests refresh every ~30 s while data flows at per-second
// rates, so real streams are far more data-skewed still.
std::vector<Msg> MakeMessages(Rng* rng) {
  std::vector<Msg> messages;
  for (int i = 0; i < 256; ++i) {
    AttributeVector attrs;
    if (i % 32 == 31) {
      attrs = AnimalInterestSetA();
      attrs.push_back(Attribute::String(kKeyTask, AttrOp::kIs, "task" + std::to_string(i % 12)));
    } else {
      attrs = GrowSetB(static_cast<size_t>(6 + 6 * (i % 5)), SetGrowth::kActualIs);
      attrs.push_back(Attribute::String(kKeyType, AttrOp::kIs, "type" + std::to_string(i % 11)));
    }
    Shuffle(&attrs, rng);
    Msg msg;
    msg.linear_attrs = attrs;
    msg.attrs = std::move(attrs);
    messages.push_back(std::move(msg));
  }
  return messages;
}

// Pre-PR DispatchToChain: test every filter, keep the highest priority
// (lowest id on ties).
uint32_t DispatchLinear(const std::vector<Entry>& filters, const Msg& msg) {
  uint32_t best_id = 0;
  int32_t best_priority = 0;
  bool found = false;
  for (const Entry& entry : filters) {
    if (found &&
        (entry.priority < best_priority ||
         (entry.priority == best_priority && entry.id >= best_id))) {
      continue;
    }
    if (OneWayMatchLinear(entry.linear_attrs, msg.linear_attrs)) {
      found = true;
      best_priority = entry.priority;
      best_id = entry.id;
    }
  }
  return best_id;
}

// This PR's DispatchToChain: candidates from the index, merge-scan confirm.
uint32_t DispatchIndexed(const MatchIndex& index, const Msg& msg) {
  uint32_t best_id = 0;
  int32_t best_priority = 0;
  bool found = false;
  index.ForEachCandidate(msg.attrs, [&](const MatchIndexEntry& entry) {
    if (found &&
        (entry.priority < best_priority ||
         (entry.priority == best_priority && entry.id >= best_id))) {
      return;
    }
    if (OneWayMatch(*entry.attrs, msg.attrs)) {
      found = true;
      best_priority = entry.priority;
      best_id = entry.id;
    }
  });
  return best_id;
}

// 64 remembered interests (distinct sources) and a probe stream with an 80%
// hit rate, probes shuffled so the linear compare cannot ride stored order.
struct ExactWorkload {
  std::vector<AttributeVector> linear_entries;
  std::vector<AttributeSet> entries;
  std::vector<Msg> probes;
};

ExactWorkload MakeExactWorkload(Rng* rng) {
  ExactWorkload workload;
  std::vector<AttributeVector> all;
  for (int i = 0; i < 80; ++i) {
    AttributeVector attrs = AnimalInterestSetA();
    attrs.push_back(Attribute::Int32(kKeySourceId, AttrOp::kIs, i));
    all.push_back(std::move(attrs));
  }
  for (int i = 0; i < 64; ++i) {
    workload.linear_entries.push_back(all[static_cast<size_t>(i)]);
    workload.entries.push_back(AttributeSet(all[static_cast<size_t>(i)]));
  }
  for (int i = 0; i < 256; ++i) {
    AttributeVector attrs = all[static_cast<size_t>(i % 80)];
    Shuffle(&attrs, rng);
    Msg probe;
    probe.linear_attrs = attrs;
    probe.attrs = std::move(attrs);
    workload.probes.push_back(std::move(probe));
  }
  return workload;
}

size_t FindExactLinear(const std::vector<AttributeVector>& entries, const Msg& probe) {
  for (size_t i = 0; i < entries.size(); ++i) {
    if (ExactMatchLinear(entries[i], probe.linear_attrs)) {
      return i;
    }
  }
  return entries.size();
}

size_t FindExactHashed(const std::vector<AttributeSet>& entries, const Msg& probe) {
  for (size_t i = 0; i < entries.size(); ++i) {
    if (ExactMatch(entries[i], probe.attrs)) {
      return i;
    }
  }
  return entries.size();
}

// Nanoseconds per call of `fn` over the whole message stream, best of `reps`
// (best-of tolerates scheduler noise better than the mean).
template <typename Fn>
double TimeNsPerOp(int reps, size_t ops_per_rep, Fn&& fn) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    const double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start).count()) /
        static_cast<double>(ops_per_rep);
    if (rep == 0 || ns < best) {
      best = ns;
    }
  }
  return best;
}

int Main(int argc, char** argv) {
  const std::string check = bench::StringFlag(argc, argv, "check");
  if (!check.empty()) {
    std::string error;
    if (!bench::ValidateBenchJson(check, &error)) {
      std::fprintf(stderr, "FAIL: %s\n", error.c_str());
      return 1;
    }
    std::printf("%s: valid %s file\n", check.c_str(), bench::kBenchJsonSchema);
    return 0;
  }

  const int reps = static_cast<int>(bench::IntFlag(argc, argv, "reps", 40));
  const std::string out = bench::StringFlag(argc, argv, "out", "BENCH_matching.json");
  const double require = std::strtod(
      bench::StringFlag(argc, argv, "require-speedup", "0").c_str(), nullptr);

  Rng rng(1234);
  const std::vector<Entry> filters = MakeFilters();
  const std::vector<Msg> messages = MakeMessages(&rng);
  MatchIndex index;
  for (const Entry& entry : filters) {
    index.Insert(entry.id, entry.priority, &entry.attrs);
  }

  // The fast path must pick exactly the filter the full-chain scan picks.
  for (const Msg& msg : messages) {
    const uint32_t linear = DispatchLinear(filters, msg);
    const uint32_t indexed = DispatchIndexed(index, msg);
    if (linear != indexed) {
      std::fprintf(stderr, "FAIL: dispatch winners differ (linear=%u indexed=%u)\n", linear,
                   indexed);
      return 1;
    }
  }

  const ExactWorkload exact = MakeExactWorkload(&rng);
  for (const Msg& probe : exact.probes) {
    const size_t linear = FindExactLinear(exact.linear_entries, probe);
    const size_t hashed = FindExactHashed(exact.entries, probe);
    if (linear != hashed) {
      std::fprintf(stderr, "FAIL: exact-match results differ (%zu vs %zu)\n", linear, hashed);
      return 1;
    }
  }

  const double dispatch_linear_ns = TimeNsPerOp(reps, messages.size(), [&] {
    uint64_t acc = 0;
    for (const Msg& msg : messages) {
      acc += DispatchLinear(filters, msg);
    }
    g_sink = acc;
  });
  const double dispatch_indexed_ns = TimeNsPerOp(reps, messages.size(), [&] {
    uint64_t acc = 0;
    for (const Msg& msg : messages) {
      acc += DispatchIndexed(index, msg);
    }
    g_sink = acc;
  });
  const double exact_linear_ns = TimeNsPerOp(reps, exact.probes.size(), [&] {
    uint64_t acc = 0;
    for (const Msg& probe : exact.probes) {
      acc += FindExactLinear(exact.linear_entries, probe);
    }
    g_sink = acc;
  });
  const double exact_hashed_ns = TimeNsPerOp(reps, exact.probes.size(), [&] {
    uint64_t acc = 0;
    for (const Msg& probe : exact.probes) {
      acc += FindExactHashed(exact.entries, probe);
    }
    g_sink = acc;
  });

  const double dispatch_speedup = dispatch_linear_ns / dispatch_indexed_ns;
  const double exact_speedup = exact_linear_ns / exact_hashed_ns;

  std::printf("=== Matching hot path (64 filters, 256 messages, best of %d reps) ===\n\n", reps);
  std::printf("%-28s  %12s\n", "variant", "ns/message");
  std::printf("%-28s  %12.0f\n", "dispatch: full-chain linear", dispatch_linear_ns);
  std::printf("%-28s  %12.0f   (%.1fx)\n", "dispatch: index + merge", dispatch_indexed_ns,
              dispatch_speedup);
  std::printf("%-28s  %12.0f\n", "exact: multiset compare", exact_linear_ns);
  std::printf("%-28s  %12.0f   (%.1fx)\n", "exact: hash pre-check", exact_hashed_ns,
              exact_speedup);

  if (!out.empty()) {
    const std::vector<bench::BenchResult> results = {
        {"dispatch_linear_full_chain", "ns/op", dispatch_linear_ns},
        {"dispatch_indexed_merge_scan", "ns/op", dispatch_indexed_ns},
        {"dispatch_speedup", "x", dispatch_speedup},
        {"exact_linear_multiset", "ns/op", exact_linear_ns},
        {"exact_hash_precheck", "ns/op", exact_hashed_ns},
        {"exact_speedup", "x", exact_speedup},
    };
    if (!bench::WriteBenchJson(out, "matching_hotpath", results)) {
      return 1;
    }
    std::string error;
    if (!bench::ValidateBenchJson(out, &error)) {
      std::fprintf(stderr, "FAIL: emitted file does not validate: %s\n", error.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", out.c_str());
  }

  if (require > 0.0 && (dispatch_speedup < require || exact_speedup < require)) {
    std::fprintf(stderr, "FAIL: speedup below --require-speedup=%.1f\n", require);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace diffusion

int main(int argc, char** argv) { return diffusion::Main(argc, argv); }
