// Machine-readable benchmark output, shared by the bench binaries and the CI
// bench-smoke job.
//
// Every file carries the "diffusion-bench-v1" schema:
//
//   {
//     "schema": "diffusion-bench-v1",
//     "bench": "<binary name>",
//     "results": [
//       {"name": "<metric>", "unit": "<ns/op|ms|x|...>", "value": <number>},
//       ...
//     ]
//   }
//
// ValidateBenchJson is the drift guard: CI and scripts/check.sh run it
// against both freshly generated output and the checked-in baseline, so a
// schema change that forgets to bump the version string fails loudly.

#ifndef BENCH_BENCH_JSON_H_
#define BENCH_BENCH_JSON_H_

#include <string>
#include <vector>

namespace diffusion {
namespace bench {

inline constexpr char kBenchJsonSchema[] = "diffusion-bench-v1";

struct BenchResult {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// A result value exactly as the JSON document records it: rows in a
// whole-number unit (count, bytes, hash53) as exact integers — every such
// value is below 2^53, so the double holds it exactly — and all others to
// six significant digits. Two results match a recorded file iff their
// renderings are equal.
std::string FormatBenchValue(const BenchResult& result);

// Renders the schema'd JSON document (two-space indent, trailing newline).
std::string BenchJson(const std::string& bench_name, const std::vector<BenchResult>& results);

// Writes BenchJson(...) to `path`. Returns false (with perror) on I/O error.
bool WriteBenchJson(const std::string& path, const std::string& bench_name,
                    const std::vector<BenchResult>& results);

// Structural validation of a bench JSON file: schema string matches
// kBenchJsonSchema, a non-empty "bench" name is present, and every entry in
// "results" has a name, a unit, and a finite numeric value. On failure
// returns false and, when `error` is non-null, stores a one-line diagnosis.
// On success, when `results` is non-null, stores the parsed entries in file
// order.
bool ValidateBenchJson(const std::string& path, std::string* error,
                       std::vector<BenchResult>* results = nullptr);

// The first entry named `name`, or null.
const BenchResult* FindBenchResult(const std::vector<BenchResult>& results,
                                   const std::string& name);

// The deterministic-section gate of the benches' --check: compares each row
// of `fresh` with the same-named row of `recorded` (read from `path`) by
// rendering, prints one FAIL line per missing or differing row, and returns
// how many there were.
int CountMismatchedRows(const std::string& path, const std::vector<BenchResult>& recorded,
                        const std::vector<BenchResult>& fresh);

}  // namespace bench
}  // namespace diffusion

#endif  // BENCH_BENCH_JSON_H_
