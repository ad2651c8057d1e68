// Whole-engine events/sec benchmark and work-counter gate.
//
// The workload is the paper's Figure-7 testbed running the Figure-8
// aggregation experiment: 14 nodes, 4 sources, duplicate-suppression
// filters everywhere, the congested CSMA MAC.
//
// Determinism contract:
//  * The deterministic section (events executed, delivered events, bytes,
//    the trace fingerprint of a short traced run, and the work counters
//    pool_slots_grown, receptions_attempted and receivers_scanned) is
//    byte-identical for any --jobs; scripts/check.sh cmp-gates
//    --deterministic-only output across --jobs values.
//  * --check reruns that section at the recorded runs/minutes and fails
//    unless every deterministic row equals the recorded value, so any
//    change that makes the engine do more work (or different work) fails
//    against the committed BENCH_engine.json.
//  * The timing section (events_per_sec, tagged with threads_available)
//    varies run to run like every wall-clock metric (cf.
//    BENCH_matching.json); timing runs are always serial regardless of
//    --jobs.
//
// Emits BENCH_engine.json ("diffusion-bench-v1" schema). Flags:
//   --out=PATH            where to write the JSON (default BENCH_engine.json)
//   --check=PATH          validate PATH against the schema, rerun the
//                         deterministic section at its runs/minutes and
//                         compare every deterministic row; writes nothing
//   --runs=N              replicates per section (default 3)
//   --minutes=M           simulated minutes per replicate (default 20)
//   --seed=S              seed of replicate 0 (default 3000)
//   --jobs=N              worker threads for the deterministic section
//   --deterministic-only  emit only the deterministic metrics (the --jobs
//                         cmp gate) and skip the timing section

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_flags.h"
#include "bench/bench_json.h"
#include "bench/replicate.h"
#include "src/sim/available_cpus.h"
#include "src/testbed/experiments.h"

namespace diffusion {
namespace {

Fig8Params BaseParams(uint64_t seed, SimDuration duration) {
  Fig8Params params;
  params.sources = 4;
  params.strategy = AggregationStrategy::kSuppression;
  params.duration = duration;
  params.warmup = 60 * kSecond;
  params.seed = seed;
  return params;
}

// The rows --check compares against a recorded file. runs and
// sim_minutes_per_run come first: they fix the workload the others measure.
std::vector<bench::BenchResult> DeterministicSection(int runs, int minutes, uint64_t base_seed,
                                                     unsigned jobs) {
  // Fingerprint of one short fully traced replicate.
  MemoryTraceSink trace;
  Fig8Params probe = BaseParams(base_seed, 2 * kMinute);
  probe.trace_sink = &trace;
  RunFig8(probe);
  uint64_t fingerprint = kTraceFingerprintSeed;
  for (const TraceEvent& event : trace.events()) {
    fingerprint = FoldTraceEvent(fingerprint, event);
  }
  fingerprint = TruncateTraceFingerprint(fingerprint);

  const SimDuration duration = minutes * kMinute;
  const std::vector<Fig8Result> det_results = bench::RunReplicates<Fig8Result>(
      jobs, static_cast<size_t>(runs), /*trace_out=*/"", nullptr,
      [&](size_t i, TraceSink* sink) {
        Fig8Params params = BaseParams(base_seed + i, duration);
        params.trace_sink = sink;
        return RunFig8(params);
      });
  uint64_t total_events = 0;
  uint64_t total_delivered = 0;
  uint64_t total_bytes = 0;
  uint64_t pool_slots_grown = 0;
  uint64_t receptions_attempted = 0;
  uint64_t receivers_scanned = 0;
  for (const Fig8Result& result : det_results) {
    total_events += result.events_executed;
    total_delivered += result.distinct_events;
    total_bytes += result.diffusion_bytes;
    pool_slots_grown += result.pool_slots_grown;
    receptions_attempted += result.receptions_attempted;
    receivers_scanned += result.receivers_scanned;
  }
  return {
      {"runs", "count", static_cast<double>(runs)},
      {"sim_minutes_per_run", "min", static_cast<double>(minutes)},
      {"events_executed", "count", static_cast<double>(total_events)},
      {"events_delivered", "count", static_cast<double>(total_delivered)},
      {"diffusion_bytes", "bytes", static_cast<double>(total_bytes)},
      {"trace_fingerprint", "hash53", static_cast<double>(fingerprint)},
      {"pool_slots_grown", "count", static_cast<double>(pool_slots_grown)},
      {"receptions_attempted", "count", static_cast<double>(receptions_attempted)},
      {"receivers_scanned", "count", static_cast<double>(receivers_scanned)},
  };
}

// --check: schema, then every deterministic row against a fresh run of the
// recorded workload.
int Check(const std::string& path, uint64_t base_seed, unsigned jobs) {
  std::string error;
  std::vector<bench::BenchResult> recorded;
  if (!bench::ValidateBenchJson(path, &error, &recorded)) {
    std::fprintf(stderr, "FAIL: %s\n", error.c_str());
    return 1;
  }
  const bench::BenchResult* runs = bench::FindBenchResult(recorded, "runs");
  const bench::BenchResult* minutes = bench::FindBenchResult(recorded, "sim_minutes_per_run");
  // Bounded so the int casts below stay defined on a hand-edited file.
  auto in_range = [](const bench::BenchResult* row) {
    return row != nullptr && row->value >= 1 && row->value <= 10000;
  };
  if (!in_range(runs) || !in_range(minutes)) {
    std::fprintf(stderr, "FAIL: %s needs runs and sim_minutes_per_run in [1, 10000]\n",
                 path.c_str());
    return 1;
  }
  const std::vector<bench::BenchResult> fresh = DeterministicSection(
      static_cast<int>(runs->value), static_cast<int>(minutes->value), base_seed, jobs);
  if (bench::CountMismatchedRows(path, recorded, fresh) > 0) {
    return 1;
  }
  std::printf("%s: valid %s file; %zu deterministic rows reproduced\n", path.c_str(),
              bench::kBenchJsonSchema, fresh.size());
  return 0;
}

int Main(int argc, char** argv) {
  const uint64_t base_seed = static_cast<uint64_t>(bench::IntFlag(argc, argv, "seed", 3000));
  const unsigned jobs = bench::JobsFlag(argc, argv);
  const std::string check = bench::StringFlag(argc, argv, "check");
  if (!check.empty()) {
    return Check(check, base_seed, jobs);
  }

  const int runs = static_cast<int>(bench::IntFlag(argc, argv, "runs", 3));
  const int minutes = static_cast<int>(bench::IntFlag(argc, argv, "minutes", 20));
  const bool deterministic_only = bench::BoolFlag(argc, argv, "deterministic-only");
  const std::string out = bench::StringFlag(argc, argv, "out", "BENCH_engine.json");

  std::vector<bench::BenchResult> results = DeterministicSection(runs, minutes, base_seed, jobs);
  std::printf("=== Engine throughput: Figure-7 testbed, %d x %d min, 4 sources ===\n\n", runs,
              minutes);
  for (const bench::BenchResult& row : results) {
    std::printf("%-28s  %16llu\n", row.name.c_str(), static_cast<unsigned long long>(row.value));
  }

  if (!deterministic_only) {
    // ---- timing section (always serial) ----------------------------------
    double seconds = 0.0;
    uint64_t events = 0;
    for (int i = 0; i < runs; ++i) {
      const auto start = std::chrono::steady_clock::now();
      const Fig8Result result =
          RunFig8(BaseParams(base_seed + static_cast<uint64_t>(i), minutes * kMinute));
      const auto stop = std::chrono::steady_clock::now();
      seconds += std::chrono::duration_cast<std::chrono::duration<double>>(stop - start).count();
      events += result.events_executed;
    }
    const double events_per_sec = seconds > 0.0 ? static_cast<double>(events) / seconds : 0.0;
    const unsigned threads_available = AvailableCpus();
    std::printf("\n%-28s  %16.0f   events/sec\n", "engine", events_per_sec);
    std::printf("%-28s  %16u\n", "available CPUs", threads_available);
    results.push_back({"events_per_sec", "events/s", events_per_sec});
    results.push_back({"threads_available", "count", static_cast<double>(threads_available)});
  }

  if (!out.empty()) {
    if (!bench::WriteBenchJson(out, "engine_throughput", results)) {
      return 1;
    }
    std::string error;
    if (!bench::ValidateBenchJson(out, &error)) {
      std::fprintf(stderr, "FAIL: emitted file does not validate: %s\n", error.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", out.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace diffusion

int main(int argc, char** argv) { return diffusion::Main(argc, argv); }
