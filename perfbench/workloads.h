// The benchmark's three workloads, each built from the library's public
// constructors so the benchmark can time set-up on its own and attach its own
// observers (README.md in this directory has the catalog and the reasons).
//
// One episode is one fresh world, seeded independently, run for a fixed
// simulated duration. Load comes from inside the simulation: sources publish
// open-loop on a fixed sim-time schedule whatever the network does.
//
// An untraced episode measures host time and the simulated outcome. A traced
// episode runs the same world with a trace sink, a timing propagation
// decorator (monolithic worlds) and host-timed spans around each call the
// benchmark makes into the engine: one per scheduler event on the testbeds,
// one per conservative window on the sharded field. Observers only read, so
// a traced episode must reproduce its untraced twin exactly.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/latency.h"

namespace perfbench {

enum class Workload { kTestbed14, kTestbed14Overload, kField10k };

bool WorkloadFromName(const std::string& name, Workload* workload);
const char* WorkloadName(Workload workload);

// Episodes whose simulated outcome (delivery, latency, bytes, energy) the
// end-to-end metrics aggregate. Fixed per workload, so those metrics are a
// pure function of --seed; later episodes only add host-time samples.
int DeterministicEpisodes(Workload workload);

// Episodes the traced pass of --trace 1 runs (the first ones of the run).
// The per-layer metrics sum over them.
int TracedEpisodes(Workload workload);

// How a run condenses its per-episode host times (rates, set-up). Testbed
// episodes last tens of milliseconds, so a run holds hundreds of them, and
// co-tenants of the host slow it in phases of seconds to minutes that a median
// of one run cannot average out: the run reports the mean of the best
// twentieth, the speed of the least contended moments. Field episodes last
// seconds and their work varies with the seed; a run holds about a dozen and
// reports the median.
bool ReportsBestTwentieth(Workload workload);

// Worker threads the workload runs at: 1 on the testbeds, min(4, CPUs this
// process may run on) on the sharded field.
unsigned WorkerThreads(Workload workload);

// Seed of episode `index` of a run seeded `seed`.
uint64_t EpisodeSeed(uint64_t seed, int index);

// Scheduler-event classes of the traced spans: each RunOne span takes the
// highest class among the trace kinds it emitted (data > interest > rx > tx >
// other), or kNone when it emitted nothing (timers, MAC backoff).
enum SpanClass { kSpanNone, kSpanTx, kSpanRx, kSpanData, kSpanInterest, kSpanOther, kSpanClasses };
const char* SpanClassName(int span_class);

// Host-side measurements of one traced episode. None of it reaches the
// simulation.
struct Profile {
  // Scheduler spans (monolithic worlds): host ns per RunOne, all and by class.
  Samples event_ns;
  std::array<Samples, kSpanClasses> class_ns;
  uint64_t pending_max = 0;
  // Window spans (sharded world): host ns per ShardedWorld::RunUntil window.
  Samples window_ns;
  uint64_t windows = 0;
  // Trace events attributed to each region (sharded world only).
  std::vector<uint64_t> region_events;
  // Forwarding PropagationModel decorator (monolithic worlds only).
  uint64_t propagation_calls = 0;
  uint64_t propagation_ns = 0;
  // The trace sink itself.
  uint64_t trace_events = 0;
  uint64_t sink_ns = 0;
  uint64_t fingerprint = 0;
  uint64_t fragment_sets = 0;  // distinct (receiver, link message) with a fragment decoded
};

struct EpisodeSpec {
  Workload workload = Workload::kTestbed14;
  uint64_t seed = 1;
  bool traced = false;
  // Collect the per-layer counters at episode end (outside the timed part).
  bool counters = false;
  unsigned threads = 1;  // sharded field only
};

struct EpisodeResult {
  double layout_s = 0.0;  // set-up: node layout
  double world_s = 0.0;   // set-up: simulator(s), propagation, channel(s), nodes
  double apps_s = 0.0;    // set-up: filters, sinks, sources
  double run_wall_s = 0.0;
  double sim_s = 0.0;
  uint64_t events = 0;  // scheduler events executed
  size_t nodes = 0;

  // Simulated outcome. An operation is one (sink, detection event) pair
  // published inside the measurement window.
  uint64_t possible = 0;
  uint64_t delivered = 0;
  Samples latency_us;           // publish -> first delivery, per delivered operation
  uint64_t window_bytes = 0;    // diffusion bytes sent during the measurement window
  uint64_t total_bytes = 0;     // diffusion bytes sent over the whole episode
  double energy = 0.0;          // network-wide relative radio energy, whole episode

  // Deterministic per-layer counters (names as in MetricsRegistry, plus the
  // channel, window, arena and slot-pool accessors), summed over nodes in
  // ascending id order and over regions. Filled when EpisodeSpec::counters.
  std::map<std::string, double> counters;
  double gradient_entries_max = 0.0;  // traced only: network-wide, sampled

  Profile profile;  // traced only
};

EpisodeResult RunEpisode(const EpisodeSpec& spec);

// Runs the library's own experiment runner for the workload on the episode
// seed (RunFig8 / RunCongestionScenario) with a fingerprinting trace sink, or
// for the field the traced world at one worker thread, and returns the values
// the benchmark's traced episode 0 must reproduce. Empty error on success.
std::string CheckAgainstReference(Workload workload, uint64_t episode_seed,
                                  const EpisodeResult& traced);

// Compares two runs of the same episode (untraced vs traced, or two thread
// counts). Empty on success, else what differs.
std::string CompareEpisodes(const EpisodeResult& a, const EpisodeResult& b, bool with_trace);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
