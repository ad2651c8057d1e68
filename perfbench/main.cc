// The repository benchmark's runner (README.md in this directory).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// 1. Correctness: runs traced episode 0 and checks it against the library's
//    own runner (RunFig8, RunCongestionScenario) or, on the field, against
//    the same world at one worker thread.
// 2. Timed: untraced episodes, fresh world each, until at least --seconds of
//    host time have passed and the workload's deterministic episodes are done.
// 3. Traced: the first episodes again with observers attached (only episode
//    0 with --trace 0); each must reproduce its untraced twin.
// 4. Prints a human-readable table, then one JSON line: end-to-end metrics
//    with --trace 0, per-layer metrics with --trace 1.
//
// Exit status: 0 on success, 1 when a correctness check fails (the result
// line then says correct=false), 2 on bad arguments.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/latency.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    if (i + 1 == argc) {
      return false;
    }
    const std::string flag = argv[i];
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      continue;
    }
    const long long number = std::strtoll(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' || number < 0) {
      return false;
    }
    if (flag == "--seed") {
      args->seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds" && number >= 1 && number <= 3600) {
      args->seconds = static_cast<int>(number);
    } else if (flag == "--trace" && number <= 1) {
      args->trace = static_cast<int>(number);
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // human table only
};

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

double Counter(const std::map<std::string, double>& counters, const char* name) {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

// VmHWM, the high-water mark of this program's own address space. (Unlike
// getrusage's ru_maxrss, it does not inherit the parent's size across exec,
// so the Python wrapper does not inflate it.) Zero if unreadable.
double PeakRssMiB() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) {
    return 0.0;
  }
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(status);
  return kib / 1024.0;
}

// Host times of one world build; all a timed episode keeps once its
// simulated outcome is no longer needed (so memory stays flat however many
// episodes a run fits).
struct Timing {
  double layout_s;
  double world_s;
  double apps_s;
  double run_wall_s;  // zero for traced builds, which are not timed runs
  double sim_s;
  double events;

  double setup_s() const { return layout_s + world_s + apps_s; }
};

Timing TimingOf(const EpisodeResult& episode, bool timed_run) {
  return {episode.layout_s,
          episode.world_s,
          episode.apps_s,
          timed_run ? episode.run_wall_s : 0.0,
          episode.sim_s,
          static_cast<double>(episode.events)};
}

void PrintResult(bool correct, int attempted, const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(correct ? 0 : attempted);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& metric : metrics) {
    std::printf("  %-34s %16.6g %-10s %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str(), metric.note.c_str());
  }
}

int Fail(int attempted, const std::string& why) {
  std::fprintf(stderr, "FAIL: %s\n", why.c_str());
  PrintResult(false, attempted, {});
  return 1;
}

// ---- end-to-end metrics (untraced episodes) --------------------------------

std::string Percentile(Samples& latency, double q, const char* name, std::vector<Metric>* out) {
  if (!latency.Supported(q)) {
    return std::string(name) + ": only " + std::to_string(latency.Beyond(q)) +
           " samples beyond it (need " + std::to_string(kMinSamplesBeyond) + ")";
  }
  out->push_back({name, static_cast<double>(latency.Percentile(q)) / 1e6, "s",
                  "n=" + std::to_string(latency.size()) + " beyond=" +
                      std::to_string(latency.Beyond(q))});
  return "";
}

// Condenses per-episode host times as the workload prescribes (see
// ReportsBestTwentieth).
double HostTime(Workload workload, std::vector<double> values, bool higher_is_better) {
  return ReportsBestTwentieth(workload) ? BestTwentiethMean(std::move(values), higher_is_better)
                                        : Median(std::move(values));
}

std::string EndToEnd(Workload workload, const std::vector<EpisodeResult>& kept,
                     const std::vector<Timing>& timings, std::vector<Metric>* out) {
  std::vector<double> sim_rates;
  std::vector<double> event_rates;
  std::vector<double> setups;
  for (const Timing& timing : timings) {
    setups.push_back(timing.setup_s());
    if (timing.run_wall_s > 0.0) {
      sim_rates.push_back(timing.sim_s / timing.run_wall_s);
      event_rates.push_back(timing.events / timing.run_wall_s);
    }
  }
  const std::string statistic =
      ReportsBestTwentieth(workload) ? "best twentieth of " : "median of ";
  const std::string episodes = statistic + std::to_string(sim_rates.size()) + " episodes";
  out->push_back({"sim_s_per_wall_s", HostTime(workload, sim_rates, true), "sim-s/s", episodes});
  out->push_back({"events_per_s", HostTime(workload, event_rates, true), "1/s", episodes});
  out->push_back({"setup_s", HostTime(workload, setups, false), "s",
                  statistic + std::to_string(setups.size()) + " world builds"});
  const double rss = PeakRssMiB();
  if (rss <= 0.0) {
    return "cannot read VmHWM from /proc/self/status";
  }
  out->push_back({"peak_rss_mb", rss, "MiB", "VmHWM"});

  double possible = 0.0;
  double delivered = 0.0;
  double bytes = 0.0;
  double energy = 0.0;
  Samples latency;
  for (const EpisodeResult& episode : kept) {
    possible += static_cast<double>(episode.possible);
    delivered += static_cast<double>(episode.delivered);
    bytes += static_cast<double>(episode.window_bytes);
    energy += episode.energy;
    latency.Append(episode.latency_us);
  }
  if (delivered <= 0.0) {
    return "no operation delivered";
  }
  char note[96];
  std::snprintf(note, sizeof note, "%.0f of %.0f operations, %zu episodes", delivered, possible,
                kept.size());
  out->push_back({"delivery_ratio", delivered / possible, "fraction", note});
  for (const auto& [q, name] :
       {std::pair{0.5, "latency_p50_s"}, {0.9, "latency_p90_s"}, {0.99, "latency_p99_s"}}) {
    const std::string error = Percentile(latency, q, name, out);
    if (!error.empty()) {
      return error;
    }
  }
  out->push_back({"bytes_per_event", bytes / delivered, "bytes", "diffusion bytes, window"});
  out->push_back({"energy_per_event", energy / delivered, "relative", "power 1:2:2"});
  return "";
}

// ---- per-layer metrics (traced episodes) ------------------------------------

std::vector<Metric> PerLayer(Workload workload, const std::vector<EpisodeResult>& traced,
                             const std::vector<EpisodeResult>& kept,
                             const std::vector<Timing>& timings) {
  std::map<std::string, double> c;  // counters summed over traced episodes
  Profile p;                        // spans pooled over traced episodes
  double events = 0.0;
  double sim_s = 0.0;
  double node_seconds = 0.0;
  double traced_wall = 0.0;
  double untraced_wall = 0.0;
  double gradient_max = 0.0;
  std::vector<double> region_events;
  for (size_t i = 0; i < traced.size(); ++i) {
    const EpisodeResult& episode = traced[i];
    for (const auto& [name, value] : episode.counters) {
      c[name] += value;
    }
    events += static_cast<double>(episode.events);
    sim_s += episode.sim_s;
    node_seconds += static_cast<double>(episode.nodes) * episode.sim_s;
    traced_wall += episode.run_wall_s;
    untraced_wall += kept[i].run_wall_s;
    gradient_max = std::max(gradient_max, episode.gradient_entries_max);
    const Profile& q = episode.profile;
    p.event_ns.Append(q.event_ns);
    for (int k = 0; k < kSpanClasses; ++k) {
      p.class_ns[static_cast<size_t>(k)].Append(q.class_ns[static_cast<size_t>(k)]);
    }
    p.pending_max = std::max(p.pending_max, q.pending_max);
    p.window_ns.Append(q.window_ns);
    p.windows += q.windows;
    region_events.resize(std::max(region_events.size(), q.region_events.size()), 0.0);
    for (size_t r = 0; r < q.region_events.size(); ++r) {
      region_events[r] += static_cast<double>(q.region_events[r]);
    }
    p.propagation_calls += q.propagation_calls;
    p.propagation_ns += q.propagation_ns;
    p.trace_events += q.trace_events;
    p.sink_ns += q.sink_ns;
    p.fragment_sets += q.fragment_sets;
  }
  const auto u = [](uint64_t v) { return static_cast<double>(v); };
  const auto pct = [](Samples& s, double q) { return static_cast<double>(s.Percentile(q)); };

  std::vector<Metric> m;
  // sim: the scheduler
  m.push_back({"sim.events", events, "count", ""});
  m.push_back({"sim.sim_s", sim_s, "s", "simulated"});
  m.push_back({"sim.events_per_sim_s", Ratio(events, sim_s), "1/s", "base sim.events/sim.sim_s"});
  m.push_back({"sim.pending_max", u(p.pending_max), "count", ""});
  m.push_back({"sim.event_ns_p50", pct(p.event_ns, 0.5), "ns", "per RunOne; 0 = sharded"});
  m.push_back({"sim.event_ns_p99", pct(p.event_ns, 0.99), "ns", "per RunOne; 0 = sharded"});
  for (int k = 0; k < kSpanClasses; ++k) {
    Samples& spans = p.class_ns[static_cast<size_t>(k)];
    const std::string prefix = std::string("sim.span.") + SpanClassName(k);
    m.push_back({prefix + ".share", Ratio(u(spans.size()), u(p.event_ns.size())), "fraction",
                 "base sim.events"});
    m.push_back({prefix + ".ns_p50", pct(spans, 0.5), "ns", ""});
  }
  // sim: the sharded engine, and the radio border bridge
  double region_max = 0.0;
  double region_sum = 0.0;
  for (double v : region_events) {
    region_max = std::max(region_max, v);
    region_sum += v;
  }
  const double border = Counter(c, "bridge.frames_handed_off");
  const double clamped = Counter(c, "bridge.deliveries_clamped");
  m.push_back({"sharded.windows", u(p.windows), "count", "0 = monolithic"});
  m.push_back({"sharded.events_per_window", Ratio(events, u(p.windows)), "count",
               "base sim.events/sharded.windows"});
  m.push_back({"sharded.window_ns_p50", pct(p.window_ns, 0.5), "ns", "per RunUntil window"});
  m.push_back({"sharded.window_ns_p99", pct(p.window_ns, 0.99), "ns", "per RunUntil window"});
  m.push_back({"sharded.region_load_max_over_mean",
               region_events.empty() ? 0.0
                                     : Ratio(region_max, region_sum / u(region_events.size())),
               "ratio", "trace events per region"});
  m.push_back({"bridge.border_frames", border, "count", ""});
  m.push_back({"bridge.deliveries_clamped", clamped, "count", ""});
  m.push_back({"bridge.clamped_share", Ratio(clamped, border), "fraction",
               "base bridge.border_frames"});
  // radio: channel and propagation
  const double tx = Counter(c, "channel.transmissions");
  const double attempted = Counter(c, "channel.receptions_attempted");
  m.push_back({"channel.transmissions", tx, "count", ""});
  m.push_back({"channel.receptions_attempted", attempted, "count", ""});
  m.push_back({"channel.receptions_per_tx", Ratio(attempted, tx), "ratio",
               "base channel.transmissions"});
  m.push_back({"channel.deliveries", Counter(c, "channel.deliveries"), "count", ""});
  m.push_back({"channel.delivered_share", Ratio(Counter(c, "channel.deliveries"), attempted),
               "fraction", "base channel.receptions_attempted"});
  m.push_back({"channel.collisions", Counter(c, "channel.collisions"), "count", ""});
  m.push_back({"channel.propagation_losses", Counter(c, "channel.propagation_losses"), "count",
               ""});
  m.push_back({"propagation.calls", u(p.propagation_calls), "count", "0 = sharded"});
  m.push_back({"propagation.calls_per_tx", Ratio(u(p.propagation_calls), tx), "ratio",
               "base channel.transmissions"});
  m.push_back({"propagation.ns", u(p.propagation_ns), "ns", "host, in the decorator"});
  m.push_back({"propagation.ns_per_call", Ratio(u(p.propagation_ns), u(p.propagation_calls)),
               "ns", "base propagation.calls"});
  // radio: MAC
  const double frames = Counter(c, "mac.frames_sent");
  const double drops = Counter(c, "mac.drops_queue_full") + Counter(c, "mac.drops_channel_busy") +
                       Counter(c, "mac.drops_rate_limited") + Counter(c, "mac.drops_airtime");
  m.push_back({"mac.frames_sent", frames, "count", ""});
  for (const char* name : {"mac.drops_queue_full", "mac.drops_channel_busy",
                           "mac.drops_rate_limited", "mac.drops_airtime"}) {
    m.push_back({name, Counter(c, name), "count", ""});
  }
  m.push_back({"mac.drop_share", Ratio(drops, frames + drops), "fraction",
               "base mac.frames_sent + drops"});
  m.push_back({"mac.node_seconds", node_seconds, "s", "nodes x sim seconds"});
  m.push_back({"mac.busy_share", Ratio(Counter(c, "radio.time_sending_s"), node_seconds),
               "fraction", "base mac.node_seconds"});
  // radio: fragmentation and reassembly
  const double messages_sent = Counter(c, "radio.messages_sent");
  const double fragments_sent = Counter(c, "radio.fragments_sent");
  const double messages_received = Counter(c, "radio.messages_received");
  m.push_back({"radio.messages_sent", messages_sent, "count", ""});
  m.push_back({"radio.fragments_sent", fragments_sent, "count", ""});
  m.push_back({"radio.fragments_per_message", Ratio(fragments_sent, messages_sent), "ratio",
               "base radio.messages_sent"});
  m.push_back({"radio.fragment_sets_received", u(p.fragment_sets), "count", "from the trace"});
  m.push_back({"radio.messages_received", messages_received, "count", ""});
  m.push_back({"radio.reassembly_yield", Ratio(messages_received, u(p.fragment_sets)), "fraction",
               "base radio.fragment_sets_received"});
  m.push_back({"radio.fragments_dropped", Counter(c, "radio.fragments_dropped"), "count", ""});
  // core: node dispatch, gradients, matching; traffic policy
  const double duplicates = Counter(c, "diffusion.duplicates_suppressed");
  for (const char* name : {"diffusion.messages_sent", "diffusion.messages_forwarded"}) {
    m.push_back({name, Counter(c, name), "count", ""});
  }
  m.push_back({"diffusion.duplicates_suppressed", duplicates, "count", ""});
  m.push_back({"diffusion.dup_share", Ratio(duplicates, messages_received), "fraction",
               "base radio.messages_received"});
  m.push_back({"diffusion.gradient_entries_max", gradient_max, "count", "network-wide, sampled"});
  for (const char* name : {"diffusion.decode_failures", "diffusion.transmits_jittered",
                           "diffusion.refresh_backoffs", "diffusion.interest_scope_expansions"}) {
    m.push_back({name, Counter(c, name), "count", ""});
  }
  // filters
  const double passed = Counter(c, "filter.passed");
  const double suppressed = Counter(c, "filter.suppressed");
  m.push_back({"filter.passed", passed, "count", ""});
  m.push_back({"filter.suppressed", suppressed, "count", ""});
  m.push_back({"filter.suppressed_share", Ratio(suppressed, passed + suppressed), "fraction",
               "base filter.passed + suppressed"});
  // trace
  m.push_back({"trace.events", u(p.trace_events), "count", ""});
  m.push_back({"trace.events_per_sim_event", Ratio(u(p.trace_events), events), "ratio",
               "base sim.events"});
  m.push_back({"trace.sink_ns", u(p.sink_ns), "ns", "host, inside the sink"});
  m.push_back({"trace.untraced_wall_s", untraced_wall, "s", "same episodes, untraced"});
  m.push_back({"trace.traced_wall_s", traced_wall, "s", "all observers attached"});
  m.push_back({"trace.overhead_share", Ratio(traced_wall, untraced_wall) - 1.0, "fraction",
               "traced / untraced - 1"});
  // util: arena and slot pool
  const double acquires = Counter(c, "pool.acquires");
  m.push_back({"arena.bytes_reserved", Counter(c, "arena.bytes_reserved"), "bytes", ""});
  m.push_back({"pool.acquires", acquires, "count", ""});
  m.push_back({"pool.reuse_share", Ratio(Counter(c, "pool.reuses"), acquires), "fraction",
               "base pool.acquires"});
  // testbed: world building
  std::vector<double> layout;
  std::vector<double> world;
  std::vector<double> apps;
  for (const Timing& timing : timings) {
    layout.push_back(timing.layout_s);
    world.push_back(timing.world_s);
    apps.push_back(timing.apps_s);
  }
  m.push_back({"setup.layout_s", HostTime(workload, layout, false), "s", "as setup_s"});
  m.push_back({"setup.world_s", HostTime(workload, world, false), "s", "as setup_s"});
  m.push_back({"setup.apps_s", HostTime(workload, apps, false), "s", "as setup_s"});
  return m;
}

int Main(int argc, char** argv) {
  Args args;
  Workload workload;
  if (!ParseArgs(argc, argv, &args) || !WorkloadFromName(args.workload, &workload)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload testbed14|testbed14_overload|field10k --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  const unsigned threads = WorkerThreads(workload);
  const int deterministic = DeterministicEpisodes(workload);
  const int traced_count = args.trace == 1 ? TracedEpisodes(workload) : 1;
  int attempted = 0;
  std::printf("workload %s  seed %llu  seconds %d  trace %d  worker threads %u\n",
              WorkloadName(workload), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace, threads);

  // 1. Correctness of the bench-built world against the library's runners.
  std::vector<EpisodeResult> traced;
  traced.push_back(RunEpisode({workload, EpisodeSeed(args.seed, 0), true, true, threads}));
  attempted += 2;  // the traced episode and its reference run
  const std::string reference =
      CheckAgainstReference(workload, EpisodeSeed(args.seed, 0), traced.front());
  if (!reference.empty()) {
    return Fail(attempted, "reference check: " + reference);
  }

  // 2. Timed, untraced.
  std::vector<EpisodeResult> kept;  // the deterministic episodes, in full
  std::vector<Timing> timings{TimingOf(traced.front(), false)};
  const auto start = Clock::now();
  for (int i = 0;; ++i) {
    const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    if (i >= deterministic && elapsed >= args.seconds) {
      break;
    }
    EpisodeResult episode =
        RunEpisode({workload, EpisodeSeed(args.seed, i), false, i < traced_count, threads});
    ++attempted;
    timings.push_back(TimingOf(episode, true));
    if (i < deterministic) {
      kept.push_back(std::move(episode));
    }
  }

  // 3. Traced twins; observers must not change behaviour.
  for (int i = 1; i < traced_count; ++i) {
    traced.push_back(RunEpisode({workload, EpisodeSeed(args.seed, i), true, true, threads}));
    timings.push_back(TimingOf(traced.back(), false));
    ++attempted;
  }
  for (int i = 0; i < traced_count; ++i) {
    const std::string error =
        CompareEpisodes(kept[static_cast<size_t>(i)], traced[static_cast<size_t>(i)], false);
    if (!error.empty()) {
      return Fail(attempted, "episode " + std::to_string(i) + " untraced vs traced: " + error);
    }
  }

  std::vector<Metric> end_to_end;
  const std::string error = EndToEnd(workload, kept, timings, &end_to_end);
  PrintTable("end-to-end (untraced)", end_to_end);
  if (!error.empty()) {
    return Fail(attempted, error);
  }
  if (args.trace == 0) {
    PrintResult(true, attempted, end_to_end);
    return 0;
  }
  const std::vector<Metric> per_layer = PerLayer(workload, traced, kept, timings);
  PrintTable("per-layer (traced)", per_layer);
  PrintResult(true, attempted, per_layer);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
