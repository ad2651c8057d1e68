#include "perfbench/workloads.h"

#include <sched.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <memory>
#include <optional>
#include <unordered_set>

#include "src/apps/surveillance.h"
#include "src/core/node.h"
#include "src/filters/duplicate_suppression_filter.h"
#include "src/naming/keys.h"
#include "src/radio/energy.h"
#include "src/testbed/congestion.h"
#include "src/testbed/experiments.h"
#include "src/testbed/sharded_world.h"
#include "src/testbed/topology.h"
#include "src/trace/metrics.h"

namespace perfbench {

using diffusion::AttributeVector;
using diffusion::Channel;
using diffusion::DiffusionNode;
using diffusion::NodeId;
using diffusion::SimDuration;
using diffusion::SimTime;
using diffusion::TraceEvent;
using diffusion::TraceEventKind;
using diffusion::kMillisecond;
using diffusion::kMinute;
using diffusion::kSecond;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point start, Clock::time_point stop) {
  return std::chrono::duration<double>(stop - start).count();
}

uint64_t NanosBetween(Clock::time_point start, Clock::time_point stop) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start).count());
}

// ---- workload shapes ----------------------------------------------------

// The ISI-testbed workloads share one world builder; these are the knobs
// that distinguish the Figure-8 experiment from the overload point of the
// congestion suite's load sweep.
struct TestbedShape {
  int sources;
  SimDuration event_interval;
  bool shaped;              // ReferenceShapingPolicy() on every node
  SimDuration stagger;      // source i starts at kTestbedSourceStart + i * stagger
  SimTime warmup;           // measurement window starts here
  SimTime end;              // episode length
  bool window_by_arrival;   // RunFig8 counts first copies arriving after warmup;
                            // RunCongestionScenario counts events generated in
                            // [warmup, end - grace) that ever arrive
};

constexpr SimTime kTestbedSourceStart = 5 * kSecond;  // RunFig8, RunCongestionScenario
constexpr SimDuration kCongestionGrace = 30 * kSecond;

// Figure 8 (§6.1): Fig8Params defaults.
constexpr TestbedShape kTestbed14Shape{4, 6 * kSecond, false, 0, 60 * kSecond,
                                       60 * kSecond + 30 * kMinute, true};
// 16x the paper's offered load, shaped: the load_sweep 375 ms point.
constexpr TestbedShape kOverloadShape{5, 375 * kMillisecond, true, 700 * kMillisecond,
                                      60 * kSecond, 6 * kMinute, false};

// The parallel_scaling world.
constexpr int kFieldSide = 100;
constexpr double kFieldSpacing = 10.0;
constexpr double kFieldRange = 12.0;
constexpr int kFieldRegions = 16;
constexpr int kFieldCells = 4;  // 4x4 sinks, four sources around each
constexpr SimTime kFieldSourceStart = 1 * kSecond;
constexpr SimTime kFieldEnd = 10 * kSecond;
constexpr SimDuration kFieldGrace = 2 * kSecond;

// ---- observers ------------------------------------------------------------

// Cost of one Clock::now(), which every timed region also pays once: the
// median of back-to-back reads, measured once per process.
uint64_t ClockOverheadNs() {
  static const uint64_t overhead = [] {
    std::vector<uint64_t> reads;
    for (int i = 0; i < 1001; ++i) {
      const auto start = Clock::now();
      reads.push_back(NanosBetween(start, Clock::now()));
    }
    std::nth_element(reads.begin(), reads.begin() + 500, reads.end());
    return reads[500];
  }();
  return overhead;
}

// Host time of a call too short to time every instance without the clock
// dominating (a propagation query, a trace emit): every kStride-th call is
// timed, the clock's own cost is taken off, and the sum is scaled to all
// calls. Counts stay exact.
class SampledTimer {
 public:
  static constexpr uint64_t kStride = 16;

  bool ShouldTime() { return calls_++ % kStride == 0; }
  void Add(uint64_t ns) {
    ++timed_;
    sum_ns_ += ns > ClockOverheadNs() ? ns - ClockOverheadNs() : 0;
  }
  uint64_t calls() const { return calls_; }
  uint64_t EstimatedNs() const {
    return timed_ == 0 ? 0
                       : static_cast<uint64_t>(static_cast<double>(sum_ns_) *
                                               static_cast<double>(calls_) /
                                               static_cast<double>(timed_));
  }

 private:
  uint64_t calls_ = 0;
  uint64_t timed_ = 0;
  uint64_t sum_ns_ = 0;
};

// Forwarding PropagationModel that counts and host-times the queries the
// channel makes into propagation.
class TimedPropagation : public diffusion::PropagationModel {
 public:
  explicit TimedPropagation(std::unique_ptr<diffusion::PropagationModel> inner)
      : inner_(std::move(inner)) {}

  bool Reaches(NodeId from, NodeId to) const override {
    if (!timer_.ShouldTime()) {
      return inner_->Reaches(from, to);
    }
    const auto start = Clock::now();
    const bool reaches = inner_->Reaches(from, to);
    timer_.Add(NanosBetween(start, Clock::now()));
    return reaches;
  }

  double DeliveryProbability(NodeId from, NodeId to, SimTime now) const override {
    if (!timer_.ShouldTime()) {
      return inner_->DeliveryProbability(from, to, now);
    }
    const auto start = Clock::now();
    const double probability = inner_->DeliveryProbability(from, to, now);
    timer_.Add(NanosBetween(start, Clock::now()));
    return probability;
  }

  const SampledTimer& timer() const { return timer_; }

 private:
  std::unique_ptr<diffusion::PropagationModel> inner_;
  mutable SampledTimer timer_;
};

int SpanClassOf(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kFragmentTx:
    case TraceEventKind::kMacDrop:
    case TraceEventKind::kMacRateLimited:
    case TraceEventKind::kMacAirtimeDrop:
    case TraceEventKind::kMacPriorityEvicted:
    case TraceEventKind::kEnergyState:
      return kSpanTx;
    case TraceEventKind::kFragmentRx:
    case TraceEventKind::kCollision:
    case TraceEventKind::kPropagationLoss:
      return kSpanRx;
    case TraceEventKind::kExploratoryForward:
    case TraceEventKind::kDataForward:
    case TraceEventKind::kDataReceived:
    case TraceEventKind::kDataDelivered:
    case TraceEventKind::kDuplicateSuppressed:
    case TraceEventKind::kFilterSuppressed:
    case TraceEventKind::kReinforcementSent:
    case TraceEventKind::kReinforcementReceived:
    case TraceEventKind::kGradientReinforced:
    case TraceEventKind::kGradientNegativelyReinforced:
      return kSpanData;
    case TraceEventKind::kInterestSent:
    case TraceEventKind::kInterestReceived:
    case TraceEventKind::kGradientCreated:
    case TraceEventKind::kGradientExpired:
    case TraceEventKind::kInterestScopeChanged:
    case TraceEventKind::kRefreshBackoff:
      return kSpanInterest;
    case TraceEventKind::kStaleFilterReinjected:
    case TraceEventKind::kFaultInjected:
      return kSpanOther;
  }
  return kSpanOther;
}

// Precedence when one span emitted several classes.
constexpr int kSpanPrecedence[] = {kSpanData, kSpanInterest, kSpanRx, kSpanTx, kSpanOther};

// The traced episode's sink: fingerprints the stream (the same FNV-1a fold
// the repo's benches gate on), counts it, notes which span classes the
// current scheduler event emitted, attributes events to regions, and counts
// distinct fragment sets for the reassembly yield. Host-times itself, sampled.
class ProfileSink : public diffusion::TraceSink {
 public:
  explicit ProfileSink(const diffusion::RegionMap* regions) : regions_(regions) {
    if (regions_ != nullptr) {
      region_events_.assign(static_cast<size_t>(regions_->regions()), 0);
    }
  }

  void OnEvent(const TraceEvent& event) override {
    if (!timer_.ShouldTime()) {
      Record(event);
      return;
    }
    const auto start = Clock::now();
    Record(event);
    timer_.Add(NanosBetween(start, Clock::now()));
  }

  // Class of the span that just ended; resets for the next one.
  int TakeSpanClass() {
    const uint32_t seen = span_classes_;
    span_classes_ = 0;
    for (int span_class : kSpanPrecedence) {
      if ((seen & (1U << span_class)) != 0) {
        return span_class;
      }
    }
    return kSpanNone;
  }

  void Finish(Profile* profile) const {
    profile->fingerprint = diffusion::TruncateTraceFingerprint(hash_);
    profile->trace_events = timer_.calls();
    profile->sink_ns = timer_.EstimatedNs();
    profile->fragment_sets = fragment_sets_.size();
    profile->region_events = region_events_;
  }

 private:
  void Record(const TraceEvent& event) {
    hash_ = diffusion::FoldTraceEvent(hash_, event);
    span_classes_ |= 1U << SpanClassOf(event.kind);
    if (event.kind == TraceEventKind::kFragmentRx) {
      // Link-layer ids are sender<<32 | message seq; node ids fit in 16 bits.
      fragment_sets_.insert((static_cast<uint64_t>(event.node) << 48) ^ event.packet);
    }
    if (regions_ != nullptr) {
      ++region_events_[static_cast<size_t>(regions_->RegionOf(event.node))];
    }
  }

  const diffusion::RegionMap* regions_;
  SampledTimer timer_;
  uint64_t hash_ = diffusion::kTraceFingerprintSeed;
  uint32_t span_classes_ = 0;
  std::unordered_set<uint64_t> fragment_sets_;
  std::vector<uint64_t> region_events_;
};

// Stands in for SurveillanceSink: subscribes with the same
// SurveillanceInterestAttrs (so the trace is unchanged) but keeps, per
// detection event, the source timestamp and arrival time of the first copy
// instead of a mean-only RunningStat.
class FirstCopyRecorder {
 public:
  struct FirstCopy {
    SimTime published;
    SimTime delivered;
  };

  // `per_source`: each source's report is its own event (the field, which
  // has no duplicate suppression); otherwise the sources' synchronized
  // sequence number identifies the event (§6.1).
  FirstCopyRecorder(DiffusionNode* node, bool per_source) : node_(node), per_source_(per_source) {
    handle_ = node->Subscribe(diffusion::SurveillanceInterestAttrs(diffusion::SurveillanceConfig{}),
                              [this](const AttributeVector& attrs) { OnData(attrs); });
  }
  ~FirstCopyRecorder() { (void)node_->Unsubscribe(handle_); }

  FirstCopyRecorder(const FirstCopyRecorder&) = delete;
  FirstCopyRecorder& operator=(const FirstCopyRecorder&) = delete;

  static uint64_t Key(int64_t source, int64_t sequence) {
    return (static_cast<uint64_t>(source) << 32) | static_cast<uint32_t>(sequence);
  }

  const std::map<uint64_t, FirstCopy>& first_copies() const { return first_; }

 private:
  void OnData(const AttributeVector& attrs) {
    const diffusion::Attribute* sequence = diffusion::FindActual(attrs, diffusion::kKeySequence);
    const diffusion::Attribute* stamp = diffusion::FindActual(attrs, diffusion::kKeyTimestamp);
    const diffusion::Attribute* source = diffusion::FindActual(attrs, diffusion::kKeySourceId);
    if (sequence == nullptr || stamp == nullptr || source == nullptr) {
      return;
    }
    const std::optional<int64_t> seq = sequence->AsInt();
    const std::optional<int64_t> sent_at = stamp->AsInt();
    const std::optional<int64_t> source_id = source->AsInt();
    if (!seq || !sent_at || !source_id) {
      return;
    }
    first_.emplace(Key(per_source_ ? *source_id : 0, *seq),
                   FirstCopy{*sent_at, node_->simulator().now()});
  }

  DiffusionNode* node_;
  bool per_source_;
  diffusion::SubscriptionHandle handle_ = diffusion::kInvalidHandle;
  std::map<uint64_t, FirstCopy> first_;
};

using NodeMap = std::map<NodeId, std::unique_ptr<DiffusionNode>>;

uint64_t DiffusionBytes(const NodeMap& nodes) {
  uint64_t total = 0;
  for (const auto& [id, node] : nodes) {
    total += node->stats().bytes_sent;
  }
  return total;
}

// Measured listen/receive/send times at the paper's 1:2:2 power ratios, in
// second-equivalents (the RunFig8 energy model).
double MeasuredEnergy(const NodeMap& nodes, SimTime elapsed) {
  const diffusion::EnergyRatios ratios;
  double energy = 0.0;
  for (const auto& [id, node] : nodes) {
    const double tx = static_cast<double>(node->radio().time_sending());
    const double rx = static_cast<double>(node->radio().stats().time_receiving);
    const double listen =
        std::max(0.0, node->radio().awake_fraction() * static_cast<double>(elapsed) - tx - rx);
    energy += ratios.listen * listen + ratios.receive * rx + ratios.send * tx;
  }
  return energy / static_cast<double>(kSecond);
}

double GradientEntries(const NodeMap& nodes) {
  size_t total = 0;
  for (const auto& [id, node] : nodes) {
    total += node->gradients().size();
  }
  return static_cast<double>(total);
}

// Sums every registered metric over nodes in ascending id order, then adds
// the global ones. Gauges that read the clock are left out: a traced run ends
// one marker event later than its untraced twin.
std::map<std::string, double> SumRegistry(const diffusion::MetricsRegistry& registry) {
  std::map<std::string, double> sums;
  for (NodeId id : registry.nodes()) {
    for (const auto& [name, value] : registry.Collect(id)) {
      sums[name] += value;
    }
  }
  for (const auto& [name, value] : registry.CollectGlobal()) {
    sums[name] += value;
  }
  sums.erase("energy.relative");
  return sums;
}

void AddUtilCounters(diffusion::Simulator& sim, std::map<std::string, double>* counters) {
  (*counters)["arena.bytes_reserved"] += static_cast<double>(sim.arena().bytes_reserved());
  (*counters)["pool.acquires"] += static_cast<double>(sim.slot_pool().acquires());
  (*counters)["pool.reuses"] += static_cast<double>(sim.slot_pool().reuses());
}

void AddLatency(const FirstCopyRecorder::FirstCopy& copy, EpisodeResult* result) {
  result->latency_us.Add(copy.delivered - copy.published);
}

// Runs scheduler events up to `end` inclusive, one host-timed RunOne span at
// a time. A marker event one microsecond past `end` stops the loop (the
// scheduler has no peek): anything at or before `end` runs first, exactly as
// under RunUntil. Returns the engine events run, marker excluded.
uint64_t RunSpans(diffusion::Simulator& sim, SimTime end, ProfileSink& sink, const NodeMap& nodes,
                  EpisodeResult* result) {
  bool reached = false;
  sim.At(end + 1, [&reached] { reached = true; });
  Profile& profile = result->profile;
  uint64_t events = 0;
  for (;;) {
    const auto start = Clock::now();
    sim.scheduler().RunOne();
    const auto stop = Clock::now();
    if (reached) {
      (void)sink.TakeSpanClass();
      return events;
    }
    ++events;
    const auto ns = static_cast<int64_t>(NanosBetween(start, stop));
    profile.event_ns.Add(ns);
    profile.class_ns[static_cast<size_t>(sink.TakeSpanClass())].Add(ns);
    profile.pending_max =
        std::max<uint64_t>(profile.pending_max, sim.scheduler().pending() - 1);  // marker
    if (events % 256 == 0) {
      result->gradient_entries_max = std::max(result->gradient_entries_max, GradientEntries(nodes));
    }
  }
}

// ---- the ISI testbed (testbed14, testbed14_overload) -----------------------

EpisodeResult RunTestbedEpisode(const EpisodeSpec& spec, const TestbedShape& shape) {
  EpisodeResult result;
  const auto t0 = Clock::now();
  const diffusion::TestbedLayout layout = diffusion::IsiTestbedLayout();
  const auto t1 = Clock::now();

  std::optional<ProfileSink> sink;
  diffusion::Simulator sim(spec.seed);
  if (spec.traced) {
    sink.emplace(nullptr);
    sim.set_trace_sink(&*sink);
  }
  std::unique_ptr<diffusion::PropagationModel> propagation =
      diffusion::MakePropagation(layout, 0.98);
  TimedPropagation* timed = nullptr;
  if (spec.traced) {
    auto wrapped = std::make_unique<TimedPropagation>(std::move(propagation));
    timed = wrapped.get();
    propagation = std::move(wrapped);
  }
  Channel channel(&sim, std::move(propagation));

  diffusion::DiffusionConfig dconfig;
  // ~5 message airtimes at 13 kb/s, as in RunFig8 and RunCongestionScenario.
  dconfig.forward_delay_jitter = 300 * kMillisecond;
  diffusion::NodeOptions options{.diffusion = dconfig, .radio = diffusion::TestbedRadioConfig()};
  if (shape.shaped) {
    options.traffic = diffusion::ReferenceShapingPolicy();
  }
  NodeMap nodes;
  for (NodeId id : layout.node_ids) {
    nodes[id] = std::make_unique<DiffusionNode>(&sim, &channel, id, options);
  }
  const auto t2 = Clock::now();

  diffusion::SurveillanceConfig sconfig;
  sconfig.event_interval = shape.event_interval;
  // "All nodes were configured with aggregation filters" (§6.1).
  std::vector<std::unique_ptr<diffusion::DuplicateSuppressionFilter>> filters;
  for (auto& [id, node] : nodes) {
    filters.push_back(std::make_unique<diffusion::DuplicateSuppressionFilter>(
        node.get(), diffusion::SurveillanceDataFilterAttrs(sconfig), 10));
  }
  FirstCopyRecorder recorder(nodes.at(diffusion::kIsiSinkNode).get(), /*per_source=*/false);
  // The Figure-7 source nodes first, then (overload only) the other sensing
  // nodes in layout order, as RunCongestionScenario picks them.
  std::vector<NodeId> candidates(std::begin(diffusion::kIsiSourceNodes),
                                 std::end(diffusion::kIsiSourceNodes));
  for (NodeId id : layout.node_ids) {
    if (id != diffusion::kIsiSinkNode && id != diffusion::kIsiUserNode &&
        id != diffusion::kIsiAudioNode &&
        std::find(candidates.begin(), candidates.end(), id) == candidates.end()) {
      candidates.push_back(id);
    }
  }
  std::vector<std::unique_ptr<diffusion::SurveillanceSource>> sources;
  for (int i = 0; i < shape.sources; ++i) {
    const NodeId id = candidates[static_cast<size_t>(i)];
    sources.push_back(std::make_unique<diffusion::SurveillanceSource>(
        nodes.at(id).get(), sconfig, static_cast<int32_t>(id)));
    diffusion::SurveillanceSource* source = sources.back().get();
    sim.At(kTestbedSourceStart + i * shape.stagger, [source] { source->Start(); });
  }
  const auto t3 = Clock::now();
  result.layout_s = SecondsBetween(t0, t1);
  result.world_s = SecondsBetween(t1, t2);
  result.apps_s = SecondsBetween(t2, t3);

  size_t delivered_at_warmup = 0;
  const auto run_start = Clock::now();
  if (spec.traced) {
    result.events = RunSpans(sim, shape.warmup, *sink, nodes, &result);
    result.window_bytes = DiffusionBytes(nodes);
    delivered_at_warmup = recorder.first_copies().size();
    result.events += RunSpans(sim, shape.end, *sink, nodes, &result);
  } else {
    result.events = sim.RunUntil(shape.warmup);
    result.window_bytes = DiffusionBytes(nodes);
    delivered_at_warmup = recorder.first_copies().size();
    result.events += sim.RunUntil(shape.end);
  }
  result.run_wall_s = SecondsBetween(run_start, Clock::now());
  result.sim_s = static_cast<double>(shape.end) / static_cast<double>(kSecond);
  result.nodes = nodes.size();

  result.total_bytes = DiffusionBytes(nodes);
  result.window_bytes = result.total_bytes - result.window_bytes;
  result.energy = MeasuredEnergy(nodes, shape.end);

  const auto& first = recorder.first_copies();
  if (shape.window_by_arrival) {
    // RunFig8: events generated in [warmup, end), first copies arriving
    // after the warmup snapshot.
    const SimDuration interval = shape.event_interval;
    const int64_t begin = (shape.warmup - kTestbedSourceStart + interval - 1) / interval;
    const int64_t stop = (shape.end - kTestbedSourceStart + interval - 1) / interval;
    result.possible = static_cast<uint64_t>(std::max<int64_t>(0, stop - begin));
    result.delivered = first.size() - delivered_at_warmup;
    for (const auto& [key, copy] : first) {
      if (copy.delivered > shape.warmup) {
        AddLatency(copy, &result);
      }
    }
  } else {
    // RunCongestionScenario: event k generated at start + k * interval
    // inside [warmup, end - grace), delivered if any copy ever arrived.
    for (int64_t k = 0;; ++k) {
      const SimTime generated = kTestbedSourceStart + k * shape.event_interval;
      if (generated >= shape.end - kCongestionGrace) {
        break;
      }
      if (generated < shape.warmup) {
        continue;
      }
      ++result.possible;
      const auto it = first.find(FirstCopyRecorder::Key(0, k));
      if (it != first.end()) {
        ++result.delivered;
        AddLatency(it->second, &result);
      }
    }
  }

  if (spec.counters) {
    diffusion::MetricsRegistry registry;
    for (auto& [id, node] : nodes) {
      node->RegisterMetrics(&registry);
    }
    for (const auto& filter : filters) {
      filter->RegisterMetrics(&registry);
    }
    channel.RegisterMetrics(&registry);
    result.counters = SumRegistry(registry);
    AddUtilCounters(sim, &result.counters);
  }
  if (spec.traced) {
    result.gradient_entries_max = std::max(result.gradient_entries_max, GradientEntries(nodes));
    result.profile.propagation_calls = timed->timer().calls();
    result.profile.propagation_ns = timed->timer().EstimatedNs();
    sink->Finish(&result.profile);
  }
  return result;
}

// ---- the 10k-node field (field10k) ----------------------------------------

NodeId GridId(int row, int col) { return static_cast<NodeId>(row * kFieldSide + col) + 1; }

EpisodeResult RunFieldEpisode(const EpisodeSpec& spec) {
  EpisodeResult result;
  const auto t0 = Clock::now();
  const diffusion::TestbedLayout layout =
      diffusion::GridLayout(kFieldSide, kFieldSide, kFieldSpacing, kFieldRange);
  const auto t1 = Clock::now();
  diffusion::ShardedWorldParams params;
  params.regions = kFieldRegions;
  params.threads = spec.threads;
  params.seed = spec.seed;
  params.radio = diffusion::SimulationRadioConfig();
  diffusion::ShardedWorld world(layout, params);
  std::optional<ProfileSink> sink;
  if (spec.traced) {
    sink.emplace(&world.region_map());
    world.set_merged_trace_sink(&*sink);
  }
  const auto t2 = Clock::now();

  // One sink per placement cell, four sources three hops out (the
  // parallel_scaling placement: every region carries comparable load).
  const int step = kFieldSide / kFieldCells;
  const int offset = step / 2;
  std::vector<std::unique_ptr<FirstCopyRecorder>> recorders;
  std::vector<std::vector<int32_t>> flows;  // per recorder: the source ids placed for it
  std::vector<std::unique_ptr<diffusion::SurveillanceSource>> sources;
  const diffusion::SurveillanceConfig sconfig;
  int32_t next_source_id = 1;
  for (int i = 0; i < kFieldCells; ++i) {
    for (int j = 0; j < kFieldCells; ++j) {
      const int row = offset + i * step;
      const int col = offset + j * step;
      recorders.push_back(
          std::make_unique<FirstCopyRecorder>(world.node(GridId(row, col)), /*per_source=*/true));
      flows.emplace_back();
      const int spread = 3;
      const NodeId source_ids[] = {GridId(row - spread, col), GridId(row + spread, col),
                                   GridId(row, col - spread), GridId(row, col + spread)};
      for (NodeId id : source_ids) {
        flows.back().push_back(next_source_id);
        sources.push_back(std::make_unique<diffusion::SurveillanceSource>(world.node(id), sconfig,
                                                                          next_source_id++));
        diffusion::SurveillanceSource* source = sources.back().get();
        world.sim_of(id).At(kFieldSourceStart, [source] { source->Start(); });
      }
    }
  }
  const auto t3 = Clock::now();
  result.layout_s = SecondsBetween(t0, t1);
  result.world_s = SecondsBetween(t1, t2);
  result.apps_s = SecondsBetween(t2, t3);

  const auto run_start = Clock::now();
  if (spec.traced) {
    // One host-timed span per conservative window: the same windows
    // RunUntil(kFieldEnd) would run, so barrier cost shows per call.
    Profile& profile = result.profile;
    const SimDuration window = world.window();
    for (SimTime bound = window;; bound += window) {
      const SimTime stop = std::min<SimTime>(bound - 1, kFieldEnd);
      const auto start = Clock::now();
      result.events += world.RunUntil(stop);
      profile.window_ns.Add(static_cast<int64_t>(NanosBetween(start, Clock::now())));
      uint64_t pending = 0;
      for (int r = 0; r < world.engine().regions(); ++r) {
        pending += world.engine().region_sim(r).scheduler().pending();
      }
      profile.pending_max = std::max(profile.pending_max, pending);
      if (profile.window_ns.size() % 100 == 0) {
        result.gradient_entries_max =
            std::max(result.gradient_entries_max, GradientEntries(world.nodes()));
      }
      if (stop == kFieldEnd) {
        break;
      }
    }
    profile.windows = world.engine().windows_run();
  } else {
    result.events = world.RunUntil(kFieldEnd);
  }
  result.run_wall_s = SecondsBetween(run_start, Clock::now());
  result.sim_s = static_cast<double>(kFieldEnd) / static_cast<double>(kSecond);
  result.nodes = world.nodes().size();

  result.total_bytes = DiffusionBytes(world.nodes());
  result.window_bytes = result.total_bytes;
  result.energy = MeasuredEnergy(world.nodes(), kFieldEnd);

  // Every sink subscribes to the whole field, but its flows are the four
  // sources placed around it: an operation is a (sink, own source, k) triple,
  // event k published at start + k * interval before end - grace. Without
  // duplicate suppression each source's report is its own event.
  const SimDuration interval = sconfig.event_interval;
  for (size_t sink = 0; sink < recorders.size(); ++sink) {
    const auto& first = recorders[sink]->first_copies();
    for (int32_t source : flows[sink]) {
      for (int64_t k = 0; kFieldSourceStart + k * interval < kFieldEnd - kFieldGrace; ++k) {
        ++result.possible;
        const auto it = first.find(FirstCopyRecorder::Key(source, k));
        if (it != first.end()) {
          ++result.delivered;
          AddLatency(it->second, &result);
        }
      }
    }
  }

  if (spec.counters) {
    diffusion::MetricsRegistry registry;
    for (const auto& [id, node] : world.nodes()) {
      node->RegisterMetrics(&registry);
    }
    world.RegisterBridgeMetrics(&registry);
    result.counters = SumRegistry(registry);
    const diffusion::ChannelStats channel = world.TotalChannelStats();
    result.counters["channel.transmissions"] = static_cast<double>(channel.transmissions);
    result.counters["channel.receptions_attempted"] =
        static_cast<double>(channel.receptions_attempted);
    result.counters["channel.collisions"] = static_cast<double>(channel.collisions);
    result.counters["channel.propagation_losses"] = static_cast<double>(channel.propagation_losses);
    result.counters["channel.deliveries"] = static_cast<double>(channel.deliveries);
    result.counters["sharded.windows"] = static_cast<double>(world.engine().windows_run());
    for (int r = 0; r < world.engine().regions(); ++r) {
      AddUtilCounters(world.engine().region_sim(r), &result.counters);
    }
  }
  if (spec.traced) {
    result.gradient_entries_max =
        std::max(result.gradient_entries_max, GradientEntries(world.nodes()));
    sink->Finish(&result.profile);
  }
  return result;
}

std::string Mismatch(const char* what, double expected, double got) {
  char line[160];
  std::snprintf(line, sizeof line, "%s: expected %.17g, got %.17g", what, expected, got);
  return line;
}

// (what, expected, got) triples; every value here is exact in a double
// (counts below 2^53, 53-bit fingerprints, or the same double computed twice).
using Checks = std::vector<std::pair<const char*, std::pair<double, double>>>;

std::string FirstMismatch(const Checks& checks) {
  for (const auto& [what, values] : checks) {
    if (values.first != values.second) {
      return Mismatch(what, values.first, values.second);
    }
  }
  return "";
}

}  // namespace

bool WorkloadFromName(const std::string& name, Workload* workload) {
  for (Workload candidate :
       {Workload::kTestbed14, Workload::kTestbed14Overload, Workload::kField10k}) {
    if (name == WorkloadName(candidate)) {
      *workload = candidate;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kTestbed14:
      return "testbed14";
    case Workload::kTestbed14Overload:
      return "testbed14_overload";
    case Workload::kField10k:
      return "field10k";
  }
  return "unknown";
}

int DeterministicEpisodes(Workload workload) {
  // Enough operations that p99 has at least ten samples beyond it with
  // margin: ~265 delivered per testbed14 episode, ~145 per overload episode,
  // ~125 per field episode.
  switch (workload) {
    case Workload::kTestbed14:
    case Workload::kTestbed14Overload:
      return 16;
    case Workload::kField10k:
      return 12;
  }
  return 1;
}

bool ReportsBestTwentieth(Workload workload) { return workload != Workload::kField10k; }

int TracedEpisodes(Workload workload) {
  return workload == Workload::kField10k ? 2 : DeterministicEpisodes(workload);
}

unsigned WorkerThreads(Workload workload) {
  if (workload != Workload::kField10k) {
    return 1;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  unsigned cpus = 1;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    cpus = static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return std::min(4U, cpus);
}

uint64_t EpisodeSeed(uint64_t seed, int index) {
  // SplitMix64 over (seed, index): independent episode streams.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(index) + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) & ((1ULL << 53) - 1);
}

const char* SpanClassName(int span_class) {
  static const char* const kNames[kSpanClasses] = {"none", "tx", "rx", "data", "interest", "other"};
  return kNames[span_class];
}

EpisodeResult RunEpisode(const EpisodeSpec& spec) {
#if defined(__GLIBC__)
  // Start every build from a cold heap, as a fresh process would. Otherwise
  // glibc consolidates the previous world's freed chunks inside whichever
  // build first asks for a large block: on testbed14 about one build in three
  // took 170-240 us instead of 25-50 us.
  malloc_trim(0);
#endif
  switch (spec.workload) {
    case Workload::kTestbed14:
      return RunTestbedEpisode(spec, kTestbed14Shape);
    case Workload::kTestbed14Overload:
      return RunTestbedEpisode(spec, kOverloadShape);
    case Workload::kField10k:
      return RunFieldEpisode(spec);
  }
  return {};
}

std::string CheckAgainstReference(Workload workload, uint64_t episode_seed,
                                  const EpisodeResult& traced) {
  diffusion::FingerprintTraceSink fingerprint;
  Checks checks;
  switch (workload) {
    case Workload::kTestbed14: {
      diffusion::Fig8Params params;
      params.seed = episode_seed;
      params.warmup = kTestbed14Shape.warmup;
      params.duration = kTestbed14Shape.end - kTestbed14Shape.warmup;
      params.trace_sink = &fingerprint;
      const diffusion::Fig8Result fig8 = diffusion::RunFig8(params);
      checks = {
          {"RunFig8 events_executed",
           {static_cast<double>(fig8.events_executed), static_cast<double>(traced.events)}},
          {"RunFig8 diffusion_bytes",
           {static_cast<double>(fig8.diffusion_bytes), static_cast<double>(traced.window_bytes)}},
          {"RunFig8 distinct_events",
           {static_cast<double>(fig8.distinct_events), static_cast<double>(traced.delivered)}},
          {"RunFig8 possible_events",
           {static_cast<double>(fig8.possible_events), static_cast<double>(traced.possible)}},
      };
      break;
    }
    case Workload::kTestbed14Overload: {
      diffusion::CongestionRunParams params;
      params.seed = episode_seed;
      params.sources = kOverloadShape.sources;
      params.event_interval = kOverloadShape.event_interval;
      params.policy = diffusion::ReferenceShapingPolicy();
      params.warmup = kOverloadShape.warmup;
      params.end_at = kOverloadShape.end;
      params.trace_sink = &fingerprint;
      const diffusion::CongestionRunResult congestion = diffusion::RunCongestionScenario(params);
      const auto counter = [&traced](const char* name) {
        const auto it = traced.counters.find(name);
        return it == traced.counters.end() ? -1.0 : it->second;
      };
      checks = {
          {"RunCongestionScenario events_possible",
           {static_cast<double>(congestion.events_possible), static_cast<double>(traced.possible)}},
          {"RunCongestionScenario events_delivered",
           {static_cast<double>(congestion.events_delivered),
            static_cast<double>(traced.delivered)}},
          {"RunCongestionScenario bytes_sent",
           {congestion.bytes_sent, static_cast<double>(traced.total_bytes)}},
          {"RunCongestionScenario mac_drops_rate_limited",
           {static_cast<double>(congestion.mac_drops_rate_limited),
            counter("mac.drops_rate_limited")}},
      };
      break;
    }
    case Workload::kField10k: {
      EpisodeSpec one_thread{Workload::kField10k, episode_seed, /*traced=*/true,
                             /*counters=*/true, /*threads=*/1};
      const std::string error = CompareEpisodes(RunEpisode(one_thread), traced, true);
      return error.empty() ? error : "1-thread vs " + std::to_string(WorkerThreads(workload)) +
                                         "-thread traced run: " + error;
    }
  }
  checks.push_back({"trace fingerprint",
                    {static_cast<double>(fingerprint.fingerprint()),
                     static_cast<double>(traced.profile.fingerprint)}});
  checks.push_back({"trace events",
                    {static_cast<double>(fingerprint.count()),
                     static_cast<double>(traced.profile.trace_events)}});
  return FirstMismatch(checks);
}

std::string CompareEpisodes(const EpisodeResult& a, const EpisodeResult& b, bool with_trace) {
  Checks checks = {
      {"events", {static_cast<double>(a.events), static_cast<double>(b.events)}},
      {"possible", {static_cast<double>(a.possible), static_cast<double>(b.possible)}},
      {"delivered", {static_cast<double>(a.delivered), static_cast<double>(b.delivered)}},
      {"window bytes", {static_cast<double>(a.window_bytes), static_cast<double>(b.window_bytes)}},
      {"total bytes", {static_cast<double>(a.total_bytes), static_cast<double>(b.total_bytes)}},
      {"energy", {a.energy, b.energy}},
      {"latency samples",
       {static_cast<double>(a.latency_us.size()), static_cast<double>(b.latency_us.size())}},
      {"latency sum",
       {static_cast<double>(a.latency_us.Sum()), static_cast<double>(b.latency_us.Sum())}},
  };
  if (with_trace) {
    checks.push_back({"trace fingerprint",
                      {static_cast<double>(a.profile.fingerprint),
                       static_cast<double>(b.profile.fingerprint)}});
    checks.push_back({"trace events",
                      {static_cast<double>(a.profile.trace_events),
                       static_cast<double>(b.profile.trace_events)}});
  }
  for (const auto& [name, value] : a.counters) {
    const auto it = b.counters.find(name);
    checks.push_back({name.c_str(), {value, it == b.counters.end() ? -1.0 : it->second}});
  }
  if (a.counters.size() != b.counters.size()) {
    return "counter sets differ";
  }
  return FirstMismatch(checks);
}

}  // namespace perfbench
