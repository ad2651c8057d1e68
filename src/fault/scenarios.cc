#include "src/fault/scenarios.h"

#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/apps/surveillance.h"
#include "src/core/node.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_overlay.h"
#include "src/fault/recovery.h"
#include "src/filters/duplicate_suppression_filter.h"
#include "src/testbed/sharded_world.h"
#include "src/testbed/topology.h"
#include "src/trace/trace_writer.h"

namespace diffusion {
namespace {

// The partition splits the layout at the gap node 20 bridges: the source
// cluster (x <= 5) plus 20 itself on one side, the sink side on the other.
const std::vector<NodeId> kPartitionSourceSide = {11, 13, 16, 22, 25, 20};
const std::vector<NodeId> kPartitionSinkSide = {17, 37, 18, 21, 24, 28, 33, 39};

}  // namespace

const char* FaultScenarioName(FaultScenario scenario) {
  switch (scenario) {
    case FaultScenario::kCrash:
      return "crash";
    case FaultScenario::kDegrade:
      return "degrade";
    case FaultScenario::kPartition:
      return "partition";
  }
  return "unknown";
}

bool FaultScenarioFromName(const std::string& name, FaultScenario* scenario) {
  if (name == "crash") {
    *scenario = FaultScenario::kCrash;
    return true;
  }
  if (name == "degrade") {
    *scenario = FaultScenario::kDegrade;
    return true;
  }
  if (name == "partition") {
    *scenario = FaultScenario::kPartition;
    return true;
  }
  return false;
}

FaultPlan BuiltinScenarioPlan(const FaultScenarioParams& params) {
  FaultPlan plan;
  switch (params.scenario) {
    case FaultScenario::kCrash: {
      FaultEvent crash;
      crash.at = params.fault_at;
      crash.kind = FaultEventKind::kCrashHottestRelay;
      // Never kill the sink, an active source, or bridge node 20 — 20 is a
      // cut vertex of the layout, and killing it tests partition behavior,
      // not local repair around a dead relay.
      crash.exclude.push_back(kIsiSinkNode);
      crash.exclude.push_back(kIsiAudioNode);
      for (NodeId source : kIsiSourceNodes) {
        crash.exclude.push_back(source);
      }
      plan.events.push_back(crash);
      break;
    }
    case FaultScenario::kDegrade: {
      FaultEvent degrade;
      degrade.at = params.fault_at;
      degrade.kind = FaultEventKind::kNodeDegrade;
      degrade.node = kIsiAudioNode;  // 20: every source->sink path crosses it
      degrade.delivery = params.degrade_delivery;
      plan.events.push_back(degrade);
      FaultEvent heal;
      heal.at = params.heal_at;
      heal.kind = FaultEventKind::kHeal;
      plan.events.push_back(heal);
      break;
    }
    case FaultScenario::kPartition: {
      FaultEvent split;
      split.at = params.fault_at;
      split.kind = FaultEventKind::kPartition;
      split.group_a = kPartitionSourceSide;
      split.group_b = kPartitionSinkSide;
      plan.events.push_back(split);
      FaultEvent heal;
      heal.at = params.heal_at;
      heal.kind = FaultEventKind::kHeal;
      plan.events.push_back(heal);
      break;
    }
  }
  return plan;
}

FaultScenarioResult RunFaultScenario(const FaultScenarioParams& params) {
  // Writer first so it outlives the world (teardown may still trace).
  std::unique_ptr<TraceWriter> trace_writer;
  TraceSink* trace_sink = ResolveTraceSink(params.trace_sink, params.trace_out, &trace_writer);
  RecoveryObserver observer(kIsiSinkNode);
  TeeTraceSink tee(trace_sink, &observer);

  const TestbedLayout layout = IsiTestbedLayout();
  DiffusionConfig dconfig;
  dconfig.forward_delay_jitter = 300 * kMillisecond;  // as in RunFig8
  FaultOverlayPropagation* overlay = nullptr;
  ShardedWorld world(layout, {.regions = 1,
                              .seed = params.seed,
                              .diffusion = dconfig,
                              .radio = TestbedRadioConfig(),
                              .propagation = [&](int /*region*/) {
                                auto wrapped = std::make_unique<FaultOverlayPropagation>(
                                    MakePropagation(layout, params.link_delivery));
                                overlay = wrapped.get();
                                return wrapped;
                              }});
  // One region traces directly, so the observer sees each event as it runs.
  world.set_merged_trace_sink(&tee);
  Simulator& sim = world.sim_of(kIsiSinkNode);

  SurveillanceConfig sconfig;
  std::vector<std::unique_ptr<DuplicateSuppressionFilter>> filters;
  for (const auto& [id, node] : world.nodes()) {
    filters.push_back(std::make_unique<DuplicateSuppressionFilter>(
        node.get(), SurveillanceDataFilterAttrs(sconfig), 10));
  }

  FaultInjector injector(&sim, &world.channel_of(kIsiSinkNode), overlay);
  for (const auto& [id, node] : world.nodes()) {
    injector.AddNode(node.get());
  }

  // Sink: record when each event sequence first arrives, and every arrival
  // instant (the time-to-repair probe).
  std::map<int64_t, SimTime> first_delivery;
  std::vector<SimTime> delivery_times;
  (void)world.node(kIsiSinkNode)
      ->Subscribe(SurveillanceInterestAttrs(sconfig), [&](const AttributeVector& attrs) {
        const Attribute* seq = FindActual(attrs, kKeySequence);
        if (seq == nullptr) {
          return;
        }
        if (std::optional<int64_t> value = seq->AsInt()) {
          delivery_times.push_back(sim.now());
          first_delivery.emplace(*value, sim.now());
        }
      });

  std::vector<std::unique_ptr<SurveillanceSource>> sources;
  const int source_count = std::min(std::max(params.sources, 1), 4);
  for (int i = 0; i < source_count; ++i) {
    const NodeId id = kIsiSourceNodes[i];
    sources.push_back(
        std::make_unique<SurveillanceSource>(world.node(id), sconfig, static_cast<int32_t>(id)));
  }
  const SimTime source_start = 5 * kSecond;
  for (auto& source : sources) {
    sim.At(source_start, [&source] { source->Start(); });
  }

  // The built-in plan, or the caller's override.
  FaultPlan plan;
  if (!params.plan_json.empty()) {
    std::string error;
    std::optional<FaultPlan> parsed = ParseFaultPlan(params.plan_json, &error);
    if (!parsed.has_value()) {
      std::cerr << "error: bad fault plan: " << error << "\n";
      return FaultScenarioResult{};
    }
    plan = std::move(*parsed);
  } else {
    plan = BuiltinScenarioPlan(params);
  }

  // Repair is measured from the instant connectivity can return: the crash
  // itself (alternates exist throughout) or the heal (degrade/partition).
  const SimTime repair_ref =
      params.scenario == FaultScenario::kCrash ? params.fault_at : params.heal_at;
  sim.At(repair_ref, [&observer, repair_ref] { observer.MarkFault(repair_ref); });
  // MarkFault is scheduled before the plan: same-time events run in insertion
  // order, so the mark is in place when a fault lands at repair_ref.
  injector.Schedule(plan);

  uint64_t stale_gradients = 0;
  sim.At(params.fault_at + params.stale_sample_after,
         [&injector, &stale_gradients] { stale_gradients = injector.CountStaleGradients(); });

  world.RunUntil(params.end_at);

  // Window accounting over generated event sequences: sequence k is
  // generated at source_start + k * event_interval (sources are
  // synchronized), and "delivered" means its first copy reached the sink at
  // any later point.
  const SimDuration interval = sconfig.event_interval;
  const auto rate_in = [&](SimTime lo, SimTime hi, uint64_t* lost) {
    uint64_t possible = 0;
    uint64_t delivered = 0;
    for (int64_t k = 0;; ++k) {
      const SimTime generated = source_start + k * interval;
      if (generated >= hi) {
        break;
      }
      if (generated < lo) {
        continue;
      }
      ++possible;
      if (first_delivery.contains(k)) {
        ++delivered;
      }
    }
    if (lost != nullptr) {
      *lost = possible - delivered;
    }
    return possible > 0 ? static_cast<double>(delivered) / static_cast<double>(possible) : 0.0;
  };

  FaultScenarioResult result;
  for (const ExecutedFault& fault : injector.executed()) {
    if (fault.kind == FaultEventKind::kCrash ||
        fault.kind == FaultEventKind::kCrashHottestRelay ||
        fault.kind == FaultEventKind::kNodeDegrade) {
      result.faulted_node = fault.node;
      break;
    }
  }

  for (SimTime when : delivery_times) {
    if (when >= repair_ref) {
      result.time_to_repair_s = DurationToSeconds(when - repair_ref);
      break;
    }
  }
  result.interest_refresh_s = DurationToSeconds(dconfig.interest_refresh);
  result.repair_bound_s = 2.0 * result.interest_refresh_s;

  // The outage window: crash = fault to first post-fault delivery (or the
  // run's end when repair never happened); degrade/partition = fault to heal.
  SimTime outage_end;
  if (params.scenario == FaultScenario::kCrash) {
    outage_end = result.time_to_repair_s >= 0.0
                     ? repair_ref + SecondsToDuration(result.time_to_repair_s)
                     : params.end_at;
  } else {
    outage_end = params.heal_at;
  }
  const SimTime post_start =
      params.scenario == FaultScenario::kCrash ? outage_end : params.heal_at;
  const SimTime post_end = params.end_at - 30 * kSecond;  // grace for in-flight events

  result.delivery_pre = rate_in(params.warmup, params.fault_at, nullptr);
  result.delivery_during =
      rate_in(params.fault_at, outage_end, &result.events_lost_during_outage);
  result.delivery_post = rate_in(post_start, post_end, nullptr);

  result.reinforcements_after_fault = observer.reinforcements_after_fault();
  result.negative_reinforcements_after_fault = observer.negative_reinforcements_after_fault();
  result.stale_gradients_at_sample = stale_gradients;
  result.deliveries_total = static_cast<uint64_t>(delivery_times.size());
  return result;
}

}  // namespace diffusion
