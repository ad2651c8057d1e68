// Byte-for-byte pins on every experiment runner.
//
// Each case runs one runner configuration on a short window and renders
// every field of its result (doubles at full %.17g precision) plus, where
// the runner accepts a trace sink, the trace fingerprint and event count.
// A refactor of how runners compose their networks must leave every string
// intact: a change to construction order, RNG forks, wiring or accounting
// shows up as a diff of named fields. A deliberate behaviour change
// rebaselines the strings in the same commit.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <ostream>
#include <string>

#include "src/core/traffic_policy.h"
#include "src/fault/scenarios.h"
#include "src/testbed/congestion.h"
#include "src/testbed/experiments.h"
#include "src/trace/trace.h"

namespace diffusion {
namespace {

// "name=value " with integers exact and doubles round-trippable.
class Digest {
 public:
  Digest& Add(const char* name, uint64_t value) {
    out_ += name;
    out_ += '=';
    out_ += std::to_string(value);
    out_ += ' ';
    return *this;
  }
  Digest& Add(const char* name, double value) {
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    out_ += name;
    out_ += '=';
    out_ += buffer;
    out_ += ' ';
    return *this;
  }
  Digest& Trace(const FingerprintTraceSink& sink) {
    return Add("trace_events", sink.count()).Add("fingerprint", sink.fingerprint());
  }
  const std::string& str() const { return out_; }

 private:
  std::string out_;
};

std::string Fig8Digest(Fig8Params params) {
  params.warmup = 60 * kSecond;
  params.duration = 4 * kMinute;
  params.seed = 3;
  FingerprintTraceSink trace;
  params.trace_sink = &trace;
  const Fig8Result r = RunFig8(params);
  return Digest()
      .Add("bytes_per_event", r.bytes_per_event)
      .Add("distinct_events", uint64_t{r.distinct_events})
      .Add("possible_events", uint64_t{r.possible_events})
      .Add("delivery_rate", r.delivery_rate)
      .Add("diffusion_bytes", r.diffusion_bytes)
      .Add("suppressed", r.suppressed)
      .Add("mean_latency_s", r.mean_latency_s)
      .Add("energy_per_event", r.energy_per_event)
      .Add("events_executed", r.events_executed)
      .Add("pool_slots_grown", r.pool_slots_grown)
      .Add("receptions_attempted", r.receptions_attempted)
      .Add("receivers_scanned", r.receivers_scanned)
      .Trace(trace)
      .str();
}

std::string Fig9Digest(QueryMode mode) {
  Fig9Params params;
  params.mode = mode;
  params.warmup = 60 * kSecond;
  params.duration = 5 * kMinute;
  params.seed = 5;
  FingerprintTraceSink trace;
  params.trace_sink = &trace;
  const Fig9Result r = RunFig9(params);
  return Digest()
      .Add("delivered_fraction", r.delivered_fraction)
      .Add("possible_events", uint64_t{r.possible_events})
      .Add("delivered_events", uint64_t{r.delivered_events})
      .Add("diffusion_bytes", r.diffusion_bytes)
      .Add("triggers_sent", r.triggers_sent)
      .Trace(trace)
      .str();
}

std::string ScaleDigest(bool suppression) {
  ScaleParams params;
  params.nodes = 40;
  params.sources = 3;
  params.sinks = 2;
  params.suppression = suppression;
  params.warmup = 20 * kSecond;
  params.duration = 90 * kSecond;
  params.seed = 9;
  FingerprintTraceSink trace;
  params.trace_sink = &trace;
  const ScaleResult r = RunScaleExperiment(params);
  return Digest()
      .Add("bytes_per_event", r.bytes_per_event)
      .Add("distinct_events", uint64_t{r.distinct_events})
      .Add("delivery_rate", r.delivery_rate)
      .Add("energy_per_event", r.energy_per_event)
      .Add("comm_energy_per_event", r.comm_energy_per_event)
      .Trace(trace)
      .str();
}

std::string GeoDigest(bool geo_scope) {
  GeoParams params;
  params.geo_scope = geo_scope;
  params.warmup = 60 * kSecond;
  params.duration = 3 * kMinute;
  params.seed = 4;
  const GeoResult r = RunGeoExperiment(params);
  return Digest()
      .Add("bytes_per_event", r.bytes_per_event)
      .Add("delivery_rate", r.delivery_rate)
      .Add("interests_pruned", r.interests_pruned)
      .str();
}

std::string CongestionDigest(bool shaped) {
  CongestionRunParams params;
  params.seed = 2;
  params.flooder = true;
  params.second_sink = true;
  if (shaped) {
    params.policy = ReferenceShapingPolicy();
  }
  params.warmup = 60 * kSecond;
  params.end_at = 4 * kMinute;
  FingerprintTraceSink trace;
  params.trace_sink = &trace;
  const CongestionRunResult r = RunCongestionScenario(params);
  return Digest()
      .Add("events_possible", r.events_possible)
      .Add("events_delivered", r.events_delivered)
      .Add("delivery", r.delivery)
      .Add("events_delivered_second", r.events_delivered_second)
      .Add("delivery_second", r.delivery_second)
      .Add("flooder_events_generated", r.flooder_events_generated)
      .Add("flooder_events_delivered", r.flooder_events_delivered)
      .Add("bytes_sent", r.bytes_sent)
      .Add("mac_drops_queue_full", r.mac_drops_queue_full)
      .Add("mac_drops_rate_limited", r.mac_drops_rate_limited)
      .Add("mac_drops_airtime", r.mac_drops_airtime)
      .Add("mac_priority_evictions", r.mac_priority_evictions)
      .Add("transmits_jittered", r.transmits_jittered)
      .Add("interest_scope_expansions", r.interest_scope_expansions)
      .Add("refresh_backoffs", r.refresh_backoffs)
      .Trace(trace)
      .str();
}

std::string FaultDigest(FaultScenario scenario) {
  FaultScenarioParams params;
  params.scenario = scenario;
  params.seed = 6;
  params.sources = 2;
  params.warmup = 60 * kSecond;
  params.fault_at = 3 * kMinute;
  params.heal_at = 5 * kMinute;
  params.end_at = 7 * kMinute;
  FingerprintTraceSink trace;
  params.trace_sink = &trace;
  const FaultScenarioResult r = RunFaultScenario(params);
  return Digest()
      .Add("faulted_node", uint64_t{r.faulted_node})
      .Add("time_to_repair_s", r.time_to_repair_s)
      .Add("repair_bound_s", r.repair_bound_s)
      .Add("interest_refresh_s", r.interest_refresh_s)
      .Add("delivery_pre", r.delivery_pre)
      .Add("delivery_during", r.delivery_during)
      .Add("delivery_post", r.delivery_post)
      .Add("events_lost_during_outage", r.events_lost_during_outage)
      .Add("reinforcements_after_fault", r.reinforcements_after_fault)
      .Add("negative_reinforcements_after_fault", r.negative_reinforcements_after_fault)
      .Add("stale_gradients_at_sample", r.stale_gradients_at_sample)
      .Add("deliveries_total", r.deliveries_total)
      .Trace(trace)
      .str();
}

struct DigestCase {
  const char* name;
  std::function<std::string()> run;
  const char* expected;
};

Fig8Params Fig8With(AggregationStrategy strategy) {
  Fig8Params params;
  params.strategy = strategy;
  return params;
}

const DigestCase kCases[] = {
    {"fig8_suppression", [] { return Fig8Digest(Fig8With(AggregationStrategy::kSuppression)); },
     "bytes_per_event=1661.7647058823529 distinct_events=34 "
     "possible_events=40 delivery_rate=0.84999999999999998 "
     "diffusion_bytes=56500 suppressed=908 mean_latency_s=1.1486109523809522 "
     "energy_per_event=129.99750964705882 events_executed=12172 "
     "pool_slots_grown=26 receptions_attempted=14813 receivers_scanned=14813 "
     "trace_events=15753 fingerprint=5235104502953268 "},
    {"fig8_counting", [] { return Fig8Digest(Fig8With(AggregationStrategy::kCounting)); },
     "bytes_per_event=1706.7058823529412 distinct_events=34 "
     "possible_events=40 delivery_rate=0.84999999999999998 "
     "diffusion_bytes=58028 suppressed=852 mean_latency_s=11.336512675000002 "
     "energy_per_event=129.98586405882352 events_executed=11220 "
     "pool_slots_grown=20 receptions_attempted=14036 receivers_scanned=14036 "
     "trace_events=13328 fingerprint=7530632224727495 "},
    {"fig8_none", [] { return Fig8Digest(Fig8With(AggregationStrategy::kNone)); },
     "bytes_per_event=4048.4000000000001 distinct_events=40 "
     "possible_events=40 delivery_rate=1 diffusion_bytes=161936 suppressed=0 "
     "mean_latency_s=1.5180094489795919 energy_per_event=119.34954130000001 "
     "events_executed=34721 pool_slots_grown=67 receptions_attempted=41131 "
     "receivers_scanned=41131 trace_events=42925 fingerprint=4209055997268593 "},
    {"fig8_shadowing",
     [] {
       Fig8Params params;
       params.shadowing = true;
       return Fig8Digest(params);
     },
     "bytes_per_event=1814.8888888888889 distinct_events=36 "
     "possible_events=40 delivery_rate=0.90000000000000002 "
     "diffusion_bytes=65336 suppressed=1562 mean_latency_s=1.0732518444444441 "
     "energy_per_event=125.5815708611111 events_executed=14960 "
     "pool_slots_grown=45 receptions_attempted=33450 receivers_scanned=33450 "
     "trace_events=39339 fingerprint=1025892791703978 "},
    {"fig8_duty_cycle_half",
     [] {
       Fig8Params params;
       params.duty_cycle = 0.5;
       return Fig8Digest(params);
     },
     "bytes_per_event=1791.5294117647059 distinct_events=34 "
     "possible_events=40 delivery_rate=0.84999999999999998 "
     "diffusion_bytes=60912 suppressed=769 mean_latency_s=1.9308553255813956 "
     "energy_per_event=68.449450323529419 events_executed=13220 "
     "pool_slots_grown=25 receptions_attempted=15599 receivers_scanned=15599 "
     "trace_events=15877 fingerprint=2733540895743409 "},
    {"fig9_nested", [] { return Fig9Digest(QueryMode::kNested); },
     "delivered_fraction=0.90000000000000002 possible_events=20 "
     "delivered_events=18 diffusion_bytes=220375 triggers_sent=0 "
     "trace_events=50184 fingerprint=5721340836162772 "},
    {"fig9_flat", [] { return Fig9Digest(QueryMode::kFlat); },
     "delivered_fraction=0.45000000000000001 possible_events=20 "
     "delivered_events=9 diffusion_bytes=465200 triggers_sent=0 "
     "trace_events=149540 fingerprint=6355702933004704 "},
    {"fig9_flat_triggered", [] { return Fig9Digest(QueryMode::kFlatTriggered); },
     "delivered_fraction=0.10000000000000001 possible_events=20 "
     "delivered_events=2 diffusion_bytes=417071 triggers_sent=24 "
     "trace_events=126275 fingerprint=2150513280369764 "},
    {"scale_suppression", [] { return ScaleDigest(true); },
     "bytes_per_event=1116.7888888888888 distinct_events=180 delivery_rate=1 "
     "energy_per_event=24.515142166666667 "
     "comm_energy_per_event=0.14139544444444446 trace_events=25345 "
     "fingerprint=3381916534087975 "},
    {"scale_no_suppression", [] { return ScaleDigest(false); },
     "bytes_per_event=3569.3000000000002 distinct_events=180 delivery_rate=1 "
     "energy_per_event=24.694053611111112 "
     "comm_energy_per_event=0.49921833333333338 trace_events=67196 "
     "fingerprint=6731407582008034 "},
    {"geo_scoped", [] { return GeoDigest(true); },
     "bytes_per_event=2562.782608695652 delivery_rate=0.76666666666666672 "
     "interests_pruned=33 "},
    {"geo_unscoped", [] { return GeoDigest(false); },
     "bytes_per_event=4349.0476190476193 delivery_rate=0.69999999999999996 "
     "interests_pruned=0 "},
    {"congestion_flooder_second_sink", [] { return CongestionDigest(false); },
     "events_possible=25 events_delivered=0 delivery=0 "
     "events_delivered_second=0 delivery_second=0 "
     "flooder_events_generated=941 flooder_events_delivered=319 "
     "bytes_sent=464532 mac_drops_queue_full=1575 mac_drops_rate_limited=0 "
     "mac_drops_airtime=0 mac_priority_evictions=0 transmits_jittered=0 "
     "interest_scope_expansions=0 refresh_backoffs=0 trace_events=129796 "
     "fingerprint=4279808316849416 "},
    {"congestion_flooder_second_sink_shaped", [] { return CongestionDigest(true); },
     "events_possible=25 events_delivered=13 delivery=0.52000000000000002 "
     "events_delivered_second=15 delivery_second=0.59999999999999998 "
     "flooder_events_generated=941 flooder_events_delivered=127 "
     "bytes_sent=262104 mac_drops_queue_full=0 mac_drops_rate_limited=940 "
     "mac_drops_airtime=0 mac_priority_evictions=0 transmits_jittered=1222 "
     "interest_scope_expansions=0 refresh_backoffs=0 trace_events=34806 "
     "fingerprint=1505326514354946 "},
    {"fault_crash", [] { return FaultDigest(FaultScenario::kCrash); },
     "faulted_node=17 time_to_repair_s=12.159373 repair_bound_s=120 "
     "interest_refresh_s=60 delivery_pre=0.69999999999999996 "
     "delivery_during=0.5 delivery_post=0.69696969696969702 "
     "events_lost_during_outage=1 reinforcements_after_fault=22 "
     "negative_reinforcements_after_fault=2 stale_gradients_at_sample=5 "
     "deliveries_total=46 trace_events=14802 fingerprint=6116640372066452 "},
    {"fault_degrade", [] { return FaultDigest(FaultScenario::kDegrade); },
     "faulted_node=20 time_to_repair_s=5.8141829999999999 repair_bound_s=120 "
     "interest_refresh_s=60 delivery_pre=0.69999999999999996 "
     "delivery_during=0 delivery_post=1 events_lost_during_outage=20 "
     "reinforcements_after_fault=18 negative_reinforcements_after_fault=3 "
     "stale_gradients_at_sample=0 deliveries_total=40 trace_events=15306 "
     "fingerprint=4661524988841812 "},
    {"fault_partition", [] { return FaultDigest(FaultScenario::kPartition); },
     "faulted_node=4294967295 time_to_repair_s=5.7367080000000001 "
     "repair_bound_s=120 interest_refresh_s=60 "
     "delivery_pre=0.69999999999999996 delivery_during=0 "
     "delivery_post=0.80000000000000004 events_lost_during_outage=20 "
     "reinforcements_after_fault=11 negative_reinforcements_after_fault=9 "
     "stale_gradients_at_sample=0 deliveries_total=36 trace_events=15823 "
     "fingerprint=4257235297205557 "},
};

// Names the case in gtest's failure output instead of dumping its bytes.
void PrintTo(const DigestCase& c, std::ostream* os) { *os << c.name; }

class RunnerDigestTest : public ::testing::TestWithParam<DigestCase> {};

TEST_P(RunnerDigestTest, MatchesRecordedOutput) {
  const DigestCase& c = GetParam();
  EXPECT_EQ(c.run(), c.expected) << c.name;
}

INSTANTIATE_TEST_SUITE_P(AllRunners, RunnerDigestTest, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<DigestCase>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace diffusion
