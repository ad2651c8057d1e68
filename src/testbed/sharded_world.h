// A complete network: simulators, channels, propagation and DiffusionNodes,
// composed in one place. Every experiment runner builds its world here at
// one region; the parallel benches build it at many.
//
// ShardedWorld takes any TestbedLayout and builds, per spatial region (see
// src/radio/region_map.h): a Simulator shard inside a ShardedEngine, a
// Channel with its own propagation model (full geometry, local endpoints
// only), and the region's DiffusionNodes. A RegionBridge couples the
// channels across borders through mailboxes drained at each window barrier.
//
// Construction order is part of the output, since each channel and node
// forks its RNG from its region's Simulator when built: channels in region
// order, then nodes region-major and in `layout.node_ids` order within a
// region. One region is thus exactly the hand-built network (Simulator,
// Channel, nodes in layout order) and runs as the sequential engine (see
// src/sim/sharded_engine.h).
//
// With more regions the run is deterministic at any thread count, but
// differs from the monolithic run at region borders: cross-region frames
// cannot collide with (or be corrupted by) transmissions in the destination
// region that start after the frame was posted, and their delivery may be
// deferred to the next barrier (src/radio/region_bridge.h). Within a region
// the radio model is exact.

#ifndef SRC_TESTBED_SHARDED_WORLD_H_
#define SRC_TESTBED_SHARDED_WORLD_H_

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/core/node.h"
#include "src/radio/channel.h"
#include "src/radio/region_bridge.h"
#include "src/radio/region_map.h"
#include "src/sim/sharded_engine.h"
#include "src/testbed/topology.h"

namespace diffusion {

struct ShardedWorldParams {
  // Target region count (the actual grid may be slightly smaller; see
  // RegionMap). 1 degenerates to the sequential engine.
  int regions = 4;
  // Worker threads; 0 = AvailableCpus(). Output is identical for every
  // value (the determinism contract in src/sim/sharded_engine.h).
  unsigned threads = 1;
  // Conservative lookahead window; 0 picks max(min frame airtime, 1 ms) —
  // exact cross-region timing whenever the radio is slow enough that a
  // frame outlasts a millisecond, bounded-lateness otherwise.
  SimDuration window = 0;
  uint64_t seed = 1;
  double link_delivery = 0.98;
  DiffusionConfig diffusion{};
  RadioConfig radio{};
  // Region `region`'s channel propagation; empty = MakePropagation(layout,
  // link_delivery). Region coupling always comes from the disk model, so at
  // more than one region a factory reaching past the disk (shadowing) is
  // outside RegionLinkMatrix's superset guarantee.
  std::function<std::unique_ptr<PropagationModel>(int region)> propagation{};
  // The options node `id` is built with; empty = {diffusion, radio}.
  std::function<NodeOptions(NodeId id)> node_options{};
};

class ShardedWorld {
 public:
  ShardedWorld(const TestbedLayout& layout, const ShardedWorldParams& params);

  ShardedWorld(const ShardedWorld&) = delete;
  ShardedWorld& operator=(const ShardedWorld&) = delete;

  ShardedEngine& engine() { return *engine_; }
  const RegionMap& region_map() const { return map_; }
  const RegionLinkMatrix& link_matrix() const { return matrix_; }
  const RegionBridge& bridge() const { return *bridge_; }
  SimDuration window() const { return engine_->window(); }

  DiffusionNode* node(NodeId id) { return nodes_.at(id).get(); }
  const std::map<NodeId, std::unique_ptr<DiffusionNode>>& nodes() const { return nodes_; }

  // The simulator shard that owns `id` — schedule application events (source
  // starts, fault plans) through this, never through another region's sim.
  Simulator& sim_of(NodeId id) { return engine_->region_sim(map_.RegionOf(id)); }
  Channel& channel_of(NodeId id) {
    return *channels_[static_cast<size_t>(map_.RegionOf(id))];
  }

  // See ShardedEngine::set_merged_trace_sink / RunUntil.
  void set_merged_trace_sink(TraceSink* sink) { engine_->set_merged_trace_sink(sink); }
  uint64_t RunUntil(SimTime end) { return engine_->RunUntil(end); }

  // Channel-wide counters summed over every region's channel.
  ChannelStats TotalChannelStats() const;

  // Publishes the bridge's handoff/clamp counters ("bridge.*", including the
  // per-region bridge.deliveries_clamped.r<N> family) as global metrics.
  // Collect between windows only; the world must outlive the registry's use.
  void RegisterBridgeMetrics(MetricsRegistry* registry) const {
    bridge_->RegisterMetrics(registry);
  }

 private:
  RegionMap map_;
  RegionLinkMatrix matrix_;
  std::unique_ptr<ShardedEngine> engine_;
  std::vector<std::unique_ptr<Channel>> channels_;
  std::unique_ptr<RegionBridge> bridge_;
  std::map<NodeId, std::unique_ptr<DiffusionNode>> nodes_;
};

}  // namespace diffusion

#endif  // SRC_TESTBED_SHARDED_WORLD_H_
