#include "src/testbed/sharded_world.h"

#include <algorithm>
#include <utility>

namespace diffusion {

ShardedWorld::ShardedWorld(const TestbedLayout& layout, const ShardedWorldParams& params)
    : map_(layout.node_ids, layout.positions, params.regions),
      // A throwaway propagation supplies the geometry; the matrix copies what
      // it needs (links, reach, minimum airtime) in its constructor.
      matrix_(map_, *MakePropagation(layout, params.link_delivery), params.radio.mac) {
  ShardedEngineConfig config;
  config.regions = map_.regions();
  config.threads = params.threads;
  config.window =
      params.window > 0 ? params.window : std::max(matrix_.min_frame_airtime(), 1 * kMillisecond);
  config.seed = params.seed;
  engine_ = std::make_unique<ShardedEngine>(config);

  // Every region's channel carries the full propagation geometry (so a
  // remote sender's reachability and link quality evaluate locally) but only
  // its own region's endpoints.
  std::vector<Channel*> channel_ptrs;
  for (int region = 0; region < map_.regions(); ++region) {
    channels_.push_back(std::make_unique<Channel>(
        &engine_->region_sim(region), params.propagation
                                          ? params.propagation(region)
                                          : MakePropagation(layout, params.link_delivery)));
    channel_ptrs.push_back(channels_.back().get());
  }
  bridge_ = std::make_unique<RegionBridge>(&matrix_, std::move(channel_ptrs));
  engine_->set_coupler(bridge_.get());

  // Region-major, layout order within a region (see the header): a stable
  // sort by region keeps layout order among each region's nodes.
  std::vector<NodeId> order = layout.node_ids;
  std::stable_sort(order.begin(), order.end(),
                   [this](NodeId a, NodeId b) { return map_.RegionOf(a) < map_.RegionOf(b); });
  for (NodeId id : order) {
    const int region = map_.RegionOf(id);
    nodes_[id] = std::make_unique<DiffusionNode>(
        &engine_->region_sim(region), channels_[static_cast<size_t>(region)].get(), id,
        params.node_options ? params.node_options(id)
                            : NodeOptions{.diffusion = params.diffusion, .radio = params.radio});
  }
}

ChannelStats ShardedWorld::TotalChannelStats() const {
  ChannelStats total;
  for (const auto& channel : channels_) {
    const ChannelStats& stats = channel->stats();
    total.transmissions += stats.transmissions;
    total.receptions_attempted += stats.receptions_attempted;
    total.collisions += stats.collisions;
    total.propagation_losses += stats.propagation_losses;
    total.deliveries += stats.deliveries;
    total.receivers_scanned += stats.receivers_scanned;
  }
  return total;
}

}  // namespace diffusion
