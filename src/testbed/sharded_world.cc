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
    channels_.push_back(std::make_unique<Channel>(&engine_->region_sim(region),
                                                  MakePropagation(layout, params.link_delivery)));
    channel_ptrs.push_back(channels_.back().get());
  }
  bridge_ = std::make_unique<RegionBridge>(&matrix_, std::move(channel_ptrs));
  engine_->set_coupler(bridge_.get());

  // Region-major, ascending id within a region — with one region this is
  // ascending id overall, matching the monolithic construction order (and
  // hence its RNG fork sequence) exactly.
  for (int region = 0; region < map_.regions(); ++region) {
    for (NodeId id : map_.nodes_in(region)) {
      nodes_[id] = std::make_unique<DiffusionNode>(
          &engine_->region_sim(region), channels_[static_cast<size_t>(region)].get(), id,
          NodeOptions{.diffusion = params.diffusion, .radio = params.radio});
    }
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
