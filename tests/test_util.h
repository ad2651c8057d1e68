// Shared helpers for the test suite.

#ifndef TESTS_TEST_UTIL_H_
#define TESTS_TEST_UTIL_H_

#include <functional>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/radio/channel.h"
#include "src/radio/propagation.h"
#include "src/radio/wire_body.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace diffusion {
namespace testing_support {

// A channel whose nodes 1..count form a line: node i reaches i-1 and i+1
// only, with perfect delivery unless `delivery_probability` says otherwise.
inline std::unique_ptr<Channel> MakeLineChannel(Simulator* sim, size_t count,
                                                double delivery_probability = 1.0) {
  auto topology = std::make_unique<ExplicitTopology>();
  for (NodeId i = 1; i + 1 <= count; ++i) {
    LinkQuality quality;
    quality.delivery_probability = delivery_probability;
    topology->AddSymmetricLink(i, i + 1, quality);
  }
  return std::make_unique<Channel>(sim, std::move(topology));
}

// A channel where every node in 1..count hears every other (single cell).
inline std::unique_ptr<Channel> MakeCliqueChannel(Simulator* sim, size_t count,
                                                  double delivery_probability = 1.0) {
  auto topology = std::make_unique<ExplicitTopology>();
  for (NodeId a = 1; a <= count; ++a) {
    for (NodeId b = a + 1; b <= count; ++b) {
      LinkQuality quality;
      quality.delivery_probability = delivery_probability;
      topology->AddSymmetricLink(a, b, quality);
    }
  }
  return std::make_unique<Channel>(sim, std::move(topology));
}

// The bytes a radio delivered, materialized from the received body.
inline std::vector<uint8_t> BodyBytes(const WireBody& body) {
  std::vector<uint8_t> bytes;
  body.AppendBytes(&bytes);
  return bytes;
}

// Radio configuration for protocol tests: fast enough that multi-minute
// protocol timelines simulate instantly, ideal otherwise.
inline RadioConfig FastRadio() {
  RadioConfig config;
  config.mac.bitrate_bps = 1e6;
  config.mac.slot = 100;                // 100 µs
  config.mac.interframe_spacing = 100;  // 100 µs
  config.mac.initial_jitter = 200;
  return config;
}

// Bare endpoint that is always alive and never transmitting, for channel
// bookkeeping tests that attach and detach ids directly.
class IdleEndpoint : public ChannelEndpoint {
 public:
  explicit IdleEndpoint(NodeId id) : id_(id) {}
  NodeId node_id() const override { return id_; }
  bool IsAlive() const override { return true; }
  bool IsTransmitting() const override { return false; }
  void OnFrameDelivered(const Fragment&, SimDuration) override {}

 private:
  NodeId id_;
};

// Attaches idle endpoints for ids 1..count to `channel`, then makes `steps`
// random changes — a third of them an Attach or Detach of a random id, the
// rest `mutate_topology(a, b)` with random ids — and before each change
// requires every sender's receiver list (attached or not: a remote sender's
// frames resolve through the same lists) to equal a brute-force scan:
// every attached id other than the sender that `propagation` says the
// sender reaches, ascending.
inline void ExpectReceiverListsTrackChanges(
    Channel* channel, const PropagationModel& propagation, NodeId count, int steps, Rng* rng,
    const std::function<void(NodeId, NodeId)>& mutate_topology) {
  std::vector<std::unique_ptr<IdleEndpoint>> endpoints;
  std::vector<bool> attached(count + 1, true);
  for (NodeId id = 1; id <= count; ++id) {
    endpoints.push_back(std::make_unique<IdleEndpoint>(id));
    channel->Attach(endpoints.back().get());
  }
  for (int step = 0; step < steps; ++step) {
    for (NodeId sender = 1; sender <= count; ++sender) {
      std::vector<NodeId> expected;
      for (NodeId node = 1; node <= count; ++node) {
        if (attached[node] && node != sender && propagation.Reaches(sender, node)) {
          expected.push_back(node);
        }
      }
      ASSERT_EQ(channel->ReceiverIds(sender), expected)
          << "step " << step << ", sender " << sender;
    }
    const NodeId a = static_cast<NodeId>(rng->NextInt(1, count));
    const NodeId b = static_cast<NodeId>(rng->NextInt(1, count));
    if (rng->NextInt(0, 2) == 0) {
      if (attached[a]) {
        channel->Detach(a);
      } else {
        channel->Attach(endpoints[a - 1].get());
      }
      attached[a] = !attached[a];
    } else {
      mutate_topology(a, b);
    }
  }
}

}  // namespace testing_support
}  // namespace diffusion

#endif  // TESTS_TEST_UTIL_H_
