// Tests for the radio substrate: propagation, fragmentation, channel
// collisions, the CSMA MAC, and the energy model.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "src/core/node.h"
#include "src/naming/keys.h"
#include "src/radio/channel.h"
#include "src/radio/energy.h"
#include "src/radio/fragmentation.h"
#include "src/radio/mac.h"
#include "src/radio/propagation.h"
#include "src/radio/radio.h"
#include "src/sim/simulator.h"
#include "src/trace/trace.h"
#include "src/util/arena.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace diffusion {
namespace {

using testing_support::BodyBytes;
using testing_support::ExpectReceiverListsTrackChanges;
using testing_support::FastRadio;
using testing_support::MakeCliqueChannel;
using testing_support::MakeLineChannel;

// ---- Propagation ----

TEST(PropagationTest, DiskRange) {
  DiskPropagation prop(10.0);
  prop.SetPosition(1, {0, 0, 0});
  prop.SetPosition(2, {6, 8, 0});   // distance 10
  prop.SetPosition(3, {7, 8, 0});   // distance ~10.6
  EXPECT_TRUE(prop.Reaches(1, 2));
  EXPECT_TRUE(prop.Reaches(2, 1));
  EXPECT_FALSE(prop.Reaches(1, 3));
  EXPECT_FALSE(prop.Reaches(1, 1));  // never reaches self
}

TEST(PropagationTest, FloorsBlockUnlessConfigured) {
  DiskPropagation prop(10.0);
  prop.SetPosition(1, {0, 0, 10});
  prop.SetPosition(2, {1, 0, 11});
  EXPECT_FALSE(prop.Reaches(1, 2));
  prop.set_inter_floor_range(5.0);
  EXPECT_TRUE(prop.Reaches(1, 2));
}

TEST(PropagationTest, AsymmetricLinkViaOverride) {
  // §6.4: "some experiments seemed to show asymmetric links".
  DiskPropagation prop(1.0);  // too short for any natural link
  prop.SetPosition(1, {0, 0, 0});
  prop.SetPosition(2, {5, 0, 0});
  LinkQuality quality;
  quality.delivery_probability = 0.8;
  prop.SetLinkQuality(1, 2, quality);
  EXPECT_TRUE(prop.Reaches(1, 2));
  EXPECT_FALSE(prop.Reaches(2, 1));  // only one direction overridden
  EXPECT_DOUBLE_EQ(prop.DeliveryProbability(1, 2, 0), 0.8);
  EXPECT_DOUBLE_EQ(prop.DeliveryProbability(2, 1, 0), 0.0);
}

TEST(PropagationTest, BlockedLink) {
  DiskPropagation prop(10.0);
  prop.SetPosition(1, {0, 0, 0});
  prop.SetPosition(2, {1, 0, 0});
  EXPECT_TRUE(prop.Reaches(1, 2));
  prop.BlockLink(1, 2);
  EXPECT_FALSE(prop.Reaches(1, 2));
  EXPECT_TRUE(prop.Reaches(2, 1));
}

TEST(PropagationTest, IntermittentLinkWindows) {
  // §6.4: "some links provided only intermittent connectivity".
  LinkQuality quality;
  quality.delivery_probability = 0.9;
  quality.intermittent = true;
  quality.period = 10 * kSecond;
  quality.on_fraction = 0.5;
  EXPECT_DOUBLE_EQ(EvaluateLinkQuality(quality, 0), 0.9);
  EXPECT_DOUBLE_EQ(EvaluateLinkQuality(quality, 4 * kSecond), 0.9);
  EXPECT_DOUBLE_EQ(EvaluateLinkQuality(quality, 5 * kSecond), 0.0);
  EXPECT_DOUBLE_EQ(EvaluateLinkQuality(quality, 9 * kSecond), 0.0);
  EXPECT_DOUBLE_EQ(EvaluateLinkQuality(quality, 12 * kSecond), 0.9);
}

TEST(PropagationTest, ExplicitTopology) {
  ExplicitTopology topology;
  topology.AddLink(1, 2);
  EXPECT_TRUE(topology.Reaches(1, 2));
  EXPECT_FALSE(topology.Reaches(2, 1));
  topology.AddSymmetricLink(2, 3);
  EXPECT_TRUE(topology.Reaches(2, 3));
  EXPECT_TRUE(topology.Reaches(3, 2));
  topology.RemoveLink(1, 2);
  EXPECT_FALSE(topology.Reaches(1, 2));
}

// ---- Fragmentation ----

// Fragments reference pooled ByteBodies, the form byte senders put on the
// wire.
class FragmentationTest : public ::testing::Test {
 protected:
  BodyRef Body(std::vector<uint8_t> bytes) { return ByteBody::Make(&pool_, std::move(bytes)); }

  Arena arena_;
  SlotPool pool_{&arena_};
};

TEST_F(FragmentationTest, SplitSizes) {
  const BodyRef body = Body(std::vector<uint8_t>(112, 0x11));
  const auto fragments = SplitMessage(1, 2, 7, body, 27);
  ASSERT_EQ(fragments.size(), 5u);  // 112 = 4*27 + 4
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(fragments[i].payload_len, 27u);
    EXPECT_EQ(fragments[i].body_offset, 27u * i);
    EXPECT_EQ(fragments[i].index, i);
    EXPECT_EQ(fragments[i].count, 5);
    EXPECT_EQ(fragments[i].body.get(), body.get());  // one shared body
  }
  EXPECT_EQ(fragments[4].payload_len, 4u);
  EXPECT_EQ(fragments[4].WireSize(), Fragment::kHeaderBytes + 4);
}

TEST_F(FragmentationTest, EmptyPayloadYieldsOneFragment) {
  const auto fragments = SplitMessage(1, 2, 7, Body({}), 27);
  ASSERT_EQ(fragments.size(), 1u);
  EXPECT_EQ(fragments[0].payload_len, 0u);
  EXPECT_EQ(fragments[0].WireSize(), Fragment::kHeaderBytes);
}

TEST_F(FragmentationTest, ReassemblyInOrder) {
  Reassembler reassembler(kSecond);
  const std::vector<uint8_t> payload(60, 0xcd);
  const auto fragments = SplitMessage(1, 2, 7, Body(payload), 27);
  for (size_t i = 0; i + 1 < fragments.size(); ++i) {
    EXPECT_EQ(reassembler.Add(fragments[i], 0), std::nullopt);
  }
  const auto completed = reassembler.Add(fragments.back(), 0);
  ASSERT_TRUE(completed.has_value());
  EXPECT_EQ(BodyBytes(*completed->body), payload);
  EXPECT_EQ(completed->src, 1u);
  EXPECT_EQ(reassembler.pending(), 0u);
}

TEST_F(FragmentationTest, ReassemblyOutOfOrderAndDuplicates) {
  Reassembler reassembler(kSecond);
  const std::vector<uint8_t> payload(100, 0xee);
  auto fragments = SplitMessage(1, 2, 7, Body(payload), 27);
  ASSERT_EQ(fragments.size(), 4u);
  EXPECT_EQ(reassembler.Add(fragments[2], 0), std::nullopt);
  EXPECT_EQ(reassembler.Add(fragments[0], 0), std::nullopt);
  EXPECT_EQ(reassembler.Add(fragments[0], 0), std::nullopt);  // duplicate
  EXPECT_EQ(reassembler.Add(fragments[3], 0), std::nullopt);
  const auto completed = reassembler.Add(fragments[1], 0);
  ASSERT_TRUE(completed.has_value());
  EXPECT_EQ(BodyBytes(*completed->body), payload);
}

TEST_F(FragmentationTest, MissingFragmentTimesOut) {
  Reassembler reassembler(kSecond);
  const auto fragments = SplitMessage(1, 2, 7, Body(std::vector<uint8_t>(60, 1)), 27);
  reassembler.Add(fragments[0], 0);
  reassembler.Add(fragments[1], 0);
  EXPECT_EQ(reassembler.pending(), 1u);
  reassembler.Purge(2 * kSecond);
  EXPECT_EQ(reassembler.pending(), 0u);
  // The late fragment alone cannot complete the message.
  EXPECT_EQ(reassembler.Add(fragments[2], 2 * kSecond), std::nullopt);
}

TEST_F(FragmentationTest, InterleavedSendersReassembleIndependently) {
  Reassembler reassembler(kSecond);
  const std::vector<uint8_t> pa(30, 0xaa);
  const std::vector<uint8_t> pb(30, 0xbb);
  const auto fa = SplitMessage(1, 9, 5, Body(pa), 27);
  const auto fb = SplitMessage(2, 9, 5, Body(pb), 27);
  ASSERT_EQ(fa.size(), 2u);
  EXPECT_EQ(reassembler.Add(fa[0], 0), std::nullopt);
  EXPECT_EQ(reassembler.Add(fb[0], 0), std::nullopt);
  auto done_b = reassembler.Add(fb[1], 0);
  ASSERT_TRUE(done_b.has_value());
  EXPECT_EQ(BodyBytes(*done_b->body), pb);
  auto done_a = reassembler.Add(fa[1], 0);
  ASSERT_TRUE(done_a.has_value());
  EXPECT_EQ(BodyBytes(*done_a->body), pa);
}

TEST_F(FragmentationTest, OutOfRangeFragmentIsDropped) {
  // Regression: a fragment whose index is not below its count erased its
  // fresh partial and re-added itself forever (a stack overflow).
  Reassembler reassembler(kSecond);
  const std::vector<uint8_t> payload(40, 0x5a);
  const auto fragments = SplitMessage(1, 2, 1, Body(payload), 27);
  ASSERT_EQ(fragments.size(), 2u);
  Fragment past_end = fragments[0];
  past_end.index = 2;
  past_end.count = 2;
  EXPECT_EQ(reassembler.Add(past_end, 0), std::nullopt);
  EXPECT_EQ(reassembler.pending(), 0u);
  Fragment no_count = fragments[0];
  no_count.index = 0;
  no_count.count = 0;
  EXPECT_EQ(reassembler.Add(no_count, 0), std::nullopt);
  EXPECT_EQ(reassembler.pending(), 0u);

  // Dropping it leaves a message under the same key undisturbed.
  EXPECT_EQ(reassembler.Add(fragments[0], 0), std::nullopt);
  EXPECT_EQ(reassembler.Add(past_end, 0), std::nullopt);
  EXPECT_EQ(reassembler.pending(), 1u);
  const auto completed = reassembler.Add(fragments[1], 0);
  ASSERT_TRUE(completed.has_value());
  EXPECT_EQ(BodyBytes(*completed->body), payload);
  EXPECT_EQ(reassembler.pending(), 0u);
}

TEST_F(FragmentationTest, InterleavedSendersWithTimeoutsMatchModel) {
  // Fragments of many senders' messages arrive interleaved, some lost and
  // some late. A message must surface exactly when all of its fragments
  // arrived within the timeout of its first one, with its own body.
  constexpr SimDuration kTimeout = kSecond;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    struct Arrival {
      SimTime at;
      Fragment fragment;
    };
    struct Sent {
      BodyRef body;
      NodeId dst;
      bool expected;
    };
    std::vector<Arrival> arrivals;
    std::map<std::pair<NodeId, uint32_t>, Sent> sent;
    for (NodeId src = 1; src <= 6; ++src) {
      for (uint32_t seq = 1; seq <= 12; ++seq) {
        // Mostly short messages, a few past the 64-fragment inline mask.
        const size_t bytes = rng.NextInt(0, 9) == 0 ? static_cast<size_t>(rng.NextInt(65, 70))
                                                    : static_cast<size_t>(rng.NextInt(0, 8));
        const NodeId dst = static_cast<NodeId>(rng.NextInt(0, 3));
        const BodyRef body = Body(std::vector<uint8_t>(bytes, static_cast<uint8_t>(seq)));
        const SimTime start = rng.NextInt(0, 20 * kSecond);
        SimTime first = kMaxSimTime;
        SimTime last = 0;
        bool all_arrived = true;
        for (Fragment& fragment : SplitMessage(src, dst, seq, body, 1)) {
          if (rng.NextInt(0, 19) == 0) {
            all_arrived = false;  // lost on the air
            continue;
          }
          const SimTime at = start + rng.NextInt(0, kTimeout * 3 / 2);
          first = std::min(first, at);
          last = std::max(last, at);
          arrivals.push_back({at, std::move(fragment)});
        }
        sent[{src, seq}] = Sent{body, dst, all_arrived && last - first <= kTimeout};
      }
    }
    std::stable_sort(arrivals.begin(), arrivals.end(),
                     [](const Arrival& a, const Arrival& b) { return a.at < b.at; });

    Reassembler reassembler(kTimeout);
    std::set<std::pair<NodeId, uint32_t>> completed;
    for (const Arrival& arrival : arrivals) {
      const auto done = reassembler.Add(arrival.fragment, arrival.at);
      if (!done.has_value()) {
        continue;
      }
      const std::pair<NodeId, uint32_t> key{done->src, arrival.fragment.message_seq};
      ASSERT_TRUE(completed.insert(key).second) << "seed " << seed << ": completed twice";
      EXPECT_EQ(done->body.get(), sent[key].body.get()) << "seed " << seed;
      EXPECT_EQ(done->dst, sent[key].dst) << "seed " << seed;
    }
    std::set<std::pair<NodeId, uint32_t>> expected;
    for (const auto& [key, message] : sent) {
      if (message.expected) {
        expected.insert(key);
      }
    }
    EXPECT_EQ(completed, expected) << "seed " << seed;
    reassembler.Purge(30 * kSecond);
    EXPECT_EQ(reassembler.pending(), 0u) << "seed " << seed;
  }
}

// ---- Radio / channel / MAC end-to-end ----

TEST(RadioTest, DeliversAcrossOneHop) {
  Simulator sim(1);
  auto channel = MakeLineChannel(&sim, 2);
  Radio a(&sim, channel.get(), 1, FastRadio());
  Radio b(&sim, channel.get(), 2, FastRadio());
  std::vector<uint8_t> received;
  NodeId from = 0;
  b.SetReceiveCallback([&](NodeId src, const WireBody& body) {
    from = src;
    received = BodyBytes(body);
  });
  const std::vector<uint8_t> payload(112, 0x42);
  EXPECT_TRUE(a.SendMessage(kBroadcastId, payload));
  sim.RunUntil(kSecond);
  EXPECT_EQ(received, payload);
  EXPECT_EQ(from, 1u);
  EXPECT_EQ(a.stats().messages_sent, 1u);
  EXPECT_EQ(a.stats().fragments_sent, 5u);
  EXPECT_EQ(b.stats().fragments_received, 5u);
  EXPECT_EQ(b.stats().messages_received, 1u);
  EXPECT_EQ(b.stats().message_bytes_received, 112u);
}

TEST(RadioTest, UnicastFilteredButOverheard) {
  Simulator sim(2);
  auto channel = MakeCliqueChannel(&sim, 3);
  Radio a(&sim, channel.get(), 1, FastRadio());
  Radio b(&sim, channel.get(), 2, FastRadio());
  Radio c(&sim, channel.get(), 3, FastRadio());
  int b_received = 0;
  int c_received = 0;
  b.SetReceiveCallback([&](NodeId, const WireBody&) { ++b_received; });
  c.SetReceiveCallback([&](NodeId, const WireBody&) { ++c_received; });
  a.SendMessage(2, std::vector<uint8_t>(40, 1));
  sim.RunUntil(kSecond);
  EXPECT_EQ(b_received, 1);
  EXPECT_EQ(c_received, 0);
  // C still paid receive time for the overheard frames.
  EXPECT_GT(c.stats().time_receiving, 0);
}

TEST(RadioTest, NoDeliveryOutOfRange) {
  Simulator sim(3);
  auto channel = MakeLineChannel(&sim, 3);  // 1-2-3; 1 cannot reach 3
  Radio a(&sim, channel.get(), 1, FastRadio());
  Radio b(&sim, channel.get(), 2, FastRadio());
  Radio c(&sim, channel.get(), 3, FastRadio());
  int c_received = 0;
  c.SetReceiveCallback([&](NodeId, const WireBody&) { ++c_received; });
  a.SendMessage(kBroadcastId, std::vector<uint8_t>(20, 1));
  sim.RunUntil(kSecond);
  EXPECT_EQ(c_received, 0);
}

TEST(RadioTest, HiddenTerminalCollision) {
  // 1 and 3 cannot hear each other but both reach 2: simultaneous
  // transmissions collide at 2 (§6.1: "hidden terminals are endemic").
  Simulator sim(4);
  auto channel = MakeLineChannel(&sim, 3);
  RadioConfig config = FastRadio();
  config.mac.initial_jitter = 0;  // force exact overlap
  Radio a(&sim, channel.get(), 1, config);
  Radio b(&sim, channel.get(), 2, config);
  Radio c(&sim, channel.get(), 3, config);
  int b_received = 0;
  b.SetReceiveCallback([&](NodeId, const WireBody&) { ++b_received; });
  a.SendMessage(kBroadcastId, std::vector<uint8_t>(20, 1));
  c.SendMessage(kBroadcastId, std::vector<uint8_t>(20, 2));
  sim.RunUntil(kSecond);
  EXPECT_EQ(b_received, 0);
  EXPECT_GE(channel->stats().collisions, 2u);
}

TEST(RadioTest, LargeNodeIdsShareOneChannel) {
  // Channel bookkeeping costs memory per attached endpoint, not per id value:
  // an id near the top of the 32-bit range must neither allocate an
  // id-indexed table nor change delivery, collision or per-node accounting.
  constexpr NodeId kBig = 0xFFFFFFF0u;
  Simulator sim(13);
  auto disk = std::make_unique<DiskPropagation>(10.0);
  disk->SetPosition(1, {0, 0, 0});
  disk->SetPosition(2, {8, 0, 0});
  disk->SetPosition(kBig, {16, 0, 0});  // hidden from node 1; both reach 2
  Channel channel(&sim, std::move(disk));
  RadioConfig config = FastRadio();
  config.mac.initial_jitter = 0;  // force exact overlap below
  Radio a(&sim, &channel, 1, config);
  Radio b(&sim, &channel, 2, config);
  Radio big(&sim, &channel, kBig, config);
  std::vector<NodeId> b_heard_from;
  b.SetReceiveCallback(
      [&](NodeId src, const WireBody&) { b_heard_from.push_back(src); });

  // Delivery from the large id.
  big.SendMessage(kBroadcastId, std::vector<uint8_t>(20, 1));
  sim.RunUntil(kSecond);
  EXPECT_EQ(b_heard_from, (std::vector<NodeId>{kBig}));
  const ChannelStats big_before = channel.NodeStats(kBig);
  EXPECT_GT(big_before.transmissions, 0u);

  // Hidden-terminal collision between node 1 and the large id at node 2.
  const uint64_t collisions_before = channel.stats().collisions;
  a.SendMessage(kBroadcastId, std::vector<uint8_t>(20, 2));
  big.SendMessage(kBroadcastId, std::vector<uint8_t>(20, 3));
  sim.RunUntil(2 * kSecond);
  EXPECT_EQ(b_heard_from.size(), 1u);
  EXPECT_GE(channel.stats().collisions - collisions_before, 2u);
  EXPECT_GE(channel.NodeStats(2).collisions, 2u);

  // Per-node counters survive Detach and re-Attach under the large id.
  const ChannelStats big_attached = channel.NodeStats(kBig);
  channel.Detach(kBig);
  EXPECT_EQ(channel.NodeStats(kBig).transmissions, big_attached.transmissions);
  EXPECT_EQ(channel.NodeStatsSinceAttach(kBig).transmissions, 0u);
  channel.Attach(&big);
  EXPECT_EQ(channel.NodeStats(kBig).transmissions, big_attached.transmissions);
  EXPECT_EQ(channel.NodeStatsSinceAttach(kBig).transmissions, 0u);
  b.SendMessage(kBroadcastId, std::vector<uint8_t>(20, 4));
  sim.RunUntil(3 * kSecond);
  const ChannelStats since = channel.NodeStatsSinceAttach(kBig);
  EXPECT_GT(since.deliveries, 0u);
  EXPECT_EQ(since.transmissions, 0u);
  EXPECT_EQ(channel.NodeStats(kBig).deliveries, big_attached.deliveries + since.deliveries);
}

TEST(RadioTest, CarrierSenseAvoidsCollisionWhenInRange) {
  // When both senders hear each other, CSMA serializes them.
  Simulator sim(5);
  auto channel = MakeCliqueChannel(&sim, 3);
  Radio a(&sim, channel.get(), 1, FastRadio());
  Radio b(&sim, channel.get(), 2, FastRadio());
  Radio c(&sim, channel.get(), 3, FastRadio());
  int received = 0;
  c.SetReceiveCallback([&](NodeId, const WireBody&) { ++received; });
  for (int i = 0; i < 10; ++i) {
    a.SendMessage(kBroadcastId, std::vector<uint8_t>(20, 1));
    b.SendMessage(kBroadcastId, std::vector<uint8_t>(20, 2));
  }
  sim.RunUntil(10 * kSecond);
  EXPECT_EQ(received, 20);
}

TEST(RadioTest, LossyLinkDropsWholeMessages) {
  // Per-fragment loss amplifies into message loss (§6.1): with 5 fragments
  // at 70% fragment delivery, message delivery ≈ 0.7^5 ≈ 17%.
  Simulator sim(6);
  auto channel = MakeLineChannel(&sim, 2, 0.7);
  Radio a(&sim, channel.get(), 1, FastRadio());
  Radio b(&sim, channel.get(), 2, FastRadio());
  int received = 0;
  b.SetReceiveCallback([&](NodeId, const WireBody&) { ++received; });
  const int sent = 300;
  for (int i = 0; i < sent; ++i) {
    sim.After(i * 20 * kMillisecond, [&a] { a.SendMessage(kBroadcastId, std::vector<uint8_t>(112, 3)); });
  }
  sim.RunUntil(20 * kSecond);
  const double rate = static_cast<double>(received) / sent;
  EXPECT_GT(rate, 0.05);
  EXPECT_LT(rate, 0.35);
}

TEST(RadioTest, DeadRadioNeitherSendsNorReceives) {
  Simulator sim(7);
  auto channel = MakeLineChannel(&sim, 2);
  Radio a(&sim, channel.get(), 1, FastRadio());
  Radio b(&sim, channel.get(), 2, FastRadio());
  int received = 0;
  b.SetReceiveCallback([&](NodeId, const WireBody&) { ++received; });
  b.Kill();
  a.SendMessage(kBroadcastId, std::vector<uint8_t>(20, 1));
  sim.RunUntil(kSecond);
  EXPECT_EQ(received, 0);
  a.Kill();
  EXPECT_FALSE(a.SendMessage(kBroadcastId, std::vector<uint8_t>(20, 1)));
  b.Revive();
  a.Revive();
  EXPECT_TRUE(a.SendMessage(kBroadcastId, std::vector<uint8_t>(20, 1)));
  sim.RunUntil(2 * kSecond);
  EXPECT_EQ(received, 1);
}

namespace {

// Bare channel endpoint for driving Channel::Transmit directly.
class RecordingEndpoint : public ChannelEndpoint {
 public:
  explicit RecordingEndpoint(NodeId id, bool transmitting = false)
      : id_(id), transmitting_(transmitting) {}

  NodeId node_id() const override { return id_; }
  bool IsAlive() const override { return true; }
  bool IsTransmitting() const override { return transmitting_; }
  void OnFrameDelivered(const Fragment& fragment, SimDuration airtime) override {
    (void)fragment;
    (void)airtime;
    ++delivered_;
  }

  int delivered() const { return delivered_; }

 private:
  NodeId id_;
  bool transmitting_;
  int delivered_ = 0;
};

}  // namespace

TEST(ChannelTest, DetachMidFlightScrubsReceptions) {
  // Regression: Detach only removed the endpoint, leaving the node's
  // Reception records inside other senders' in-flight transmissions. When a
  // new endpoint re-attached under the same id before those resolved, the
  // stale records delivered frames to it and — with two overlapping
  // transmissions — charged it phantom collisions.
  Simulator sim(11);
  auto channel = MakeCliqueChannel(&sim, 3);
  RecordingEndpoint tx_a(1, /*transmitting=*/true);
  RecordingEndpoint tx_b(2, /*transmitting=*/true);
  RecordingEndpoint receiver(3);
  const ChannelPort port_a = channel->Attach(&tx_a);
  const ChannelPort port_b = channel->Attach(&tx_b);
  channel->Attach(&receiver);

  // Two transmissions overlap at node 3 for their whole duration.
  Fragment frame_a;
  frame_a.src = 1;
  frame_a.body = ByteBody::Make(&sim.slot_pool(), std::vector<uint8_t>(20, 0xaa));
  frame_a.payload_len = 20;
  Fragment frame_b;
  frame_b.src = 2;
  frame_b.body = ByteBody::Make(&sim.slot_pool(), std::vector<uint8_t>(20, 0xbb));
  frame_b.payload_len = 20;
  sim.After(0, [&] { channel->Transmit(port_a, frame_a, 10 * kMillisecond); });
  sim.After(kMillisecond, [&] { channel->Transmit(port_b, frame_b, 10 * kMillisecond); });

  // Node 3 detaches mid-flight and re-attaches (fresh endpoint, same id)
  // before either transmission ends.
  RecordingEndpoint reborn(3);
  sim.After(2 * kMillisecond, [&] {
    channel->Detach(3);
    channel->Attach(&reborn);
  });
  sim.RunUntil(kSecond);

  // The scrubbed receptions resolve to nothing: no delivery to either
  // endpoint, and no collision charged for frames the node was not attached
  // to hear. (Senders 1 and 2 still collide with each other's frames.)
  EXPECT_EQ(receiver.delivered(), 0);
  EXPECT_EQ(reborn.delivered(), 0);
  EXPECT_EQ(channel->stats().collisions, 2u);  // only at nodes 1 and 2
  EXPECT_EQ(channel->stats().deliveries, 0u);
}

TEST(ChannelTest, DetachedReceiverStopsMidFlightCleanly) {
  // Detach without re-attach: the in-flight reception simply vanishes.
  Simulator sim(12);
  auto channel = MakeLineChannel(&sim, 2);
  RecordingEndpoint sender(1);
  RecordingEndpoint receiver(2);
  const ChannelPort port = channel->Attach(&sender);
  channel->Attach(&receiver);

  Fragment frame;
  frame.src = 1;
  frame.body = ByteBody::Make(&sim.slot_pool(), std::vector<uint8_t>(20, 0x11));
  frame.payload_len = 20;
  sim.After(0, [&] { channel->Transmit(port, frame, 10 * kMillisecond); });
  sim.After(5 * kMillisecond, [&] { channel->Detach(2); });
  sim.RunUntil(kSecond);

  EXPECT_EQ(receiver.delivered(), 0);
  EXPECT_EQ(channel->stats().collisions, 0u);
  EXPECT_EQ(channel->stats().propagation_losses, 0u);
  EXPECT_EQ(channel->stats().deliveries, 0u);
}

TEST(ChannelTest, ReattachKeepsPortAndCounters) {
  Simulator sim(14);
  auto channel = MakeLineChannel(&sim, 3);
  RecordingEndpoint sender(1);
  RecordingEndpoint middle(2);
  RecordingEndpoint far(3);
  const ChannelPort sender_port = channel->Attach(&sender);
  const ChannelPort middle_port = channel->Attach(&middle);
  EXPECT_NE(sender_port, middle_port);
  channel->Attach(&far);

  Fragment frame;
  frame.src = 1;
  frame.body = ByteBody::Make(&sim.slot_pool(), std::vector<uint8_t>(20, 0x22));
  frame.payload_len = 20;
  sim.After(0, [&] { channel->Transmit(sender_port, frame, 10 * kMillisecond); });
  sim.After(20 * kMillisecond, [&] { channel->Transmit(middle_port, frame, 10 * kMillisecond); });
  sim.RunUntil(kSecond);
  const ChannelStats before = channel->NodeStats(2);
  ASSERT_EQ(before.transmissions, 1u);
  ASSERT_GT(before.receptions_attempted, 0u);

  auto fields = [](const ChannelStats& stats) {
    return std::vector<uint64_t>{stats.transmissions, stats.receptions_attempted,
                                 stats.collisions, stats.propagation_losses, stats.deliveries,
                                 stats.receivers_scanned};
  };
  const std::vector<uint64_t> zeros(6, 0);
  channel->Detach(2);
  EXPECT_EQ(fields(channel->NodeStats(2)), fields(before));
  EXPECT_EQ(fields(channel->NodeStatsSinceAttach(2)), zeros);
  // The same endpoint, and a fresh one under the same id, get the old port.
  EXPECT_EQ(channel->Attach(&middle), middle_port);
  channel->Detach(2);
  RecordingEndpoint reborn(2);
  EXPECT_EQ(channel->Attach(&reborn), middle_port);
  EXPECT_EQ(fields(channel->NodeStats(2)), fields(before));
  EXPECT_EQ(fields(channel->NodeStatsSinceAttach(2)), zeros);

  // Traffic after the reattach counts into both views.
  sim.After(0, [&] { channel->Transmit(middle_port, frame, 10 * kMillisecond); });
  sim.RunUntil(2 * kSecond);
  const ChannelStats since = channel->NodeStatsSinceAttach(2);
  EXPECT_EQ(since.transmissions, 1u);
  EXPECT_EQ(fields(channel->NodeStats(2) - since), fields(before));
}

// Fingerprint and per-node counters of one lossy, colliding 5x5 grid run.
struct AttachOrderDigest {
  uint64_t fingerprint = 0;
  uint64_t trace_events = 0;
  std::vector<std::vector<uint64_t>> node_stats;  // per id: the ChannelStats fields

  bool operator==(const AttachOrderDigest& other) const {
    return fingerprint == other.fingerprint && trace_events == other.trace_events &&
           node_stats == other.node_stats;
  }
};

// Radios are constructed in ascending id order (so every MAC forks the same
// RNG stream) and then re-attached in `attach_order`; node 13 crashes and
// comes back mid-run the way FaultInjector does it (kill + detach, attach +
// revive).
AttachOrderDigest RunGridAttachedInOrder(const std::vector<NodeId>& attach_order) {
  constexpr NodeId kNodes = 25;
  Simulator sim(41);
  FingerprintTraceSink trace;
  sim.set_trace_sink(&trace);
  // Range 15 at spacing 10: eight neighbours, lossy links, plenty of overlap.
  auto disk = std::make_unique<DiskPropagation>(15.0, 0.8);
  for (NodeId id = 1; id <= kNodes; ++id) {
    disk->SetPosition(id, {10.0 * ((id - 1) % 5), 10.0 * ((id - 1) / 5), 0});
  }
  Channel channel(&sim, std::move(disk));
  std::vector<std::unique_ptr<Radio>> radios;
  for (NodeId id = 1; id <= kNodes; ++id) {
    radios.push_back(std::make_unique<Radio>(&sim, &channel, id, FastRadio()));
  }
  for (NodeId id = 1; id <= kNodes; ++id) {
    channel.Detach(id);
  }
  for (NodeId id : attach_order) {
    channel.Attach(radios[id - 1].get());
  }
  for (NodeId id = 1; id <= kNodes; ++id) {
    for (int k = 0; k < 4; ++k) {
      Radio* radio = radios[id - 1].get();
      sim.At(k * 3 * kMillisecond + (id % 3) * 50, [radio, k] {
        radio->SendMessage(kBroadcastId, std::vector<uint8_t>(40, static_cast<uint8_t>(k)));
      });
    }
  }
  Radio* node13 = radios[12].get();
  sim.At(4 * kMillisecond, [&channel, node13] {
    node13->Kill();
    channel.Detach(13);
  });
  sim.At(6 * kMillisecond, [&channel, node13] {
    channel.Attach(node13);
    node13->Revive();
  });
  sim.RunUntil(kSecond);

  AttachOrderDigest digest;
  digest.fingerprint = trace.fingerprint();
  digest.trace_events = trace.count();
  for (NodeId id = 1; id <= kNodes; ++id) {
    const ChannelStats stats = channel.NodeStats(id);
    digest.node_stats.push_back({stats.transmissions, stats.receptions_attempted,
                                 stats.collisions, stats.propagation_losses, stats.deliveries});
  }
  return digest;
}

// Receivers resolve in ascending id order, so the per-reception RNG draws —
// and with them every packet fate — do not depend on the order endpoints
// attached in (which used to leak in through hash-map iteration order).
TEST(ChannelTest, ReceptionOrderIsIndependentOfAttachOrder) {
  std::vector<NodeId> ascending;
  for (NodeId id = 1; id <= 25; ++id) {
    ascending.push_back(id);
  }
  const std::vector<NodeId> descending(ascending.rbegin(), ascending.rend());
  std::vector<NodeId> shuffled = ascending;
  Rng rng(7);
  for (size_t i = shuffled.size() - 1; i > 0; --i) {
    std::swap(shuffled[i], shuffled[static_cast<size_t>(rng.NextInt(0, static_cast<int64_t>(i)))]);
  }

  const AttachOrderDigest up = RunGridAttachedInOrder(ascending);
  EXPECT_GT(up.trace_events, 100u);
  uint64_t collisions = 0;
  uint64_t losses = 0;
  for (const auto& stats : up.node_stats) {
    collisions += stats[2];
    losses += stats[3];
  }
  EXPECT_GT(collisions, 0u);  // the run exercises both loss paths
  EXPECT_GT(losses, 0u);
  EXPECT_TRUE(up == RunGridAttachedInOrder(descending));
  EXPECT_TRUE(up == RunGridAttachedInOrder(shuffled));
}

// Each receiver list equals a brute-force scan (Reaches over every attached
// endpoint, sorted) after every kind of topology or attachment change.
TEST(ChannelTest, ReceiverListsMatchBruteForceUnderTopologyChanges) {
  constexpr NodeId kNodes = 30;
  Simulator sim(5);
  auto owned = std::make_unique<DiskPropagation>(12.0);
  DiskPropagation* disk = owned.get();
  Rng rng(99);
  auto random_position = [&rng] {
    return Position{rng.NextDoubleIn(0, 40), rng.NextDoubleIn(0, 40),
                    static_cast<int>(rng.NextInt(0, 1))};
  };
  for (NodeId id = 1; id <= kNodes; ++id) {
    disk->SetPosition(id, random_position());
  }
  Channel channel(&sim, std::move(owned));
  ExpectReceiverListsTrackChanges(&channel, *disk, kNodes, 300, &rng, [&](NodeId a, NodeId b) {
    switch (rng.NextInt(0, 3)) {
      case 0:
        disk->SetPosition(a, random_position());
        break;
      case 1:
        disk->BlockLink(a, b);
        break;
      case 2:
        disk->SetLinkQuality(a, b, LinkQuality{.delivery_probability = 0.5});
        break;
      default:
        disk->set_inter_floor_range(rng.NextBool(0.5) ? 0.0 : 20.0);
        break;
    }
  });
}

TEST(MacTest, QueueOverflowDrops) {
  Simulator sim(8);
  auto channel = MakeLineChannel(&sim, 2);
  RadioConfig config = FastRadio();
  config.mac.queue_limit = 4;
  Radio a(&sim, channel.get(), 1, config);
  Radio b(&sim, channel.get(), 2, config);
  // 3 messages of 5 fragments each = 15 fragments, queue holds 4.
  for (int i = 0; i < 3; ++i) {
    a.SendMessage(kBroadcastId, std::vector<uint8_t>(112, 1));
  }
  EXPECT_GT(a.stats().fragments_dropped, 0u);
  sim.RunUntil(kSecond);
  EXPECT_GT(a.mac_stats().frames_sent, 0u);
}

TEST(MacTest, AirtimeScalesWithBytes) {
  Simulator sim(9);
  auto channel = MakeLineChannel(&sim, 2);
  MacConfig config;
  config.bitrate_bps = 13000;
  config.frame_overhead_bytes = 8;
  Radio radio(&sim, channel.get(), 1, RadioConfig{config, 27, 10 * kSecond});
  // A full 27-byte fragment: (27 + 16 header + 8 overhead) * 8 bits / 13kbps.
  // Re-attaching the radio returns the port it already holds.
  CsmaMac mac(&sim, channel.get(), channel->Attach(&radio), &radio, config);
  const SimDuration airtime = mac.FrameAirtime(Fragment::kHeaderBytes + 27);
  const double expected_s = (27.0 + Fragment::kHeaderBytes + 8.0) * 8.0 / 13000.0;
  EXPECT_NEAR(DurationToSeconds(airtime), expected_s, 1e-6);
}

// ---- Duty-cycled MAC ----

TEST(DutyCycleTest, WindowHelpers) {
  MacConfig config;
  config.duty_cycle = 0.25;
  config.duty_period = 1000;
  EXPECT_TRUE(InAwakeWindow(0, config));
  EXPECT_TRUE(InAwakeWindow(249, config));
  EXPECT_FALSE(InAwakeWindow(250, config));
  EXPECT_FALSE(InAwakeWindow(999, config));
  EXPECT_TRUE(InAwakeWindow(1000, config));
  EXPECT_EQ(NextAwakeTime(100, config), 100);
  EXPECT_EQ(NextAwakeTime(500, config), 1000);
  config.duty_cycle = 1.0;
  EXPECT_TRUE(InAwakeWindow(999999, config));
}

TEST(DutyCycleTest, TransmissionsDeferredIntoAwakeWindows) {
  Simulator sim(41);
  auto channel = MakeLineChannel(&sim, 2);
  RadioConfig config = FastRadio();
  config.mac.duty_cycle = 0.2;
  config.mac.duty_period = 1 * kSecond;
  Radio a(&sim, channel.get(), 1, config);
  Radio b(&sim, channel.get(), 2, config);
  std::vector<SimTime> deliveries;
  b.SetReceiveCallback(
      [&](NodeId, const WireBody&) { deliveries.push_back(sim.now()); });
  // Send mid-sleep (t = 0.5 s): the frame must wait for the 1.0 s window.
  sim.At(500 * kMillisecond, [&a] { a.SendMessage(kBroadcastId, std::vector<uint8_t>(20, 1)); });
  sim.RunUntil(5 * kSecond);
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_GE(deliveries[0], 1 * kSecond);
  EXPECT_LT(deliveries[0] % kSecond, 200 * kMillisecond + 10 * kMillisecond);
}

TEST(DutyCycleTest, SleepingReceiverPaysNoReceiveTime) {
  Simulator sim(42);
  auto channel = MakeLineChannel(&sim, 2);
  RadioConfig awake_config = FastRadio();  // sender always on
  RadioConfig sleepy_config = FastRadio();
  sleepy_config.mac.duty_cycle = 0.1;
  sleepy_config.mac.duty_period = 1 * kSecond;
  Radio sender(&sim, channel.get(), 1, awake_config);
  Radio sleeper(&sim, channel.get(), 2, sleepy_config);
  int received = 0;
  sleeper.SetReceiveCallback([&](NodeId, const WireBody&) { ++received; });
  // The always-on sender transmits while the sleeper is off: nothing heard.
  sim.At(500 * kMillisecond, [&sender] {
    sender.SendMessage(kBroadcastId, std::vector<uint8_t>(20, 1));
  });
  sim.RunUntil(900 * kMillisecond);
  EXPECT_EQ(received, 0);
  EXPECT_EQ(sleeper.stats().time_receiving, 0);
}

TEST(DutyCycleTest, DiffusionWorksUnderDutyCyclingWithAddedLatency) {
  auto run = [](double duty) {
    Simulator sim(43);
    auto channel = MakeLineChannel(&sim, 3);
    RadioConfig config = FastRadio();
    config.mac.duty_cycle = duty;
    config.mac.duty_period = 1 * kSecond;
    std::vector<std::unique_ptr<DiffusionNode>> nodes;
    for (NodeId id = 1; id <= 3; ++id) {
      nodes.push_back(
          std::make_unique<DiffusionNode>(&sim, channel.get(), id, NodeOptions{.radio = config}));
    }
    std::vector<SimTime> latencies;
    (void)nodes[0]->Subscribe(
        {ClassEq(kClassData), Attribute::String(kKeyType, AttrOp::kEq, "t")},
        [&](const AttributeVector& attrs) {
          const Attribute* stamp = FindActual(attrs, kKeyTimestamp);
          latencies.push_back(sim.now() - stamp->AsInt().value_or(0));
        });
    const PublicationHandle pub =
        nodes[2]->Publish({Attribute::String(kKeyType, AttrOp::kIs, "t")});
    sim.RunUntil(5 * kSecond);
    for (int i = 0; i < 10; ++i) {
      sim.After(i * 5 * kSecond + 2718281, [&, i] {
        (void)nodes[2]->Send(pub, {Attribute::Int32(kKeySequence, AttrOp::kIs, i),
                             Attribute::Int64(kKeyTimestamp, AttrOp::kIs, sim.now())});
      });
    }
    sim.RunUntil(2 * kMinute);
    double mean = 0;
    for (SimTime latency : latencies) {
      mean += static_cast<double>(latency);
    }
    return std::pair<size_t, double>(latencies.size(),
                                     latencies.empty() ? 0.0 : mean / latencies.size());
  };
  const auto [count_full, latency_full] = run(1.0);
  const auto [count_low, latency_low] = run(0.3);
  EXPECT_GE(count_full, 9u);
  EXPECT_GE(count_low, 9u);  // still functional
  EXPECT_GT(latency_low, latency_full * 3);  // but pays sleep deferral
}

// ---- Energy model (§6.1) ----

TEST(EnergyModelTest, FullDutyCycleDominatedByListening) {
  const double fraction = ListenEnergyFraction(1.0, EnergyRatios{}, PaperTimeShares());
  EXPECT_GT(fraction, 0.8);
}

TEST(EnergyModelTest, HalfEnergyAtTwentyTwoPercent) {
  // "At duty cycle of 22% half of the energy is spent listening."
  const double fraction = ListenEnergyFraction(0.22, EnergyRatios{}, PaperTimeShares());
  EXPECT_NEAR(fraction, 0.5, 0.03);
}

TEST(EnergyModelTest, TenPercentDominatedByCommunication) {
  // "Duty cycles of 10% begin to be dominated by send cost."
  const double fraction = ListenEnergyFraction(0.10, EnergyRatios{}, PaperTimeShares());
  EXPECT_LT(fraction, 0.4);
}

TEST(EnergyModelTest, TotalEnergyMonotoneInDutyCycle) {
  double last = 0.0;
  for (double d = 0.0; d <= 1.0; d += 0.1) {
    const double energy = TotalEnergy(d, EnergyRatios{}, PaperTimeShares());
    EXPECT_GE(energy, last);
    last = energy;
  }
}

TEST(EnergyModelTest, SharesFromStatsPartitionsTime) {
  RadioStats stats;
  stats.time_receiving = 3 * kSecond;
  const TimeShares shares = SharesFromStats(stats, 2 * kSecond, 10 * kSecond);
  EXPECT_NEAR(shares.send, 0.2, 1e-9);
  EXPECT_NEAR(shares.receive, 0.3, 1e-9);
  EXPECT_NEAR(shares.listen, 0.5, 1e-9);
}

}  // namespace
}  // namespace diffusion
