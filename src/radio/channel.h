// Shared broadcast channel with interference.
//
// The channel owns the propagation model and delivers every transmission to
// all reachable, living endpoints. Two transmissions that overlap in time at
// a receiver corrupt each other there (no capture effect), which is what
// produces the hidden-terminal losses the paper's testbed suffered. A node
// that is itself transmitting cannot receive (half-duplex).
//
// Each sender's reachable endpoints are kept as a receiver list in ascending
// id order, built on the sender's first frame and dropped whenever an
// endpoint attaches or detaches or the propagation model's
// topology_version() moves. A frame therefore costs O(receivers), not
// O(attached endpoints), and receivers resolve in id order, so the
// per-receiver RNG draws depend on neither hash-table layout nor attach
// order.
//
// Every id that ever attaches gets a port: the index of its slot in one flat
// vector. The slot holds everything the per-frame path needs about that id
// — its in-air receptions, its receiver list as a sender and its counters —
// so Transmit, FinishTransmit and CarrierBusyAt index slots by port and do
// no hash lookups. Ports survive detach/reattach. Only Attach/Detach,
// NodeStats* and DeliverRemote's remote senders look ids up.

#ifndef SRC_RADIO_CHANNEL_H_
#define SRC_RADIO_CHANNEL_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/radio/fragmentation.h"
#include "src/radio/position.h"
#include "src/radio/propagation.h"
#include "src/sim/simulator.h"
#include "src/trace/metrics.h"
#include "src/util/thread_annotations.h"

namespace diffusion {

// A node's attachment point to the channel.
class ChannelEndpoint {
 public:
  virtual ~ChannelEndpoint() = default;
  virtual NodeId node_id() const = 0;
  virtual bool IsAlive() const = 0;
  virtual bool IsTransmitting() const = 0;
  // False while the radio sleeps in a duty-cycle off-window: nothing is
  // heard, no receive energy is spent.
  virtual bool IsAwake() const { return true; }
  // Called when a frame decodes successfully at this node. `airtime` is how
  // long the radio spent receiving it (for energy accounting).
  virtual void OnFrameDelivered(const Fragment& fragment, SimDuration airtime) = 0;
};

// Observes every transmission as it starts. The sharded simulation core
// (src/radio/region_bridge.h) uses this to mirror border-crossing frames
// into other regions' channels without the channel knowing about regions.
class TransmitObserver {
 public:
  virtual ~TransmitObserver() = default;
  virtual void OnTransmit(NodeId sender, const Fragment& fragment, SimTime start,
                          SimDuration duration) = 0;
};

struct ChannelStats {
  uint64_t transmissions = 0;
  uint64_t receptions_attempted = 0;  // (tx, reachable receiver) pairs
  uint64_t collisions = 0;            // receptions lost to overlap/half-duplex
  uint64_t propagation_losses = 0;    // receptions lost to link quality
  uint64_t deliveries = 0;
  // Receiver-list entries visited by Transmit and DeliverRemote (a work
  // counter: the per-frame channel cost). Channel-wide only; per-node stats
  // leave it zero.
  uint64_t receivers_scanned = 0;
};

// An attached id's slot index in its channel (see Channel::Attach).
using ChannelPort = uint32_t;

// `a - b`, field-wise. Used for per-endpoint deltas across a reattach.
ChannelStats operator-(const ChannelStats& a, const ChannelStats& b);

// Thread-compatible: a channel (like the Simulator it schedules on) belongs
// to one region and is only touched by that region's owning worker inside a
// window. Cross-region traffic enters via DeliverRemote events the barrier
// thread schedules between windows — never by calling into another region's
// live channel.
class DIFFUSION_THREAD_COMPATIBLE Channel {
 public:
  Channel(Simulator* sim, std::unique_ptr<PropagationModel> propagation);

  // Attaches `endpoint` under its node id and returns the id's port. An id
  // keeps the port it got at its first Attach through any later
  // Detach/Attach, also when a new endpoint attaches under it. Memory grows
  // with the number of distinct ids attached, not with the largest id.
  ChannelPort Attach(ChannelEndpoint* endpoint);

  // Detaches `node` and scrubs its in-flight receptions: transmissions still
  // on the air stop targeting it, so a node detached mid-flight neither
  // receives the frame nor counts toward collision/loss statistics — even if
  // a new endpoint re-attaches under the same id before they resolve. The
  // node keeps its port, and its per-endpoint counters stay parked in the
  // port's slot for a later Attach under the same id (see NodeStats /
  // NodeStatsSinceAttach).
  void Detach(NodeId node);

  // True if any in-flight transmission puts energy at the endpoint on
  // `port` (including its own transmission). Answered from the senders'
  // receiver lists, so the endpoint must be attached.
  bool CarrierBusyAt(ChannelPort port);

  // Puts `fragment` on the air for `duration`, sent by the endpoint on
  // `port`. Reception outcomes resolve when the transmission ends.
  void Transmit(ChannelPort port, Fragment fragment, SimDuration duration);

  // Installs (or clears, with nullptr) the transmission observer. Called for
  // every Transmit, after the transmission is on the air — i.e. on the
  // thread that owns this channel's region, which is what lets the observer
  // assert the mailbox writer role (src/radio/region_bridge.h). Install and
  // clear on the barrier/setup side only.
  void set_transmit_observer(TransmitObserver* observer) { transmit_observer_ = observer; }

  // Resolves a frame transmitted in another region against this channel's
  // endpoints: `sender` is not attached here, but the propagation model knows
  // its position, so reachability and link quality evaluate normally. The
  // frame arrives fully decoded-or-not at once (a receiver mid-reception of a
  // local frame loses the remote one to overlap, but the remote frame does
  // not retroactively corrupt the local one — the documented border
  // approximation of the sharded core). Receivers come from the sender's
  // receiver list, in ascending id order like Transmit's.
  void DeliverRemote(NodeId sender, const Fragment& fragment, SimDuration airtime);

  // Ids of the attached endpoints a frame from `sender` is offered to — its
  // receiver list — ascending. `sender` need not be attached here.
  std::vector<NodeId> ReceiverIds(NodeId sender);

  PropagationModel& propagation() { return *propagation_; }
  const ChannelStats& stats() const { return stats_; }
  Simulator& simulator() { return *sim_; }

  // Per-endpoint accounting: `transmissions` counts `node` as sender, the
  // reception fields count it as receiver. The counters live in the node's
  // slot, so they survive a Detach/Attach cycle and a node that blacks out
  // and returns keeps lifetime-accurate totals. Zeros for unknown nodes.
  ChannelStats NodeStats(NodeId node) const;

  // The same counters measured from the node's most recent Attach only —
  // what recovery metrics want after a blackout, free of pre-fault history.
  ChannelStats NodeStatsSinceAttach(NodeId node) const;

  // Registers the channel-wide counters as global metrics ("channel.*").
  // The channel must outlive collections from `registry`.
  void RegisterMetrics(MetricsRegistry* registry) const;

 private:
  struct Reception {
    NodeId receiver;
    bool corrupted;
    // Set when the receiver detached mid-flight: the reception resolves to
    // nothing (no delivery, no stats).
    bool cancelled = false;
    // Resolved at Transmit so FinishTransmit needs no map lookups. Valid
    // while the reception is live: Detach cancels the reception first.
    ChannelEndpoint* endpoint = nullptr;
    ChannelPort slot = 0;  // the receiver's port
  };
  struct ActiveTx {
    NodeId sender;
    ChannelPort sender_slot;
    Fragment fragment;
    SimTime start;
    SimDuration duration;
    std::vector<Reception> receptions;
  };

  void FinishTransmit(uint64_t tx_id);

  // Transmission ids are (generation << 32) | (slot + 1) into tx_slabs_, a
  // slot-and-generation slab (no hash-node allocation per frame; reception
  // vectors keep their capacity across reuse via recycled_receptions_).
  uint64_t AllocTx();
  ActiveTx* ResolveTx(uint64_t tx_id);

  // An attached endpoint and its port, so the per-receiver loops need no
  // second lookup.
  struct Receiver {
    NodeId node;
    ChannelEndpoint* endpoint;
    ChannelPort slot;
  };

  // Per-id bookkeeping, one per port; what every reception touches comes
  // first. in_air and receivers keep their capacity across transmissions
  // and list rebuilds.
  struct ReceiverSlot {
    std::vector<std::pair<uint64_t, size_t>> in_air;  // (tx id, reception idx)
    ChannelStats stats;  // lifetime counters, parked while detached
    NodeId node = 0;
    bool attached = false;
    // This id's receiver list as a sender; current while receivers_epoch
    // equals the channel's lists_epoch_.
    std::vector<Receiver> receivers;
    uint64_t receivers_epoch = 0;
    ChannelStats attach_base;  // stats at the latest Attach
  };

  // The attached endpoints the sender on `port` reaches (sender excluded),
  // ascending by id. Built on first use; valid until the next Attach, Detach
  // or topology version change, which is checked here.
  const std::vector<Receiver>& ReceiversOf(ChannelPort port);
  // The same for a sender that has no port here (DeliverRemote).
  const std::vector<Receiver>& RemoteReceiversOf(NodeId sender);
  // Fills `out` with the attached endpoints `sender` reaches.
  void BuildReceivers(NodeId sender, std::vector<Receiver>* out) const;
  // Marks every receiver list stale (an endpoint came or went).
  void InvalidateReceiverLists();
  // InvalidateReceiverLists when the propagation model's topology version
  // moved since the lists were built.
  void SyncTopologyVersion();

  Simulator* sim_;
  std::unique_ptr<PropagationModel> propagation_;
  TransmitObserver* transmit_observer_ = nullptr;
  Rng rng_;
  // Every attached endpoint, ascending by id; receiver lists are filtered
  // from it and so come out in id order.
  std::vector<Receiver> attached_;
  uint64_t lists_epoch_ = 1;        // bumped whenever every list goes stale
  uint64_t receivers_version_ = 0;  // topology_version() the lists match
  // Remote sender id -> receiver list (DeliverRemote).
  std::unordered_map<NodeId, std::vector<Receiver>> remote_receivers_;
  std::unordered_map<NodeId, ChannelPort> slot_of_;  // node id -> port
  std::vector<ReceiverSlot> slots_;
  struct TxSlab {
    ActiveTx tx;
    uint32_t generation = 0;
    bool live = false;
  };
  std::vector<TxSlab> tx_slabs_;
  std::vector<uint32_t> free_tx_slots_;
  std::vector<std::vector<Reception>> recycled_receptions_;
  ChannelStats stats_;
};

}  // namespace diffusion

#endif  // SRC_RADIO_CHANNEL_H_
