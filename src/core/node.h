// DiffusionNode: one sensor node's diffusion stack.
//
// Implements the paper's two public APIs on top of the radio substrate:
//
//   Figure 4 (publish/subscribe): subscribe / unsubscribe / publish /
//   unpublish / send. Subscriptions flood interests and set up gradients;
//   published data flows along (reinforced) gradients; "if there are no
//   active subscriptions, published data does not leave the node."
//
//   Figure 5 (filters): addFilter / removeFilter / sendMessage /
//   sendMessageToNext. Filters form a priority chain; every message entering
//   the node is offered to the highest-priority matching filter, which may
//   drop it, mutate it, emit new messages, or pass it on. The diffusion core
//   is the implicit lowest-priority element of the chain.
//
// The core itself implements §3.1: task-aware interest handling, gradient
// setup, exploratory data, positive and negative reinforcement, duplicate/
// loop suppression, and periodic interest refresh.

#ifndef SRC_CORE_NODE_H_
#define SRC_CORE_NODE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "src/core/api_result.h"
#include "src/core/config.h"
#include "src/core/data_cache.h"
#include "src/core/gradient_table.h"
#include "src/core/handle.h"
#include "src/core/match_index.h"
#include "src/core/message.h"
#include "src/core/node_options.h"
#include "src/naming/attribute.h"
#include "src/naming/attribute_set.h"
#include "src/naming/keys.h"
#include "src/radio/radio.h"
#include "src/sim/simulator.h"

namespace diffusion {

class DiffusionNode;

// Capabilities handed to filter callbacks (Figure 5). Filters get "access to
// internal information about diffusion, including gradients and lists of
// neighbor nodes" (§3.3).
class FilterApi {
 public:
  explicit FilterApi(DiffusionNode* node) : node_(node) {}

  NodeId node_id() const;
  SimTime now() const;

  // Passes `message` on down the filter chain, below the priority of the
  // filter identified by `handle`; reaches the diffusion core if no lower
  // filter matches.
  void SendMessage(Message message, FilterHandle handle);

  // Hands `message` directly to the diffusion core for routing/delivery,
  // bypassing the rest of the chain.
  void SendMessageToNext(Message message);

  // Transmits `message` directly to a specific neighbor.
  void SendToNeighbor(Message message, NodeId neighbor);

  // Allocates a fresh origin sequence number for messages the filter creates.
  uint32_t NewOriginSeq();

  GradientTable& gradients();
  std::vector<NodeId> Neighbors() const;

 private:
  DiffusionNode* node_;
};

struct NodeStats {
  uint64_t messages_sent = 0;      // diffusion transmissions (per next-hop)
  uint64_t bytes_sent = 0;         // diffusion bytes sent — the Figure 8 unit
  uint64_t interests_originated = 0;
  uint64_t data_originated = 0;
  uint64_t messages_forwarded = 0;
  uint64_t data_delivered_local = 0;
  uint64_t duplicates_suppressed = 0;
  uint64_t decode_failures = 0;
  uint64_t reinforcements_sent = 0;
  uint64_t negative_reinforcements_sent = 0;
  // FilterApi::SendMessage calls with a handle that is no longer registered
  // (usually a filter re-injecting after removing itself).
  uint64_t stale_filter_reinjections = 0;
  // Traffic shaping (zero unless the corresponding TrafficPolicy layer is on).
  uint64_t transmits_jittered = 0;        // originated sends delayed by TxJitterPolicy
  uint64_t interest_scope_expansions = 0; // expanding-ring TTL steps taken
  uint64_t refresh_backoffs = 0;          // refresh periods stretched by backoff
};

class DiffusionNode {
 public:
  // Invoked with the attribute set of a matching data (or interest) message.
  using DataCallback = std::function<void(const AttributeVector& attrs)>;
  // Invoked with a mutable message and the filter capabilities object.
  using FilterCallback = std::function<void(Message& message, FilterApi& api)>;

  // The one constructor: every subsystem's knobs hang off NodeOptions
  // (diffusion, radio, mac, traffic), all defaulting to the paper-faithful
  // configuration. `NodeOptions{}` reproduces the seed behavior exactly.
  DiffusionNode(Simulator* sim, Channel* channel, NodeId id, NodeOptions options = NodeOptions{});

  ~DiffusionNode();

  DiffusionNode(const DiffusionNode&) = delete;
  DiffusionNode& operator=(const DiffusionNode&) = delete;

  // ---- Figure 4: publish/subscribe API ----
  //
  // Handles are distinct opaque types per kind — passing a FilterHandle to
  // Unsubscribe is a compile error. Teardown/send calls return ApiResult so
  // "data stayed local" and "bad handle" are distinguishable; ApiResult is a
  // [[nodiscard]] type, and the handle-returning registration calls are
  // [[nodiscard]] too (losing a handle leaks the subscription/publication/
  // filter — nothing can ever tear it down).

  // Subscribes to data matching `attrs`. Floods an interest (and re-floods
  // every interest_refresh) unless the subscription is for interests
  // themselves (contains a formal on the class attribute matching
  // "class IS interest"), which only watches locally arriving interests.
  [[nodiscard]] SubscriptionHandle Subscribe(AttributeSet attrs, DataCallback callback);
  ApiResult Unsubscribe(SubscriptionHandle handle);

  // Declares data this node can produce. The attrs must be actuals
  // describing the data (a "class IS data" actual is appended if absent).
  [[nodiscard]] PublicationHandle Publish(AttributeSet attrs);
  ApiResult Unpublish(PublicationHandle handle);

  // Sends one data message: the publication's attrs plus `extra_attrs`.
  // Returns kNoMatchingInterest when no matching interest exists anywhere
  // locally (the data does not leave the node, §4.1).
  ApiResult Send(PublicationHandle handle, const AttributeVector& extra_attrs);

  // ---- Figure 5: filter API ----

  // Registers an in-network processing filter. The filter triggers on every
  // message entering the node whose actuals satisfy `attrs`' formals
  // (one-way match), highest priority first; it then owns the message and
  // must re-inject it (FilterApi::SendMessage) for processing to continue.
  [[nodiscard]] FilterHandle AddFilter(AttributeSet attrs, int16_t priority,
                                       FilterCallback callback);
  ApiResult RemoveFilter(FilterHandle handle);

  // ---- introspection / experiment support ----

  NodeId id() const { return id_; }
  Simulator& simulator() { return *sim_; }
  Radio& radio() { return radio_; }
  GradientTable& gradients() { return gradients_; }
  const NodeStats& stats() const { return stats_; }
  const DiffusionConfig& config() const { return config_; }
  const TrafficPolicy& traffic() const { return traffic_; }
  // Every node this one has heard from since it (re)booted, ascending.
  std::vector<NodeId> Neighbors() const;

  // Registers this node's named counters/gauges — diffusion core
  // ("diffusion.*"), radio and MAC ("radio.*", "mac.*"), gradient table, and
  // the §6.1 energy model ("energy.relative") — into `registry`. The node
  // must outlive collections from the registry.
  void RegisterMetrics(MetricsRegistry* registry);

  // ---- node failure injection (see src/fault) ----

  // Stops the node: the radio goes dark and every event the node has pending
  // (jittered forwards, interest refreshes) is cancelled through the
  // scheduler's lazy-compaction cancel path, so a killed node's captured
  // state is released rather than parked until its timers would have fired.
  void Kill();

  // Brings a killed node back with *warm* state (gradients, caches and
  // neighbors as they were): a transient outage, not a restart. Interest
  // refreshes resume on their normal period.
  void Revive();

  // Brings the node back *cold*, as after a power-cycle: gradients, the
  // duplicate cache, neighbor memory and any in-flight radio state are
  // dropped, then every application subscription re-floods its interest and
  // re-draws gradients from scratch. Publications, filters and local
  // subscriptions survive (they are application state, re-installed by the
  // app's boot path). Origin sequence numbers keep counting up — real
  // deployments derive them from a clock, and reusing them would make every
  // other node's duplicate cache suppress the rebooted node's first packets.
  void Reboot();

  bool alive() const { return alive_; }

 private:
  friend class FilterApi;

  struct Subscription {
    SubscriptionHandle handle = kInvalidHandle;
    AttributeSet attrs;           // as given by the application
    AttributeSet interest_attrs;  // with the implicit class actual
    DataCallback callback;
    bool local_only = false;  // subscription *for* interests
    EventId refresh_event = kInvalidEventId;
    EventId duration_event = kInvalidEventId;
    // Expanding-ring / refresh-backoff state (InterestBackoffPolicy; only
    // consulted when traffic_.backoff.enabled).
    uint8_t ring_ttl = 0;            // current flood scope
    SimDuration refresh_period = 0;  // current (possibly backed-off) period
    bool data_since_flood = false;   // matching data arrived since last flood
  };

  struct Publication {
    PublicationHandle handle = kInvalidHandle;
    AttributeSet attrs;
    uint64_t send_count = 0;
  };

  struct Filter {
    FilterHandle handle = kInvalidHandle;
    AttributeSet attrs;
    int16_t priority = 0;
    FilterCallback callback;
  };

  // The radio's one receive path: a MessageBody is used as it is, any other
  // body is parsed from its bytes.
  void OnRadioReceive(NodeId from, const WireBody& body);
  // Receive tail once the message is decoded (trace, gradient expiry,
  // dispatch).
  void ReceiveDecoded(NodeId from, Message message);

  // Offers `message` to the highest-priority matching filter with priority
  // strictly below `below_priority`; falls through to the core.
  void DispatchToChain(Message message, int32_t below_priority);

  // The diffusion core (terminal element of the filter chain).
  void CoreProcess(Message& message);
  void ProcessInterest(Message& message);
  void ProcessData(Message& message);
  void ProcessPositiveReinforcement(Message& message);
  void ProcessNegativeReinforcement(Message& message);

  // Serializes and transmits to message.next_hop, with accounting.
  void TransmitMessage(const Message& message);

  // Transmits after Uniform(0, forward_delay_jitter) to desynchronize
  // concurrent forwarders of the same flood (hidden terminals).
  void TransmitAfterJitter(Message message);

  // TxJitterPolicy (B1): transmits after Uniform(0, window-for-type) when
  // the jitter layer is on; plain TransmitMessage otherwise. Used for
  // originated traffic (forwards already go through TransmitAfterJitter).
  void TransmitShaped(Message message);

  // The TxJitterPolicy window for a message type (0 = transmit immediately).
  SimDuration JitterWindowFor(MessageType type) const;

  void FloodInterest(Subscription& subscription);
  void ScheduleRefresh(SubscriptionHandle handle);

  // InterestBackoffPolicy (B2): advances `subscription`'s expanding-ring /
  // backoff state at refresh time, based on whether data arrived since the
  // previous flood. No-op unless the layer is enabled.
  void AdvanceInterestScope(Subscription& subscription);

  // Sends a (positive or negative) reinforcement for `entry` to `neighbor`.
  void SendReinforcement(MessageType type, const InterestEntry& entry, NodeId neighbor);

  // Delivers data attrs to local subscriptions matching them.
  void DeliverLocalData(const Message& message);

  // True when a local publication can satisfy the interest in `entry`
  // (this node is a source for it).
  bool IsSourceFor(const InterestEntry& entry) const;

  uint32_t NextSeq() { return next_origin_seq_++; }

  Simulator* sim_;
  NodeId id_;
  // State every received message reads or writes, declared together so a
  // message's arrival touches few cache lines of this several-KiB object.
  bool alive_ = true;
  std::vector<NodeId> neighbors_;  // every node heard from, ascending
  DataCache seen_packets_;
  GradientTable gradients_;
  NodeStats stats_;

  DiffusionConfig config_;
  TrafficPolicy traffic_;
  Radio radio_;
  FilterApi filter_api_;

  // Node-based maps: Subscription/Filter addresses stay stable, so the match
  // indexes below can hold pointers to their attribute sets.
  std::map<SubscriptionHandle, Subscription> subscriptions_;
  std::map<PublicationHandle, Publication> publications_;
  std::map<FilterHandle, Filter> filters_;

  // Candidate indexes over filters_/subscriptions_, discriminated on the
  // `class` attribute. Kept in sync by Add/Remove; DispatchToChain and
  // DeliverLocalData consult these instead of scanning the full chain.
  MatchIndex filter_index_;
  MatchIndex subscription_index_;

  std::unordered_set<EventId> pending_transmits_;
  Rng rng_;

  uint32_t next_handle_ = 1;
  uint32_t next_origin_seq_ = 1;
};

}  // namespace diffusion

#endif  // SRC_CORE_NODE_H_
