#include "src/radio/channel.h"

#include <algorithm>
#include <utility>

#include "src/util/logging.h"

namespace diffusion {

Channel::Channel(Simulator* sim, std::unique_ptr<PropagationModel> propagation)
    : sim_(sim),
      propagation_(std::move(propagation)),
      rng_(sim->rng().Fork()),
      receivers_version_(propagation_->topology_version()) {}

ChannelStats operator-(const ChannelStats& a, const ChannelStats& b) {
  ChannelStats delta;
  delta.transmissions = a.transmissions - b.transmissions;
  delta.receptions_attempted = a.receptions_attempted - b.receptions_attempted;
  delta.collisions = a.collisions - b.collisions;
  delta.propagation_losses = a.propagation_losses - b.propagation_losses;
  delta.deliveries = a.deliveries - b.deliveries;
  delta.receivers_scanned = a.receivers_scanned - b.receivers_scanned;
  return delta;
}

namespace {

template <typename Entry>
bool NodeBelow(const Entry& entry, NodeId node) {
  return entry.node < node;
}

}  // namespace

ChannelPort Channel::Attach(ChannelEndpoint* endpoint) {
  const NodeId node = endpoint->node_id();
  auto [slot_it, fresh] = slot_of_.try_emplace(node, static_cast<ChannelPort>(slots_.size()));
  const ChannelPort port = slot_it->second;
  if (fresh) {
    slots_.emplace_back().node = node;
  }
  const Receiver entry{node, endpoint, port};
  auto at = std::lower_bound(attached_.begin(), attached_.end(), node, NodeBelow<Receiver>);
  if (at != attached_.end() && at->node == node) {
    *at = entry;
  } else {
    attached_.insert(at, entry);
  }
  InvalidateReceiverLists();
  // The counters parked by a previous Detach carry on; remember their value
  // now so NodeStatsSinceAttach reports this attachment's traffic free of
  // pre-fault history.
  ReceiverSlot& slot = slots_[port];
  slot.attached = true;
  slot.attach_base = slot.stats;
  return port;
}

void Channel::Detach(NodeId node) {
  auto at = std::lower_bound(attached_.begin(), attached_.end(), node, NodeBelow<Receiver>);
  if (at != attached_.end() && at->node == node) {
    attached_.erase(at);
  }
  InvalidateReceiverLists();
  auto slot_it = slot_of_.find(node);
  if (slot_it == slot_of_.end()) {
    return;
  }
  ReceiverSlot& slot = slots_[slot_it->second];
  slot.attached = false;
  // Cancel (rather than erase) the node's receptions inside still-active
  // transmissions: other receivers' in-air entries index into the same
  // reception vectors, so positions must stay stable.
  for (const auto& [tx_id, index] : slot.in_air) {
    ResolveTx(tx_id)->receptions[index].cancelled = true;
  }
  slot.in_air.clear();
}

void Channel::RegisterMetrics(MetricsRegistry* registry) const {
  registry->RegisterGlobalCounter("channel.transmissions",
                                  [this] { return static_cast<double>(stats_.transmissions); });
  registry->RegisterGlobalCounter("channel.receptions_attempted", [this] {
    return static_cast<double>(stats_.receptions_attempted);
  });
  registry->RegisterGlobalCounter("channel.collisions",
                                  [this] { return static_cast<double>(stats_.collisions); });
  registry->RegisterGlobalCounter("channel.propagation_losses", [this] {
    return static_cast<double>(stats_.propagation_losses);
  });
  registry->RegisterGlobalCounter("channel.deliveries",
                                  [this] { return static_cast<double>(stats_.deliveries); });
  registry->RegisterGlobalCounter("channel.receivers_scanned", [this] {
    return static_cast<double>(stats_.receivers_scanned);
  });
}

ChannelStats Channel::NodeStats(NodeId node) const {
  auto it = slot_of_.find(node);
  return it == slot_of_.end() ? ChannelStats{} : slots_[it->second].stats;
}

ChannelStats Channel::NodeStatsSinceAttach(NodeId node) const {
  auto it = slot_of_.find(node);
  if (it == slot_of_.end() || !slots_[it->second].attached) {
    // Not currently attached: this attachment contributed nothing yet.
    return ChannelStats{};
  }
  const ReceiverSlot& slot = slots_[it->second];
  return slot.stats - slot.attach_base;
}

void Channel::InvalidateReceiverLists() {
  ++lists_epoch_;
  remote_receivers_.clear();
}

void Channel::SyncTopologyVersion() {
  const uint64_t version = propagation_->topology_version();
  if (version != receivers_version_) {
    receivers_version_ = version;
    InvalidateReceiverLists();
  }
}

void Channel::BuildReceivers(NodeId sender, std::vector<Receiver>* out) const {
  for (const Receiver& receiver : attached_) {
    if (receiver.node != sender && propagation_->Reaches(sender, receiver.node)) {
      out->push_back(receiver);
    }
  }
}

const std::vector<Channel::Receiver>& Channel::ReceiversOf(ChannelPort port) {
  SyncTopologyVersion();
  ReceiverSlot& slot = slots_[port];
  if (slot.receivers_epoch != lists_epoch_) {
    slot.receivers.clear();
    BuildReceivers(slot.node, &slot.receivers);
    slot.receivers_epoch = lists_epoch_;
  }
  return slot.receivers;
}

const std::vector<Channel::Receiver>& Channel::RemoteReceiversOf(NodeId sender) {
  SyncTopologyVersion();
  auto [it, fresh] = remote_receivers_.try_emplace(sender);
  if (fresh) {
    BuildReceivers(sender, &it->second);
  }
  return it->second;
}

std::vector<NodeId> Channel::ReceiverIds(NodeId sender) {
  auto it = slot_of_.find(sender);
  const std::vector<Receiver>& receivers =
      it == slot_of_.end() ? RemoteReceiversOf(sender) : ReceiversOf(it->second);
  std::vector<NodeId> ids;
  for (const Receiver& receiver : receivers) {
    ids.push_back(receiver.node);
  }
  return ids;
}

bool Channel::CarrierBusyAt(ChannelPort port) {
  const NodeId node = slots_[port].node;
  for (const TxSlab& slab : tx_slabs_) {
    if (!slab.live) {
      continue;
    }
    if (slab.tx.sender_slot == port) {
      return true;
    }
    const std::vector<Receiver>& receivers = ReceiversOf(slab.tx.sender_slot);
    auto it = std::lower_bound(receivers.begin(), receivers.end(), node, NodeBelow<Receiver>);
    if (it != receivers.end() && it->node == node) {
      return true;
    }
  }
  return false;
}

uint64_t Channel::AllocTx() {
  uint32_t slot;
  if (free_tx_slots_.empty()) {
    slot = static_cast<uint32_t>(tx_slabs_.size());
    tx_slabs_.emplace_back();
  } else {
    slot = free_tx_slots_.back();
    free_tx_slots_.pop_back();
  }
  TxSlab& slab = tx_slabs_[slot];
  slab.live = true;
  return (static_cast<uint64_t>(slab.generation) << 32) | (slot + 1);
}

Channel::ActiveTx* Channel::ResolveTx(uint64_t tx_id) {
  const uint32_t slot = static_cast<uint32_t>(tx_id & 0xffffffff) - 1;
  const uint32_t generation = static_cast<uint32_t>(tx_id >> 32);
  if (slot >= tx_slabs_.size()) {
    return nullptr;
  }
  TxSlab& slab = tx_slabs_[slot];
  if (!slab.live || slab.generation != generation) {
    return nullptr;
  }
  return &slab.tx;
}

void Channel::Transmit(ChannelPort port, Fragment fragment, SimDuration duration) {
  const uint64_t tx_id = AllocTx();
  ReceiverSlot& self = slots_[port];
  const NodeId sender = self.node;
  ++stats_.transmissions;
  ++self.stats.transmissions;

  ActiveTx tx;
  tx.sender = sender;
  tx.sender_slot = port;
  tx.fragment = std::move(fragment);
  tx.start = sim_->now();
  tx.duration = duration;
  if (!recycled_receptions_.empty()) {
    tx.receptions = std::move(recycled_receptions_.back());
    recycled_receptions_.pop_back();
  }

  // Half-duplex: the sender's own in-progress receptions are destroyed.
  for (const auto& [other_tx, index] : self.in_air) {
    ResolveTx(other_tx)->receptions[index].corrupted = true;
  }

  const std::vector<Receiver>& receivers = ReceiversOf(port);
  stats_.receivers_scanned += receivers.size();
  for (const Receiver& receiver : receivers) {
    ChannelEndpoint* endpoint = receiver.endpoint;
    if (!endpoint->IsAlive() || !endpoint->IsAwake()) {
      continue;
    }
    ++stats_.receptions_attempted;
    ReceiverSlot& slot = slots_[receiver.slot];
    ++slot.stats.receptions_attempted;
    bool corrupted = endpoint->IsTransmitting();
    // Overlap with anything already in the air at this receiver corrupts
    // both frames (no capture).
    if (!slot.in_air.empty()) {
      corrupted = true;
      for (const auto& [other_tx, index] : slot.in_air) {
        ResolveTx(other_tx)->receptions[index].corrupted = true;
      }
    }
    tx.receptions.push_back(Reception{receiver.node, corrupted, false, endpoint, receiver.slot});
    slot.in_air.emplace_back(tx_id, tx.receptions.size() - 1);
  }

  if (transmit_observer_ != nullptr) {
    transmit_observer_->OnTransmit(sender, tx.fragment, tx.start, duration);
  }

  tx_slabs_[static_cast<uint32_t>(tx_id & 0xffffffff) - 1].tx = std::move(tx);
  sim_->After(duration, [this, tx_id] { FinishTransmit(tx_id); });
}

void Channel::DeliverRemote(NodeId sender, const Fragment& fragment, SimDuration airtime) {
  const uint64_t link_packet = (static_cast<uint64_t>(fragment.src) << 32) | fragment.message_seq;
  const std::vector<Receiver>& receivers = RemoteReceiversOf(sender);
  stats_.receivers_scanned += receivers.size();
  for (const Receiver& receiver : receivers) {
    const NodeId node = receiver.node;
    ChannelEndpoint* endpoint = receiver.endpoint;
    if (!endpoint->IsAlive() || !endpoint->IsAwake()) {
      continue;
    }
    ++stats_.receptions_attempted;
    ReceiverSlot& slot = slots_[receiver.slot];
    ChannelStats& receiver_stats = slot.stats;
    ++receiver_stats.receptions_attempted;
    // Mid-reception of a local frame: the remote frame is lost to overlap
    // (the local frame survives — see the header on the border model).
    const bool busy = endpoint->IsTransmitting() || !slot.in_air.empty();
    if (busy) {
      ++stats_.collisions;
      ++receiver_stats.collisions;
      if (sim_->tracing()) {
        sim_->Trace(
            TraceEvent{sim_->now(), TraceEventKind::kCollision, node, sender, link_packet, 0});
      }
      continue;
    }
    const double probability = propagation_->DeliveryProbability(sender, node, sim_->now());
    if (!rng_.NextBool(probability)) {
      ++stats_.propagation_losses;
      ++receiver_stats.propagation_losses;
      if (sim_->tracing()) {
        sim_->Trace(TraceEvent{sim_->now(), TraceEventKind::kPropagationLoss, node, sender,
                               link_packet, 0});
      }
      continue;
    }
    ++stats_.deliveries;
    ++receiver_stats.deliveries;
    endpoint->OnFrameDelivered(fragment, airtime);
  }
}

void Channel::FinishTransmit(uint64_t tx_id) {
  ActiveTx* slab_tx = ResolveTx(tx_id);
  if (slab_tx == nullptr) {
    return;
  }
  ActiveTx tx = std::move(*slab_tx);
  // Free the slot before delivering: OnFrameDelivered may transmit again,
  // and the slab must not hold a stale live entry while it does.
  const uint32_t tx_slot = static_cast<uint32_t>(tx_id & 0xffffffff) - 1;
  ++tx_slabs_[tx_slot].generation;
  tx_slabs_[tx_slot].live = false;
  free_tx_slots_.push_back(tx_slot);

  const uint64_t link_packet =
      (static_cast<uint64_t>(tx.fragment.src) << 32) | tx.fragment.message_seq;
  for (size_t i = 0; i < tx.receptions.size(); ++i) {
    const Reception& reception = tx.receptions[i];
    if (reception.cancelled) {
      // The receiver detached mid-flight; Detach already cleared its in-air
      // list and the reception resolves to nothing.
      continue;
    }
    // Unregister this reception from the receiver's in-air list.
    ReceiverSlot& slot = slots_[reception.slot];
    auto& list = slot.in_air;
    for (auto list_it = list.begin(); list_it != list.end(); ++list_it) {
      if (list_it->first == tx_id && list_it->second == i) {
        list.erase(list_it);
        break;
      }
    }

    ChannelEndpoint* endpoint = reception.endpoint;
    ChannelStats* receiver_stats = &slot.stats;
    if (!endpoint->IsAlive()) {
      continue;
    }
    if (reception.corrupted) {
      ++stats_.collisions;
      ++receiver_stats->collisions;
      if (sim_->tracing()) {
        sim_->Trace(TraceEvent{sim_->now(), TraceEventKind::kCollision, reception.receiver,
                               tx.sender, link_packet, 0});
      }
      continue;
    }
    const double probability =
        propagation_->DeliveryProbability(tx.sender, reception.receiver, tx.start);
    if (!rng_.NextBool(probability)) {
      ++stats_.propagation_losses;
      ++receiver_stats->propagation_losses;
      if (sim_->tracing()) {
        sim_->Trace(TraceEvent{sim_->now(), TraceEventKind::kPropagationLoss, reception.receiver,
                               tx.sender, link_packet, 0});
      }
      continue;
    }
    ++stats_.deliveries;
    ++receiver_stats->deliveries;
    endpoint->OnFrameDelivered(tx.fragment, tx.duration);
  }
  tx.receptions.clear();
  recycled_receptions_.push_back(std::move(tx.receptions));
}

}  // namespace diffusion
