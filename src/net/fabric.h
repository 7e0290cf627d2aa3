// Fabric: the physical network — nodes attached to a non-blocking switch,
// with per-node egress/ingress serialization at link rate, MTU packetization
// overhead, and propagation delay.
//
// ReserveTransfer is a *capacity reservation*: it immediately books wire
// time on the source's egress and the destination's ingress and returns the
// absolute arrival time. Callers (RNIC engines, TCP stacks) schedule their
// delivery work at that time. Because reservations on a node are monotone,
// deliveries between a given pair of nodes stay in order — which is what
// reliable transports require.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.h"
#include "net/cost_model.h"
#include "obs/observability.h"
#include "sim/simulator.h"

namespace kafkadirect {
namespace net {

using NodeId = uint32_t;

class Fabric {
 public:
  Fabric(sim::Simulator& sim, const CostModel& cost)
      : sim_(sim), cost_(cost), obs_(sim) {}

  /// Registers a machine on the fabric.
  NodeId AddNode(std::string name) {
    nodes_.push_back(Node{std::move(name), 0, 0, 0});
    return static_cast<NodeId>(nodes_.size() - 1);
  }

  size_t num_nodes() const { return nodes_.size(); }
  const std::string& node_name(NodeId id) const { return nodes_[id].name; }

  /// Wire footprint of a payload: data + per-MTU-packet headers.
  uint64_t WireBytes(uint64_t payload) const {
    const LinkModel& l = cost_.link;
    uint64_t packets = (payload + l.mtu_bytes - 1) / l.mtu_bytes;
    if (packets == 0) packets = 1;  // zero-length messages still send a pkt
    return payload + packets * l.header_bytes;
  }

  /// Serialization time of a payload at link rate.
  sim::TimeNs WireTime(uint64_t payload) const {
    return static_cast<sim::TimeNs>(
        static_cast<double>(WireBytes(payload)) / cost_.link.bytes_per_ns);
  }

  /// Books capacity for a src->dst transfer of `payload` bytes starting no
  /// earlier than `earliest` (virtual time); returns the absolute arrival
  /// time at dst. Loopback transfers cost link.loopback_ns.
  sim::TimeNs ReserveTransfer(NodeId src, NodeId dst, uint64_t payload,
                              sim::TimeNs earliest = 0) {
    KD_DCHECK(src < nodes_.size() && dst < nodes_.size());
    sim::TimeNs now = std::max(sim_.Now(), earliest);
    if (src == dst) {
      return now + cost_.link.loopback_ns;
    }
    Node& s = nodes_[src];
    Node& d = nodes_[dst];
    sim::TimeNs wire = WireTime(payload);
    sim::TimeNs tx_end = std::max(now, s.egress_busy_until) + wire;
    s.egress_busy_until = tx_end;
    // Ingress capacity: the receiving port drains at link rate; a transfer
    // lands when both its own serialization is done and the port has drained
    // the preceding traffic.
    sim::TimeNs rx_end = std::max(tx_end, d.ingress_busy_until + wire);
    d.ingress_busy_until = rx_end;
    s.bytes_sent += payload;
    return rx_end + cost_.link.propagation_ns;
  }

  /// Reserves only the reverse-path capacity (used for RDMA Read responses,
  /// which serialize on responder->initiator egress).
  sim::TimeNs ReserveResponse(NodeId responder, NodeId initiator,
                              uint64_t payload, sim::TimeNs earliest) {
    return ReserveTransfer(responder, initiator, payload, earliest);
  }

  uint64_t bytes_sent(NodeId id) const { return nodes_[id].bytes_sent; }
  const CostModel& cost() const { return cost_; }
  sim::Simulator& simulator() { return sim_; }
  /// Shared metrics/tracing sink for everything attached to this fabric.
  obs::Observability& obs() { return obs_; }

 private:
  struct Node {
    std::string name;
    sim::TimeNs egress_busy_until;
    sim::TimeNs ingress_busy_until;
    uint64_t bytes_sent;
  };

  sim::Simulator& sim_;
  const CostModel& cost_;
  obs::Observability obs_;
  std::vector<Node> nodes_;
};

}  // namespace net
}  // namespace kafkadirect
