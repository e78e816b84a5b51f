#include "fabric/topology.hpp"

namespace pd::fabric {

void Topology::assign(NodeId node, std::uint32_t leaf) {
  leaf_[node] = leaf;
}

std::uint32_t Topology::leaf_of(NodeId node) const {
  auto it = leaf_.find(node);
  return it == leaf_.end() ? 0 : it->second;
}

int Topology::switch_hops(NodeId a, NodeId b) const {
  return multi_switch() && leaf_of(a) != leaf_of(b) ? 3 : 1;
}

sim::Duration Topology::extra_latency(NodeId a, NodeId b, Bytes wire_bytes,
                                      BitsPerSec port_bandwidth) const {
  if (!multi_switch()) return 0;
  const std::uint32_t la = leaf_of(a);
  const std::uint32_t lb = leaf_of(b);
  if (la == lb) return 0;
  // leaf -> spine -> leaf: two extra cut-through hops, two inter-switch
  // propagation legs, and one serialization pass at the uplink's
  // oversubscribed per-flow share.
  return 2 * cost::kSwitchLatencyNs + 2 * cost::kInterSwitchPropagationNs +
         sim::transfer_time(wire_bytes,
                            port_bandwidth / cost::kUplinkOversubscription);
}

sim::Duration Topology::uplink_serialization(NodeId a, NodeId b,
                                             Bytes wire_bytes,
                                             BitsPerSec port_bandwidth) const {
  if (!multi_switch() || leaf_of(a) == leaf_of(b)) return 0;
  return sim::transfer_time(wire_bytes,
                            port_bandwidth / cost::kUplinkOversubscription);
}

sim::Duration Topology::min_extra_between_leaves(std::uint32_t a,
                                                 std::uint32_t b) const {
  if (!multi_switch() || a == b) return 0;
  return 2 * cost::kSwitchLatencyNs + 2 * cost::kInterSwitchPropagationNs + 1;
}

}  // namespace pd::fabric
