#include "net/router.h"

namespace riptide::net {

void Router::add_route(const Prefix& prefix, PacketSink& next_hop) {
  routes_.insert_or_assign(prefix, &next_hop);
}

bool Router::remove_route(const Prefix& prefix) {
  return routes_.erase(prefix);
}

PacketSink* Router::lookup(Ipv4Address dst) const {
  PacketSink* const* next_hop = routes_.lookup(dst);
  return next_hop == nullptr ? nullptr : *next_hop;
}

void Router::receive(const Packet& packet) {
  PacketSink* next = lookup(packet.dst);
  if (next == nullptr) {
    ++no_route_drops_;
    return;
  }
  ++forwarded_;
  next->receive(packet);
}

}  // namespace riptide::net
