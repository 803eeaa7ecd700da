#pragma once

#include <cstdint>
#include <string>

#include "net/ipv4.h"
#include "net/packet.h"
#include "net/prefix_table.h"

namespace riptide::net {

// Longest-prefix-match forwarder. Routes map prefixes to egress sinks
// (normally Links). No TTL handling: simulated topologies are loop-free by
// construction, and a routing bug surfaces as a drop counter instead.
class Router : public PacketSink {
 public:
  explicit Router(std::string name) : name_(std::move(name)) {}

  // Adds or replaces the route for exactly `prefix`.
  void add_route(const Prefix& prefix, PacketSink& next_hop);
  bool remove_route(const Prefix& prefix);

  // Longest-prefix match; nullptr when no route covers `dst`.
  PacketSink* lookup(Ipv4Address dst) const;

  void receive(const Packet& packet) override;

  const std::string& name() const { return name_; }
  std::uint64_t forwarded() const { return forwarded_; }
  std::uint64_t no_route_drops() const { return no_route_drops_; }
  std::size_t route_count() const { return routes_.size(); }

 private:
  std::string name_;
  PrefixTable<PacketSink*> routes_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t no_route_drops_ = 0;
};

}  // namespace riptide::net
