#include "host/routing_table.h"

#include <algorithm>

namespace riptide::host {

tcp::TcpConfig apply_route_metrics(const RouteEntry* route,
                                   tcp::TcpConfig base) {
  if (route == nullptr) return base;
  const RouteMetrics& metrics = route->metrics;
  if (metrics.initcwnd_segments != 0) {
    base.initial_cwnd_segments = metrics.initcwnd_segments;
  }
  if (metrics.initrwnd_segments != 0) {
    base.initial_rwnd_segments = metrics.initrwnd_segments;
  }
  // Route-programmed congestion control, consumed once at connect/accept
  // like the windows above (Linux reads the route's congctl the same way).
  tcp::apply_route_cc(metrics.cc, base);
  return base;
}

void RoutingTable::add_or_replace(const net::Prefix& prefix,
                                  net::PacketSink& device,
                                  RouteMetrics metrics) {
  if (Route* route = table_.find(prefix)) {
    route->entry.device = &device;
    route->entry.metrics = metrics;
    return;
  }
  table_.insert_or_assign(
      prefix, Route{RouteEntry{prefix, &device, metrics}, next_seq_++});
  ++generation_;
}

bool RoutingTable::remove(const net::Prefix& prefix) {
  if (!table_.erase(prefix)) return false;
  ++generation_;
  return true;
}

bool RoutingTable::has_route(const net::Prefix& prefix) const {
  return table_.find(prefix) != nullptr;
}

const RouteEntry* RoutingTable::find_route(const net::Prefix& prefix) const {
  const Route* route = table_.find(prefix);
  return route == nullptr ? nullptr : &route->entry;
}

std::vector<RouteEntry> RoutingTable::learned_routes() const {
  std::vector<RouteEntry> learned;
  table_.for_each([&](const net::Prefix& prefix, const Route& route) {
    if (prefix.length() == 0) return;
    if (route.entry.metrics.initcwnd_segments == 0) return;
    learned.push_back(route.entry);
  });
  std::sort(learned.begin(), learned.end(),
            [](const RouteEntry& a, const RouteEntry& b) {
              return net::PrefixOrder{}(a.prefix, b.prefix);
            });
  return learned;
}

std::vector<RouteEntry> RoutingTable::entries() const {
  std::vector<const Route*> routes;
  routes.reserve(table_.size());
  table_.for_each([&](const net::Prefix&, const Route& route) {
    routes.push_back(&route);
  });
  std::sort(routes.begin(), routes.end(), [](const Route* a, const Route* b) {
    if (a->entry.prefix.length() != b->entry.prefix.length()) {
      return a->entry.prefix.length() > b->entry.prefix.length();
    }
    return a->seq < b->seq;
  });
  std::vector<RouteEntry> out;
  out.reserve(routes.size());
  for (const Route* route : routes) out.push_back(route->entry);
  return out;
}

const RouteEntry* RoutingTable::lookup(net::Ipv4Address dst) const {
  const Route* route = table_.lookup(dst);
  return route == nullptr ? nullptr : &route->entry;
}

const RouteEntry* RoutingTable::lookup_excluding(
    net::Ipv4Address dst, const net::Prefix& excluded) const {
  const Route* route = table_.lookup_excluding(dst, excluded);
  return route == nullptr ? nullptr : &route->entry;
}

std::uint32_t RoutingTable::effective_initcwnd(net::Ipv4Address dst,
                                               std::uint32_t fallback) const {
  tcp::TcpConfig base;
  base.initial_cwnd_segments = fallback;
  return apply_route_metrics(lookup(dst), base).initial_cwnd_segments;
}

std::uint32_t RoutingTable::effective_initrwnd(net::Ipv4Address dst,
                                               std::uint32_t fallback) const {
  tcp::TcpConfig base;
  base.initial_rwnd_segments = fallback;
  return apply_route_metrics(lookup(dst), base).initial_rwnd_segments;
}

tcp::RouteCc RoutingTable::effective_cc(net::Ipv4Address dst) const {
  const RouteEntry* entry = lookup(dst);
  return entry == nullptr ? tcp::RouteCc::kUnset : entry->metrics.cc;
}

}  // namespace riptide::host
