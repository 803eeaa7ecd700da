#pragma once

// Route-table scale measurement behind bench_micro's --routescale-json mode:
// the cost of one longest-prefix match and of one connect as the host's
// routing table grows from 10^2 to 10^6 routes. CDNs program initial
// windows at very different prefix granularities, so table size is a real
// axis; net::PrefixTable probes at most one slot run per distinct prefix
// length, whatever the number of routes.
//
// Routes alternate /32 and /24 prefixes at pseudo-random addresses, under
// a default route. Three costs per size:
//
//   lookup_ns     - RoutingTable::lookup over addresses spread across the
//                   whole table (half inside an installed prefix, half
//                   anywhere): at 10^6 routes the table outgrows the caches
//                   and this includes their misses
//   lookup_hot_ns - the same over a 1,024-destination working set, the
//                   shape a host's connections give it
//   connect_ns    - Host::connect to installed destinations: the one
//                   route match plus connection set-up and the SYN
//
// One perfbench-style {name, unit, value} row per measurement (JSONL,
// named routescale.routes_<N>.<metric>), which tools/bench_diff.py keys by
// name to diff two captures.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "host/host.h"
#include "net/ipv4.h"
#include "sim/simulator.h"

namespace riptide::bench {

struct RouteScaleRow {
  std::size_t routes = 0;  // installed, default route included
  double build_s = 0.0;
  double lookup_ns = 0.0;
  double lookup_hot_ns = 0.0;
  double connect_ns = 0.0;
};

namespace route_scale_detail {

inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Deterministic address stream (64-bit LCG, high half).
struct AddressStream {
  std::uint64_t state;
  std::uint32_t next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(state >> 32);
  }
};

class NullSink : public net::PacketSink {
 public:
  void receive(const net::Packet&) override {}
};

// Times `count` lookups cycling through `addresses` (a power-of-two
// count); returns ns per lookup.
inline double time_lookups(const host::RoutingTable& table,
                           const std::vector<net::Ipv4Address>& addresses,
                           std::size_t count, std::uint64_t& checksum) {
  const std::size_t mask = addresses.size() - 1;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    const host::RouteEntry* entry = table.lookup(addresses[i & mask]);
    checksum += entry == nullptr ? 1 : entry->prefix.length();
  }
  return seconds_since(start) * 1e9 / static_cast<double>(count);
}

}  // namespace route_scale_detail

inline RouteScaleRow measure_route_scale(std::size_t routes,
                                         std::uint64_t& checksum) {
  using namespace route_scale_detail;
  constexpr std::size_t kLookups = 2'000'000;
  constexpr std::size_t kHotSet = 1024;
  constexpr std::size_t kConnects = 10'000;

  RouteScaleRow row;
  sim::Simulator sim;
  host::Host host(sim, "scale", net::Ipv4Address(10, 255, 255, 1));
  NullSink uplink;
  host.attach_uplink(uplink);
  host::RoutingTable& table = host.routing_table();

  AddressStream stream{routes};
  std::vector<net::Ipv4Address> installed;
  installed.reserve(routes);
  const auto build_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < routes; ++i) {
    const net::Ipv4Address address(stream.next());
    table.add_or_replace(net::Prefix(address, i % 2 == 0 ? 32 : 24), uplink,
                         host::RouteMetrics{50, 0});
    installed.push_back(address);
  }
  row.build_s = seconds_since(build_start);
  row.routes = table.size();

  std::vector<net::Ipv4Address> spread(1 << 16);
  for (std::size_t i = 0; i < spread.size(); ++i) {
    spread[i] = i % 2 == 0 ? installed[stream.next() % installed.size()]
                           : net::Ipv4Address(stream.next());
  }
  const std::vector<net::Ipv4Address> hot(spread.begin(),
                                          spread.begin() + kHotSet);
  row.lookup_ns = time_lookups(table, spread, kLookups, checksum);
  row.lookup_hot_ns = time_lookups(table, hot, kLookups, checksum);

  const auto connect_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kConnects; ++i) {
    host.connect(installed[stream.next() % installed.size()], 80, {});
  }
  row.connect_ns = seconds_since(connect_start) * 1e9 / kConnects;
  checksum += host.stats().route_lookups;
  return row;
}

inline void print_route_scale_json(const char* build_label) {
  std::uint64_t checksum = 0;
  for (std::size_t routes : {std::size_t{100}, std::size_t{10'000},
                             std::size_t{1'000'000}}) {
    const RouteScaleRow row = measure_route_scale(routes, checksum);
    const auto print = [routes](const char* metric, const char* unit,
                                double value) {
      std::printf(
          "{\"name\":\"routescale.routes_%zu.%s\",\"unit\":\"%s\","
          "\"value\":%.6g}\n",
          routes, metric, unit, value);
    };
    print("routes", "count", static_cast<double>(row.routes));
    print("build_s", "s", row.build_s);
    print("lookup_ns", "ns", row.lookup_ns);
    print("lookup_hot_ns", "ns", row.lookup_hot_ns);
    print("connect_ns", "ns", row.connect_ns);
  }
  std::fprintf(stderr, "routescale (%s build) checksum %llu\n", build_label,
               static_cast<unsigned long long>(checksum));
}

}  // namespace riptide::bench
