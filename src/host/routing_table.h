#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/ipv4.h"
#include "net/packet.h"
#include "net/prefix_table.h"
#include "tcp/config.h"

namespace riptide::host {

// Per-route TCP metrics, mirroring the `initcwnd` / `initrwnd` attributes of
// `ip route`. Zero means "unset — use the system default". This is the
// entire kernel surface Riptide drives (paper §III-C: the initial window
// cannot be set per-socket, only per-route). `cc` extends the same idiom to
// congestion-control selection (`ip route ... congctl <name>` on modern
// kernels): kUnset defers to the host-wide TcpConfig.
struct RouteMetrics {
  std::uint32_t initcwnd_segments = 0;
  std::uint32_t initrwnd_segments = 0;
  tcp::RouteCc cc = tcp::RouteCc::kUnset;

  friend bool operator==(const RouteMetrics&, const RouteMetrics&) = default;
};

struct RouteEntry {
  net::Prefix prefix;
  net::PacketSink* device = nullptr;  // egress (the host uplink in practice)
  RouteMetrics metrics;
};

// The TcpConfig a connection over `route` starts with: `base` with the
// route's metrics applied, each unset metric keeping base's value. The one
// place the metrics rule lives; nullptr (no route) returns `base`.
tcp::TcpConfig apply_route_metrics(const RouteEntry* route,
                                   tcp::TcpConfig base);

// A host routing table with longest-prefix-match semantics and `ip route`
// style mutation, over one net::PrefixTable. The host reads it once per
// connection at setup (as in Linux, where the route's initcwnd is read
// once when the socket transmits its SYN) and caches the matched entry,
// revalidated against generation().
class RoutingTable {
 public:
  // `ip route replace <prefix> ... initcwnd N initrwnd M`
  void add_or_replace(const net::Prefix& prefix, net::PacketSink& device,
                      RouteMetrics metrics = {});

  // `ip route del <prefix>`; returns false when absent.
  bool remove(const net::Prefix& prefix);

  bool has_route(const net::Prefix& prefix) const;

  // Exact-prefix lookup (no LPM); nullptr when absent. The agent's route
  // reconciler uses this to compare what it installed with what the table
  // actually holds now.
  const RouteEntry* find_route(const net::Prefix& prefix) const;

  // Routes that look Riptide-installed: non-default prefix with a nonzero
  // initcwnd metric. Returned in PrefixOrder so callers iterating them
  // act deterministically.
  std::vector<RouteEntry> learned_routes() const;

  // Longest-prefix match; nullptr when nothing covers `dst`.
  const RouteEntry* lookup(net::Ipv4Address dst) const;

  // Longest-prefix match skipping the entry for exactly `excluded`. Used
  // when *replacing* a route: the new entry's egress should come from the
  // underlying (less specific) route, not from the route being replaced.
  const RouteEntry* lookup_excluding(net::Ipv4Address dst,
                                     const net::Prefix& excluded) const;

  // Effective initial windows for a destination: the most specific route's
  // metric, or `fallback` where the metric is unset (apply_route_metrics).
  std::uint32_t effective_initcwnd(net::Ipv4Address dst,
                                   std::uint32_t fallback) const;
  std::uint32_t effective_initrwnd(net::Ipv4Address dst,
                                   std::uint32_t fallback) const;

  // Congestion-control regime programmed for a destination; kUnset when no
  // covering route carries one (host default applies).
  tcp::RouteCc effective_cc(net::Ipv4Address dst) const;

  // Every route, most specific first; routes of equal length in the order
  // their prefixes were added (replacing one keeps its place).
  std::vector<RouteEntry> entries() const;
  std::size_t size() const { return table_.size(); }

  // Changes whenever the set of prefixes does (a new prefix or a removal):
  // only then can the match for an address change or a RouteEntry pointer
  // from this table dangle. Replacing an existing prefix's device or
  // metrics keeps both, so it leaves the generation alone.
  std::uint64_t generation() const { return generation_; }

 private:
  struct Route {
    RouteEntry entry;
    std::uint64_t seq = 0;  // insertion order, for entries()
  };

  net::PrefixTable<Route> table_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t generation_ = 0;
};

}  // namespace riptide::host
