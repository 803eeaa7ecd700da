// Route and socket lookup: net::PrefixTable against a linear-scan
// reference, the host's per-connection route cache (one prefix match per
// connect, revalidated by the routing table's generation), and a 4-tuple
// reopened after its connection was erased.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "host/host.h"
#include "net/prefix_table.h"
#include "sim/random.h"
#include "test_util.h"

namespace riptide {
namespace {

using sim::Time;

// ------------------------------------------------------------ PrefixTable

// The obvious longest-prefix match: scan every entry.
class LinearReference {
 public:
  void insert_or_assign(const net::Prefix& prefix, int value) {
    for (auto& [p, v] : entries_) {
      if (p == prefix) {
        v = value;
        return;
      }
    }
    entries_.emplace_back(prefix, value);
  }

  bool erase(const net::Prefix& prefix) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first == prefix) {
        entries_.erase(it);
        return true;
      }
    }
    return false;
  }

  std::optional<int> lookup(net::Ipv4Address address,
                            std::optional<net::Prefix> excluded = {}) const {
    const std::pair<net::Prefix, int>* best = nullptr;
    for (const auto& entry : entries_) {
      if (excluded && entry.first == *excluded) continue;
      if (!entry.first.contains(address)) continue;
      if (best == nullptr || entry.first.length() > best->first.length()) {
        best = &entry;
      }
    }
    if (best == nullptr) return std::nullopt;
    return best->second;
  }

  std::size_t size() const { return entries_.size(); }

 private:
  std::vector<std::pair<net::Prefix, int>> entries_;
};

std::optional<int> value_of(const int* v) {
  if (v == nullptr) return std::nullopt;
  return *v;
}

TEST(PrefixTableTest, MatchesLinearScanOverRandomInterleavings) {
  // A few base addresses, so that prefixes overlap: the same address is
  // inserted at several lengths, /0 and /32 included.
  const std::uint32_t bases[] = {0x0A010203u, 0x0A01FF00u, 0x0AFF0001u,
                                 0xC0A80001u, 0x00000000u, 0xFFFFFFFFu};
  const int lengths[] = {0, 1, 8, 15, 16, 17, 24, 31, 32};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    sim::Rng rng(seed);
    net::PrefixTable<int> table;
    LinearReference reference;
    const auto pick_prefix = [&] {
      std::uint32_t address =
          bases[rng.uniform_int(0, std::size(bases) - 1)];
      address ^= static_cast<std::uint32_t>(rng.uniform_int(0, 3)) << 8;
      const int length =
          rng.bernoulli(0.8)
              ? lengths[rng.uniform_int(0, std::size(lengths) - 1)]
              : static_cast<int>(rng.uniform_int(0, 32));
      return net::Prefix(net::Ipv4Address(address), length);
    };
    const auto pick_address = [&] {
      std::uint32_t address =
          bases[rng.uniform_int(0, std::size(bases) - 1)];
      address ^= static_cast<std::uint32_t>(rng.uniform_int(0, 0x3FF));
      return net::Ipv4Address(address);
    };
    for (int step = 0; step < 3000; ++step) {
      const double op = rng.uniform(0, 1);
      if (op < 0.35) {
        const net::Prefix prefix = pick_prefix();
        const int value = static_cast<int>(rng.uniform_int(0, 1'000'000));
        table.insert_or_assign(prefix, value);
        reference.insert_or_assign(prefix, value);
        EXPECT_EQ(value_of(table.find(prefix)), value);
      } else if (op < 0.55) {
        const net::Prefix prefix = pick_prefix();
        EXPECT_EQ(table.erase(prefix), reference.erase(prefix));
      } else if (op < 0.85) {
        const net::Ipv4Address address = pick_address();
        EXPECT_EQ(value_of(table.lookup(address)), reference.lookup(address))
            << address;
      } else {
        const net::Ipv4Address address = pick_address();
        const net::Prefix excluded = pick_prefix();
        EXPECT_EQ(value_of(table.lookup_excluding(address, excluded)),
                  reference.lookup(address, excluded))
            << address << " excluding " << excluded;
      }
      ASSERT_EQ(table.size(), reference.size());
    }
    std::size_t visited = 0;
    table.for_each([&](const net::Prefix& prefix, const int& value) {
      ++visited;
      EXPECT_EQ(value_of(table.find(prefix)), value);
    });
    EXPECT_EQ(visited, reference.size());
  }
}

TEST(PrefixTableTest, GrowsAndShrinksOneLength) {
  // Enough /32s to force several rehashes, then erase every other one:
  // backward-shift deletion must keep the survivors reachable.
  net::PrefixTable<int> table;
  constexpr int kCount = 5000;
  for (int i = 0; i < kCount; ++i) {
    table.insert_or_assign(net::Prefix::host(net::Ipv4Address(0x0A000000u + i)),
                           i);
  }
  for (int i = 0; i < kCount; i += 2) {
    EXPECT_TRUE(
        table.erase(net::Prefix::host(net::Ipv4Address(0x0A000000u + i))));
  }
  EXPECT_EQ(table.size(), static_cast<std::size_t>(kCount / 2));
  for (int i = 0; i < kCount; ++i) {
    const int* v = table.lookup(net::Ipv4Address(0x0A000000u + i));
    if (i % 2 == 0) {
      EXPECT_EQ(v, nullptr) << i;
    } else {
      ASSERT_NE(v, nullptr) << i;
      EXPECT_EQ(*v, i);
    }
  }
}

// ------------------------------------------------- host route and demux

class CountingSink : public net::PacketSink {
 public:
  explicit CountingSink(net::PacketSink& next) : next_(next) {}
  void receive(const net::Packet& packet) override {
    ++packets;
    next_.receive(packet);
  }
  int packets = 0;

 private:
  net::PacketSink& next_;
};

// A client connection to port 80 that sends `bytes` once established.
struct Client {
  Client(host::Host& from, host::Host& to, std::uint64_t bytes)
      : bytes(bytes) {
    tcp::TcpConnection::Callbacks cbs;
    cbs.on_established = [this] {
      if (this->bytes > 0) conn->send(this->bytes);
    };
    conn = &from.connect(to.address(), 80, std::move(cbs));
  }

  std::uint64_t bytes;
  tcp::TcpConnection* conn = nullptr;
};

TEST(HostRouteCacheTest, OnePrefixMatchPerConnectAndNonePerSegment) {
  test::TwoHostNet net(Time::milliseconds(5));
  net.b.listen(80, [](tcp::TcpConnection&) {});
  Client client(net.a, net.b, 200'000);
  net.sim.run_until(Time::seconds(2));

  // One match at connect on a, one at accept on b, however many segments.
  EXPECT_GT(net.a.stats().packets_sent, 100u);
  EXPECT_EQ(net.a.stats().route_lookups, 1u);
  EXPECT_EQ(net.b.stats().route_lookups, 1u);
}

TEST(HostRouteCacheTest, RouteChangedMidConnectionCarriesTheNextSegment) {
  test::TwoHostNet net(Time::milliseconds(5));
  net.b.listen(80, [](tcp::TcpConnection&) {});
  Client client(net.a, net.b, 0);
  tcp::TcpConnection& conn = *client.conn;
  net.sim.run_until(Time::milliseconds(100));
  ASSERT_TRUE(conn.established());
  const std::uint64_t lookups_before = net.a.stats().route_lookups;

  // A more specific route added after connect carries the next segment.
  CountingSink specific(net.filter_ab);
  net.a.routing_table().add_or_replace(net::Prefix::host(net.b.address()),
                                       specific);
  conn.send(1000);
  net.sim.run_until(Time::milliseconds(200));
  EXPECT_EQ(specific.packets, 1);
  EXPECT_EQ(net.a.stats().route_lookups, lookups_before + 1);

  // Replacing that route's device in place reaches the cached route too,
  // without another match.
  CountingSink replaced(net.filter_ab);
  net.a.routing_table().add_or_replace(net::Prefix::host(net.b.address()),
                                       replaced, host::RouteMetrics{40, 0});
  conn.send(1000);
  net.sim.run_until(Time::milliseconds(300));
  EXPECT_EQ(specific.packets, 1);
  EXPECT_EQ(replaced.packets, 1);
  EXPECT_EQ(net.a.stats().route_lookups, lookups_before + 1);

  // With every route gone the next segment has none.
  ASSERT_TRUE(
      net.a.routing_table().remove(net::Prefix::host(net.b.address())));
  ASSERT_TRUE(
      net.a.routing_table().remove(net::Prefix(net::Ipv4Address(0), 0)));
  const std::uint64_t drops_before = net.a.stats().no_route_drops;
  conn.send(1000);
  net.sim.run_until(Time::milliseconds(400));
  EXPECT_GT(net.a.stats().no_route_drops, drops_before);
  EXPECT_EQ(replaced.packets, 1);
}

TEST(HostDemuxTest, ReopenedTupleDeliversToTheNewConnection) {
  // Two clients share one address, so the second one's first ephemeral
  // port recreates the 4-tuple b saw for the first connection.
  sim::Simulator sim;
  sim::Rng rng(7);
  const net::Ipv4Address client_addr(10, 0, 0, 1);
  host::Host first(sim, "first", client_addr);
  host::Host second(sim, "second", client_addr);
  host::Host server(sim, "server", net::Ipv4Address(10, 0, 0, 2));
  const net::Link::Config cfg{1e9, Time::milliseconds(5), 1024, 0.0, "l"};
  net::Link first_up(sim, cfg, server, &rng);
  net::Link second_up(sim, cfg, server, &rng);
  net::Link down_first(sim, cfg, first, &rng);
  net::Link down_second(sim, cfg, second, &rng);
  first.attach_uplink(first_up);
  second.attach_uplink(second_up);
  server.attach_uplink(down_first);

  std::vector<tcp::TcpConnection*> accepted;
  std::vector<std::uint64_t> received;
  server.listen(80, [&](tcp::TcpConnection& conn) {
    const std::size_t index = accepted.size();
    accepted.push_back(&conn);
    received.push_back(0);
    tcp::TcpConnection::Callbacks cbs;
    cbs.on_data = [&received, index](std::uint64_t bytes) {
      received[index] += bytes;
    };
    cbs.on_peer_closed = [&accepted, index] { accepted[index]->close(); };
    conn.set_callbacks(std::move(cbs));
  });

  Client one(first, server, 30'000);
  const tcp::FourTuple tuple_one = one.conn->tuple();
  sim.run_until(Time::milliseconds(200));
  one.conn->close();
  sim.run_until(Time::seconds(5));
  ASSERT_EQ(accepted.size(), 1u);
  EXPECT_EQ(received[0], 30'000u);
  ASSERT_EQ(server.connection_count(), 0u) << "first connection not erased";

  // Replies now go to the second client.
  server.routing_table().add_or_replace(net::Prefix(net::Ipv4Address(0), 0),
                                        down_second);
  Client two(second, server, 50'000);
  ASSERT_EQ(two.conn->tuple(), tuple_one);
  sim.run_until(Time::seconds(6));
  ASSERT_EQ(accepted.size(), 2u);
  EXPECT_EQ(received[1], 50'000u);
  EXPECT_EQ(server.stats().no_connection_drops, 0u);
  EXPECT_EQ(server.stats().rst_sent, 0u);
  const tcp::FourTuple server_side{tuple_one.remote_addr, tuple_one.remote_port,
                                   tuple_one.local_addr, tuple_one.local_port};
  EXPECT_EQ(server.find_connection(server_side), accepted[1]);
}

}  // namespace
}  // namespace riptide
