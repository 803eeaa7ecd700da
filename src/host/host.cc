#include "host/host.h"

#include <stdexcept>
#include <utility>

#include "tcp/segment_pool.h"

namespace riptide::host {

Host::Host(sim::Simulator& sim, std::string name, net::Ipv4Address address,
           tcp::TcpConfig default_config)
    : sim_(sim),
      name_(std::move(name)),
      address_(address),
      default_config_(default_config) {}

void Host::attach_uplink(net::PacketSink& uplink) {
  uplink_ = &uplink;
  routes_.add_or_replace(net::Prefix(net::Ipv4Address(0), 0), uplink);
}

const RouteEntry* Host::lookup_route(net::Ipv4Address dst) {
  ++stats_.route_lookups;
  return routes_.lookup(dst);
}

std::uint16_t Host::allocate_port() {
  // Linux-style ephemeral range; skip ports that are still in use (e.g. a
  // lingering TIME-WAIT with the same peer would be caught at tuple insert).
  const std::uint16_t port = next_ephemeral_port_;
  next_ephemeral_port_ =
      next_ephemeral_port_ >= 60999 ? 32768 : next_ephemeral_port_ + 1;
  return port;
}

Host::Socket::Socket(Host& owner, const tcp::FourTuple& tuple,
                     const tcp::TcpConfig& config, const RouteEntry* route,
                     tcp::TcpConnection::Callbacks callbacks)
    : host(owner),
      route(route),
      route_generation(owner.routes_.generation()),
      connection(owner.sim_, config, tuple, &Host::send_segment_thunk, this,
                 std::move(callbacks)) {}

tcp::TcpConnection& Host::create_connection(
    const tcp::FourTuple& tuple, const tcp::TcpConfig& config,
    const RouteEntry* route, tcp::TcpConnection::Callbacks callbacks) {
  auto [it, inserted] = connections_.try_emplace(tuple, *this, tuple, config,
                                                 route, std::move(callbacks));
  if (!inserted) {
    throw std::logic_error("Host::create_connection: tuple already in use: " +
                           tuple.to_string());
  }
  tcp::TcpConnection& conn = it->second.connection;
  // Host-owned cleanup; survives any later set_callbacks by the app.
  conn.set_teardown_hook([this, tuple] { schedule_removal(tuple); });
  return conn;
}

void Host::schedule_removal(const tcp::FourTuple& tuple) {
  // Deferred: the connection object is still on the call stack.
  sim_.schedule(sim::Time::zero(), [this, tuple] {
    const auto it = connections_.find(tuple);
    if (it != connections_.end() && it->second.connection.closed()) {
      closed_retransmissions_ += it->second.connection.stats().retransmissions;
      closed_timeouts_ += it->second.connection.stats().timeouts;
      connections_.erase(it);
    }
  });
}

std::uint64_t Host::total_retransmissions() const {
  std::uint64_t total = closed_retransmissions_;
  for (const auto& [tuple, socket] : connections_) {
    total += socket.connection.stats().retransmissions;
  }
  return total;
}

std::uint64_t Host::total_timeouts() const {
  std::uint64_t total = closed_timeouts_;
  for (const auto& [tuple, socket] : connections_) {
    total += socket.connection.stats().timeouts;
  }
  return total;
}

tcp::TcpConnection& Host::connect(
    net::Ipv4Address dst, std::uint16_t dst_port,
    tcp::TcpConnection::Callbacks callbacks,
    std::optional<tcp::TcpConfig> override_config) {
  const tcp::TcpConfig base = override_config.value_or(default_config_);
  const RouteEntry* route = lookup_route(dst);
  const tcp::TcpConfig config = apply_route_metrics(route, base);

  tcp::FourTuple tuple{address_, allocate_port(), dst, dst_port};
  // Extremely long simulations can wrap the ephemeral space; skip over any
  // tuple still alive.
  while (connections_.contains(tuple)) tuple.local_port = allocate_port();

  ++stats_.connections_opened;
  auto& conn = create_connection(tuple, config, route, std::move(callbacks));
  conn.connect();
  return conn;
}

void Host::listen(std::uint16_t port, AcceptHook on_accept) {
  if (!listeners_.emplace(port, std::move(on_accept)).second) {
    throw std::logic_error("Host::listen: port already listening");
  }
}

void Host::close_listener(std::uint16_t port) { listeners_.erase(port); }

void Host::send_segment_thunk(void* ctx, const tcp::FourTuple& tuple,
                              tcp::SegmentRef seg) {
  Socket& socket = *static_cast<Socket*>(ctx);
  socket.host.send_segment(socket, tuple, std::move(seg));
}

void Host::send_segment(Socket& socket, const tcp::FourTuple& tuple,
                        tcp::SegmentRef seg) {
  if (socket.route_generation != routes_.generation()) {
    socket.route = lookup_route(tuple.remote_addr);
    socket.route_generation = routes_.generation();
  }
  const RouteEntry* route = socket.route;
  if (route == nullptr || route->device == nullptr) {
    ++stats_.no_route_drops;
    return;
  }
  net::Packet packet;
  packet.src = tuple.local_addr;
  packet.dst = tuple.remote_addr;
  packet.size_bytes = seg->payload_bytes + default_config_.header_bytes;
  packet.payload = std::move(seg).ref();
  ++stats_.packets_sent;
  route->device->receive(packet);
}

void Host::send_rst_for(const net::Packet& packet, const tcp::Segment& seg) {
  const RouteEntry* route = lookup_route(packet.src);
  if (route == nullptr || route->device == nullptr) return;
  tcp::SegmentRef rst = tcp::SegmentPool::local().allocate();
  rst->src_port = seg.dst_port;
  rst->dst_port = seg.src_port;
  rst->rst = true;
  rst->ack_flag = true;
  rst->ack = seg.seq_end();
  net::Packet out;
  out.src = packet.dst;
  out.dst = packet.src;
  out.size_bytes = default_config_.header_bytes;
  out.payload = std::move(rst).ref();
  ++stats_.rst_sent;
  ++stats_.packets_sent;
  route->device->receive(out);
}

void Host::receive(const net::Packet& packet) {
  ++stats_.packets_received;
  const auto* seg = tcp::segment_from(packet);
  if (seg == nullptr) return;  // only TCP exists in this simulation

  const tcp::FourTuple tuple{packet.dst, seg->dst_port, packet.src,
                             seg->src_port};
  if (Socket* socket = find_socket(tuple)) {
    socket->connection.on_segment(*seg);
    return;
  }

  if (seg->syn && !seg->ack_flag) {
    const auto listener = listeners_.find(seg->dst_port);
    if (listener != listeners_.end()) {
      ++stats_.connections_accepted;
      const RouteEntry* route = lookup_route(packet.src);
      const tcp::TcpConfig config = apply_route_metrics(route, default_config_);
      auto& conn = create_connection(tuple, config, route, {});
      listener->second(conn);
      conn.accept(*seg);
      return;
    }
  }

  ++stats_.no_connection_drops;
  if (!seg->rst) send_rst_for(packet, *seg);
}

std::vector<SocketInfo> Host::socket_stats() const {
  std::vector<SocketInfo> out;
  out.reserve(connections_.size());
  for (const auto& [tuple, socket] : connections_) {
    const tcp::TcpConnection& conn = socket.connection;
    SocketInfo info;
    info.tuple = tuple;
    info.state = conn.state();
    info.cwnd_segments = conn.cwnd_segments();
    info.bytes_acked = conn.bytes_acked();
    info.bytes_in_flight = conn.bytes_in_flight();
    info.retransmissions = conn.stats().retransmissions;
    info.segments_sent = conn.stats().segments_sent;
    info.srtt = conn.srtt();
    info.established_at = conn.established_at();
    out.push_back(info);
  }
  return out;
}

tcp::TcpConnection* Host::find_connection(const tcp::FourTuple& tuple) {
  Socket* socket = find_socket(tuple);
  return socket == nullptr ? nullptr : &socket->connection;
}

Host::Socket* Host::find_socket(const tcp::FourTuple& tuple) {
  const auto it = connections_.find(tuple);
  return it == connections_.end() ? nullptr : &it->second;
}

}  // namespace riptide::host
