#include "cdn/hostile.h"

#include <algorithm>
#include <iterator>
#include <memory>

#include "cdn/spec_lexer.h"
#include "tcp/connection.h"

namespace riptide::cdn {

const char* to_string(HostileKind kind) {
  switch (kind) {
    case HostileKind::kNone: return "none";
    case HostileKind::kShallowBuffer: return "shallow-buffer";
    case HostileKind::kIncast: return "incast";
    case HostileKind::kFlashCrowd: return "flash-crowd";
    case HostileKind::kCombined: return "combined";
  }
  return "?";
}

namespace {

constexpr lex::Grammar kGrammar{"parse_hostile_spec"};

constexpr HostileKind kKinds[] = {
    HostileKind::kNone, HostileKind::kShallowBuffer, HostileKind::kIncast,
    HostileKind::kFlashCrowd, HostileKind::kCombined};

// The option grammar, in canonical key order. Keys are shared across
// scenarios: combined takes all of them.
const std::vector<lex::Field<HostileConfig>>& fields() {
  using C = HostileConfig;
  constexpr sim::Time kPositive = sim::Time::nanoseconds(1);
  static const std::vector<lex::Field<C>> table = {
      lex::u64_field("queue", &C::queue_packets, 1, 1u << 20),
      lex::u64_field("victim", &C::victim_pop, 0, 1023),
      lex::u64_field("fanin", &C::fanin_connections, 1, 10'000),
      lex::u64_field("burst", &C::burst_bytes, 0, 1'000'000'000'000ull),
      lex::seconds_field("start", &C::incast_start),
      lex::seconds_field("interval", &C::incast_interval, kPositive),
      lex::seconds_field("at", &C::crowd_at),
      lex::u64_field("conns", &C::crowd_connections, 1, 10'000),
      lex::u64_field("bytes", &C::crowd_bytes, 0, 1'000'000'000'000ull),
      lex::u64_field("repeats", &C::crowd_repeats, 1, 1'000),
      lex::seconds_field("period", &C::crowd_period, kPositive),
  };
  return table;
}

}  // namespace

HostileConfig parse_hostile_spec(const std::string& spec) {
  HostileConfig config;
  const auto colon = spec.find(':');
  const lex::Token name = lex::Token{spec, 0}.sub(0, colon);
  const auto kind = std::find_if(
      std::begin(kKinds), std::end(kKinds),
      [&](HostileKind k) { return name.text == to_string(k); });
  if (kind == std::end(kKinds)) kGrammar.fail("unknown scenario", name);
  config.kind = *kind;
  if (colon == std::string::npos) return config;

  const lex::Token options = lex::Token{spec, 0}.sub(colon + 1);
  if (options.text.empty()) kGrammar.fail("empty option list", options);
  lex::read_fields(kGrammar, fields(), lex::split(options, ','), config);
  return config;
}

std::string to_spec_string(const HostileConfig& config) {
  std::string out = to_string(config.kind);
  const HostileConfig defaults;
  char sep = ':';
  for (const auto& field : fields()) {
    const std::string value = field.write(config);
    if (value == field.write(defaults)) continue;
    out += sep + std::string(field.key) + "=" + value;
    sep = ',';
  }
  return out;
}

bool victim_pop_in_range(const HostileConfig& config, std::size_t pops) {
  const bool has_victim = config.kind == HostileKind::kIncast ||
                          config.kind == HostileKind::kCombined;
  return !has_victim || config.victim_pop < pops;
}

bool apply_shallow_buffer(const HostileConfig& config,
                          std::size_t& wan_queue_packets) {
  if (config.kind != HostileKind::kShallowBuffer &&
      config.kind != HostileKind::kCombined) {
    return false;
  }
  wan_queue_packets = config.queue_packets;
  return true;
}

namespace {

// Open one fresh connection, push `bytes` once established, then close.
// Fresh-per-burst is the whole scenario: every connection reads the
// route's initcwnd at SYN time. The holder keeps the connection pointer
// alive for the callback without a use-after-free if establishment loses
// to teardown (the host owns the connection either way).
void launch_burst(host::Host& host, net::Ipv4Address target,
                  std::uint16_t port, std::uint64_t bytes) {
  auto holder = std::make_shared<tcp::TcpConnection*>(nullptr);
  tcp::TcpConnection::Callbacks cbs;
  cbs.on_established = [holder, bytes] {
    if (*holder == nullptr) return;
    (*holder)->send(bytes);
    (*holder)->close();
  };
  cbs.on_closed = [holder](bool /*reset*/) { *holder = nullptr; };
  *holder = &host.connect(target, port, std::move(cbs));
}

}  // namespace

IncastSource::IncastSource(sim::Simulator& sim, host::Host& host,
                           std::vector<net::Ipv4Address> victims,
                           std::uint16_t sink_port,
                           const HostileConfig& config)
    : sim_(sim),
      host_(host),
      victims_(std::move(victims)),
      sink_port_(sink_port),
      config_(config) {}

void IncastSource::start() {
  if (started_ || victims_.empty()) return;
  started_ = true;
  // Absolute phase: every IncastSource computes the same schedule, so the
  // waves from every source host land at the victim in the same instant.
  const sim::Time delay = config_.incast_start > sim_.now()
                              ? config_.incast_start - sim_.now()
                              : sim::Time::zero();
  sim_.schedule(delay, [this] { fire_wave(); });
}

void IncastSource::fire_wave() {
  ++waves_;
  for (int i = 0; i < config_.fanin_connections; ++i) {
    launch(victims_[next_victim_], config_.burst_bytes);
    next_victim_ = (next_victim_ + 1) % victims_.size();
  }
  sim_.schedule(config_.incast_interval, [this] { fire_wave(); });
}

void IncastSource::launch(net::Ipv4Address target, std::uint64_t bytes) {
  ++connections_;
  bytes_queued_ += bytes;
  launch_burst(host_, target, sink_port_, bytes);
}

FlashCrowdSource::FlashCrowdSource(sim::Simulator& sim, host::Host& host,
                                   std::vector<net::Ipv4Address> targets,
                                   std::uint16_t sink_port,
                                   const HostileConfig& config)
    : sim_(sim),
      host_(host),
      targets_(std::move(targets)),
      sink_port_(sink_port),
      config_(config) {}

void FlashCrowdSource::start() {
  if (started_ || targets_.empty()) return;
  started_ = true;
  const sim::Time delay = config_.crowd_at > sim_.now()
                              ? config_.crowd_at - sim_.now()
                              : sim::Time::zero();
  sim_.schedule(delay, [this] { fire_wave(); });
}

void FlashCrowdSource::fire_wave() {
  ++waves_;
  for (int i = 0; i < config_.crowd_connections; ++i) {
    launch(targets_[next_target_], config_.crowd_bytes);
    next_target_ = (next_target_ + 1) % targets_.size();
  }
  if (waves_ < static_cast<std::uint64_t>(config_.crowd_repeats)) {
    sim_.schedule(config_.crowd_period, [this] { fire_wave(); });
  }
}

void FlashCrowdSource::launch(net::Ipv4Address target, std::uint64_t bytes) {
  ++connections_;
  bytes_queued_ += bytes;
  launch_burst(host_, target, sink_port_, bytes);
}

}  // namespace riptide::cdn
