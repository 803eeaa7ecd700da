// Property-based and fuzz-style tests over the core invariants:
//  - TCP delivers exactly the bytes sent, in order, under arbitrary loss;
//  - the receive tracker matches a naive reference implementation on
//    random segment interleavings;
//  - congestion controllers keep their windows within sane bounds under
//    random event sequences;
//  - Riptide never programs a window outside [c_min, c_max];
//  - Cdf quantiles match a brute-force reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "cdn/hostile.h"
#include "core/agent.h"
#include "faults/fault_plan.h"
#include "policy/policy.h"
#include "sim/random.h"
#include "stats/cdf.h"
#include "tcp/congestion_control.h"
#include "tcp/cubic.h"
#include "tcp/receive_tracker.h"
#include "tcp/reno.h"
#include "test_util.h"

namespace riptide {
namespace {

using riptide::test::TwoHostNet;
using sim::Time;

// ------------------------------------------------- lossy delivery sweeps

struct LossCase {
  double loss;
  std::uint64_t bytes;
  std::uint64_t seed;
};

class LossyTransferTest : public ::testing::TestWithParam<LossCase> {};

TEST_P(LossyTransferTest, DeliversExactlyOnceInOrder) {
  const auto& param = GetParam();
  TwoHostNet net(Time::milliseconds(20));
  // Route both directions through random loss.
  sim::Rng loss_rng(param.seed);
  net.filter_ba.set_drop_predicate([&, p = param.loss](const net::Packet&) {
    return loss_rng.bernoulli(p);
  });
  net.filter_ab.set_drop_predicate([&, p = param.loss](const net::Packet&) {
    return loss_rng.bernoulli(p);
  });

  std::uint64_t received = 0;
  net.b.listen(80, [&](tcp::TcpConnection& conn) {
    tcp::TcpConnection::Callbacks cbs;
    cbs.on_data = [&](std::uint64_t bytes) { received += bytes; };
    cbs.on_peer_closed = [&conn] { conn.close(); };
    conn.set_callbacks(std::move(cbs));
  });

  tcp::TcpConnection::Callbacks cbs;
  auto& conn = net.a.connect(net.b.address(), 80, std::move(cbs));
  net.sim.run_until(Time::seconds(20));  // survive SYN losses
  ASSERT_TRUE(conn.established());
  conn.send(param.bytes);
  conn.close();
  net.sim.run_until(net.sim.now() + Time::minutes(5));

  // Exactly-once delivery: the receiver's cumulative in-order count equals
  // the bytes sent, never more (duplicates are filtered by the tracker).
  EXPECT_EQ(received, param.bytes);
}

INSTANTIATE_TEST_SUITE_P(
    LossSweep, LossyTransferTest,
    ::testing::Values(LossCase{0.0, 300'000, 1}, LossCase{0.005, 300'000, 2},
                      LossCase{0.02, 200'000, 3}, LossCase{0.05, 100'000, 4},
                      LossCase{0.02, 200'000, 5}, LossCase{0.05, 100'000, 6},
                      LossCase{0.10, 50'000, 7}, LossCase{0.02, 1'000'000, 8}),
    [](const ::testing::TestParamInfo<LossCase>& info) {
      return "loss" + std::to_string(static_cast<int>(info.param.loss * 1000)) +
             "_bytes" + std::to_string(info.param.bytes) + "_seed" +
             std::to_string(info.param.seed);
    });

// --------------------------------------------- receive tracker vs reference

class TrackerFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrackerFuzzTest, MatchesNaiveReferenceOnRandomInterleavings) {
  sim::Rng rng(GetParam());
  tcp::ReceiveTracker tracker(0);

  // Reference: the set of received byte positions.
  std::set<std::uint64_t> reference;
  std::uint64_t delivered_total = 0;

  constexpr std::uint64_t kSpace = 4000;
  for (int step = 0; step < 400; ++step) {
    const auto start =
        static_cast<std::uint64_t>(rng.uniform_int(0, kSpace - 1));
    const auto len = static_cast<std::uint64_t>(rng.uniform_int(1, 120));
    const auto end = std::min(start + len, kSpace);

    delivered_total += tracker.on_segment(start, end);
    for (std::uint64_t b = start; b < end; ++b) reference.insert(b);

    // rcv_nxt is the length of the contiguous prefix of received bytes.
    std::uint64_t expected_nxt = 0;
    for (std::uint64_t b : reference) {
      if (b != expected_nxt) break;
      ++expected_nxt;
    }
    ASSERT_EQ(tracker.rcv_nxt(), expected_nxt) << "step " << step;
    ASSERT_EQ(delivered_total, expected_nxt) << "step " << step;

    // Out-of-order byte count matches the reference set beyond the prefix.
    ASSERT_EQ(tracker.out_of_order_bytes(), reference.size() - expected_nxt);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrackerFuzzTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

// ------------------------------------------- congestion controller fuzzing

class CcFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

void fuzz_controller(tcp::CongestionControl& cc, sim::Rng& rng,
                     std::uint32_t mss) {
  Time now = Time::zero();
  for (int step = 0; step < 2000; ++step) {
    now += Time::milliseconds(rng.uniform_int(1, 50));
    const int action = static_cast<int>(rng.uniform_int(0, 9));
    const auto in_flight =
        static_cast<std::uint64_t>(rng.uniform_int(0, 200)) * mss;
    if (action < 6) {
      tcp::AckEvent ev{now,
                       static_cast<std::uint64_t>(rng.uniform_int(1, 3)) * mss,
                       in_flight, Time::milliseconds(rng.uniform_int(5, 300))};
      cc.on_ack(ev);
    } else if (action < 7) {
      cc.on_enter_recovery(now, in_flight);
      cc.on_exit_recovery(now + Time::milliseconds(100));
    } else if (action < 8) {
      cc.on_timeout(now, in_flight);
    } else {
      cc.on_restart_after_idle();
    }
    // Invariants: loss window floor, ssthresh floor, no overflow blowups.
    ASSERT_GE(cc.cwnd_bytes(), mss) << "step " << step;
    ASSERT_GE(cc.ssthresh_bytes(), 2u * mss) << "step " << step;
    ASSERT_LT(cc.cwnd_bytes(), std::uint64_t{1} << 40) << "step " << step;
  }
}

TEST_P(CcFuzzTest, RenoInvariantsHoldUnderRandomEvents) {
  sim::Rng rng(GetParam());
  tcp::NewReno cc(1460, 10 * 1460);
  fuzz_controller(cc, rng, 1460);
}

TEST_P(CcFuzzTest, CubicInvariantsHoldUnderRandomEvents) {
  sim::Rng rng(GetParam());
  tcp::Cubic cc(1460, 10 * 1460);
  fuzz_controller(cc, rng, 1460);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CcFuzzTest,
                         ::testing::Values(101u, 202u, 303u, 404u));

// -------------------------------------------------- Riptide clamp invariant

class AgentClampTest : public ::testing::TestWithParam<std::uint64_t> {};

class BoundsCheckingProgrammer : public core::RouteProgrammer {
 public:
  BoundsCheckingProgrammer(std::uint32_t c_min, std::uint32_t c_max)
      : c_min_(c_min), c_max_(c_max) {}
  void set_initial_windows(const net::Prefix&, std::uint32_t initcwnd,
                           std::uint32_t initrwnd,
                           tcp::RouteCc = tcp::RouteCc::kUnset) override {
    EXPECT_GE(initcwnd, c_min_);
    EXPECT_LE(initcwnd, c_max_);
    EXPECT_GE(initrwnd, c_max_);  // §III-C: initrwnd covers c_max
    ++programmed;
  }
  void clear(const net::Prefix&) override {}
  int programmed = 0;

 private:
  std::uint32_t c_min_;
  std::uint32_t c_max_;
};

TEST_P(AgentClampTest, ProgrammedWindowsAlwaysWithinBounds) {
  TwoHostNet net(Time::milliseconds(10));
  net.b.listen(9900, [](tcp::TcpConnection& conn) {
    tcp::TcpConnection::Callbacks cbs;
    cbs.on_peer_closed = [&conn] { conn.close(); };
    conn.set_callbacks(std::move(cbs));
  });

  core::RiptideConfig config;
  config.c_min = 15;
  config.c_max = 60;
  config.alpha = 0.3;
  auto programmer = std::make_unique<BoundsCheckingProgrammer>(15, 60);
  auto* raw = programmer.get();
  core::RiptideAgent agent(net.sim, net.a, config, std::move(programmer));
  agent.start();

  // Random traffic: transfers of random size at random times, sometimes
  // closing connections.
  sim::Rng rng(GetParam());
  std::vector<tcp::TcpConnection*> conns;
  for (int burst = 0; burst < 20; ++burst) {
    if (conns.empty() || rng.bernoulli(0.4)) {
      tcp::TcpConnection::Callbacks cbs;
      conns.push_back(&net.a.connect(net.b.address(), 9900, std::move(cbs)));
      net.sim.run_until(net.sim.now() + Time::milliseconds(100));
    }
    auto* conn = conns[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(conns.size()) - 1))];
    if (conn->established() && !conn->close_requested()) {
      conn->send(static_cast<std::uint64_t>(rng.uniform_int(1'000, 400'000)));
    }
    if (rng.bernoulli(0.2)) {
      conn->abort();
      conns.erase(std::find(conns.begin(), conns.end(), conn));
    }
    net.sim.run_until(net.sim.now() +
                      Time::milliseconds(rng.uniform_int(200, 2000)));
  }
  EXPECT_GT(raw->programmed, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AgentClampTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ----------------------------------------------------- Cdf vs brute force

class CdfReferenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CdfReferenceTest, QuantilesMatchSortedReference) {
  sim::Rng rng(GetParam());
  stats::Cdf cdf;
  std::vector<double> reference;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    const double v = rng.uniform(-1000, 1000);
    cdf.add(v);
    reference.push_back(v);
  }
  std::sort(reference.begin(), reference.end());
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.731, 0.9, 0.99, 1.0}) {
    const double pos = q * (n - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const auto hi = std::min<std::size_t>(lo + 1, n - 1);
    const double frac = pos - static_cast<double>(lo);
    const double expected =
        reference[lo] * (1.0 - frac) + reference[hi] * frac;
    EXPECT_NEAR(cdf.quantile(q), expected, 1e-9);
  }
  // fraction_at_or_below is the inverse view.
  for (double v : {-900.0, -1.0, 0.0, 500.0, 999.0}) {
    const auto count = static_cast<double>(
        std::upper_bound(reference.begin(), reference.end(), v) -
        reference.begin());
    EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(v), count / n);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CdfReferenceTest,
                         ::testing::Values(7u, 77u, 777u));

// ------------------------------------ scenario grammar round-trip property
//
// The chaos engine (src/chaos) re-serializes shrunk scenarios through these
// codecs, so parse(to_string(x)) == x must hold for every representable
// value, not just the handful of specs written by hand in other suites.
// Times are drawn as multiples of 0.5 s: exactly representable through the
// seconds<->Time conversion either side of the codec.

Time half_seconds(sim::Rng& rng, std::int64_t min_halves,
                  std::int64_t max_halves) {
  return Time::milliseconds(rng.uniform_int(min_halves, max_halves) * 500);
}

double pick_fraction(sim::Rng& rng) {
  constexpr double kChoices[] = {0.0, 0.01, 0.05, 0.1, 0.25, 0.5, 0.9, 1.0};
  return kChoices[rng.uniform_int(0, 7)];
}

faults::FaultPlan random_fault_plan(sim::Rng& rng) {
  faults::FaultPlan plan;
  const int legs = static_cast<int>(rng.uniform_int(1, 6));
  for (int i = 0; i < legs; ++i) {
    const Time at = half_seconds(rng, 1, 120);
    const Time duration = half_seconds(rng, 1, 60);
    const auto pop_a = static_cast<std::size_t>(rng.uniform_int(0, 6));
    const auto pop_b = pop_a + 1;
    const int host = static_cast<int>(rng.uniform_int(-1, 7));
    switch (rng.uniform_int(0, 11)) {
      case 0:
        plan.link_down(at, pop_a, pop_b);
        break;
      case 1:
        plan.link_up(at, pop_a, pop_b);
        break;
      case 2:
        plan.link_flap(at, pop_a, pop_b, duration,
                       static_cast<int>(rng.uniform_int(1, 8)));
        break;
      case 3:
        plan.loss_burst(at, pop_a, pop_b, pick_fraction(rng), duration);
        break;
      case 4:
        plan.rate_factor(at, pop_a, pop_b, 0.25 * rng.uniform_int(1, 16),
                         duration);
        break;
      case 5:
        plan.extra_delay(at, pop_a, pop_b, 0.5 * rng.uniform_int(1, 400),
                         duration);
        break;
      case 6:
        plan.actuator_failures(at, pick_fraction(rng), duration);
        break;
      case 7:
        plan.poll_failures(at, pick_fraction(rng), duration);
        break;
      case 8:
        plan.poll_partial(at, pick_fraction(rng), duration);
        break;
      case 9:
        plan.agent_crash(at, host, duration, rng.bernoulli(0.5),
                         rng.bernoulli(0.5));
        break;
      case 10:
        plan.snapshot_corrupt(
            at, host, static_cast<std::size_t>(rng.uniform_int(0, 4096)));
        break;
      default:
        plan.route_drift(at, host, pick_fraction(rng), pick_fraction(rng));
        break;
    }
  }
  return plan;
}

cdn::HostileConfig random_hostile(sim::Rng& rng) {
  cdn::HostileConfig config;
  config.kind = static_cast<cdn::HostileKind>(rng.uniform_int(0, 4));
  config.queue_packets = static_cast<std::size_t>(rng.uniform_int(1, 4096));
  config.victim_pop = static_cast<std::size_t>(rng.uniform_int(0, 7));
  config.fanin_connections = static_cast<int>(rng.uniform_int(1, 64));
  config.burst_bytes =
      static_cast<std::uint64_t>(rng.uniform_int(1, 1'000'000));
  config.incast_start = half_seconds(rng, 1, 120);
  config.incast_interval = half_seconds(rng, 1, 60);
  config.crowd_at = half_seconds(rng, 1, 120);
  config.crowd_connections = static_cast<int>(rng.uniform_int(1, 100));
  config.crowd_bytes =
      static_cast<std::uint64_t>(rng.uniform_int(1, 2'000'000));
  config.crowd_repeats = static_cast<int>(rng.uniform_int(1, 8));
  config.crowd_period = half_seconds(rng, 1, 120);
  return config;
}

policy::PolicySpec random_policy(sim::Rng& rng) {
  policy::PolicySpec spec;
  spec.kind = static_cast<policy::PolicyKind>(rng.uniform_int(0, 3));
  // Only fields the canonical string can express may stray from their
  // defaults: "default" carries no granularity, static_iw prints only for
  // static-iw, governed only for adaptive.
  if (spec.kind != policy::PolicyKind::kDefault) {
    constexpr int kPrefixes[] = {16, 20, 24, 28, 32};
    spec.prefix_length = kPrefixes[rng.uniform_int(0, 4)];
  }
  if (spec.kind == policy::PolicyKind::kStaticIw) {
    spec.static_iw = static_cast<std::uint32_t>(rng.uniform_int(1, 1000));
  }
  if (spec.kind == policy::PolicyKind::kAdaptive) {
    spec.governed = rng.bernoulli(0.5);
  }
  return spec;
}

class GrammarRoundTripTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GrammarRoundTripTest, FaultPlanSpecStringIsCanonical) {
  sim::Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const faults::FaultPlan plan = random_fault_plan(rng);
    const std::string spec = faults::to_spec_string(plan);
    const faults::FaultPlan reparsed = faults::FaultPlan::parse(spec);
    ASSERT_EQ(plan, reparsed) << spec;
    ASSERT_EQ(spec, faults::to_spec_string(reparsed));
  }
}

TEST_P(GrammarRoundTripTest, HostileSpecStringIsCanonical) {
  sim::Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const cdn::HostileConfig config = random_hostile(rng);
    const std::string spec = cdn::to_spec_string(config);
    const cdn::HostileConfig reparsed = cdn::parse_hostile_spec(spec);
    ASSERT_EQ(config, reparsed) << spec;
    ASSERT_EQ(spec, cdn::to_spec_string(reparsed));
  }
}

TEST_P(GrammarRoundTripTest, PolicySpecStringIsCanonical) {
  sim::Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const policy::PolicySpec spec = random_policy(rng);
    const std::string text = policy::to_string(spec);
    const policy::PolicySpec reparsed = policy::parse_policy(text);
    ASSERT_EQ(spec, reparsed) << text;
    ASSERT_EQ(text, policy::to_string(reparsed));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GrammarRoundTripTest,
                         ::testing::Values(17u, 34u, 51u, 68u));

// Every grammar rejection must point at the offending token by byte
// offset — campaign logs and --validate-only lean on this.
TEST(GrammarErrorTest, AllThreeGrammarsReportByteOffsets) {
  const auto offset_of = [](const auto& parse) -> std::string {
    try {
      parse();
    } catch (const std::invalid_argument& err) {
      return err.what();
    }
    return "";
  };
  std::string what =
      offset_of([] { (void)faults::FaultPlan::parse("@5 down 0-x"); });
  EXPECT_NE(what.find("at byte 10"), std::string::npos) << what;
  what = offset_of([] { (void)cdn::parse_hostile_spec("incast:victim=x"); });
  EXPECT_NE(what.find("at byte 14"), std::string::npos) << what;
  what = offset_of([] { (void)policy::parse_policy("adaptive@99"); });
  EXPECT_NE(what.find("at byte 9"), std::string::npos) << what;
}

// One number rule across the grammars: non-finite, overflowing and hex
// values are rejected at parse time instead of turning into a plan whose
// canonical string no longer parses (an infinite duration used to become
// INT64_MIN nanoseconds) or that differs from itself after a round trip.
TEST(GrammarErrorTest, NonFiniteAndOverflowingNumbersAreRejected) {
  for (const char* bad :
       {"@1 loss 0-1 nan 5", "@1 loss 0-1 0.5 inf", "@1 crash 0 1e30 warm",
        "@1 rate 0-1 inf 5", "@0x10 down 0-1", "@1 delay 0-1 1e300 5",
        "@1 flap 0-1 2 1e1"}) {
    EXPECT_THROW((void)faults::FaultPlan::parse(bad), std::invalid_argument)
        << bad;
  }
  for (const char* bad : {"incast:start=0x10", "incast:start= 1",
                          "incast:victim=1,victim=2"}) {
    EXPECT_THROW((void)cdn::parse_hostile_spec(bad), std::invalid_argument)
        << bad;
  }
}

}  // namespace
}  // namespace riptide
