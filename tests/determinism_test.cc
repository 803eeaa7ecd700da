// Golden-determinism regression tests: a fixed-seed knobs-off experiment
// must keep producing bit-identical metrics as the hot path is rebuilt
// under it (segment pooling, callback dispatch, observation batching).
// Three layers of pinning:
//
//   1. a golden CRC-32 captured from the pre-refactor build — catches any
//      behavioral drift the refactors introduce, across PRs;
//   2. run-twice-in-process equality — catches state leaking between runs
//      (a shared pool or thread-local counter bleeding into behavior);
//   3. ParallelRunner --threads 1 vs 2 equality — catches cross-thread
//      interference now that per-run state includes thread-local slabs.
//
// Every metric field is serialized exactly (integers raw, doubles with
// %.17g round-trip precision) so the fingerprint has no tolerance to hide
// drift in.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "cdn/experiment.h"
#include "cdn/hostile.h"
#include "cdn/pops.h"
#include "faults/harness.h"
#include "persist/crc32.h"
#include "policy/policy.h"
#include "runner/parallel_runner.h"
#include "stats/perf.h"

namespace riptide::cdn {
namespace {

using sim::Time;

// CRC-32 of serialize_metrics() for golden_config() on the pre-refactor
// (shared_ptr segment) build. The pooled build must reproduce it exactly.
constexpr std::uint32_t kGoldenCrc = 0x1B61F592;

// Compact 4-PoP closed-loop world, WAN loss *on* so the RNG-coupled paths
// (random loss -> SACK -> retransmission) are part of the fingerprint.
ExperimentConfig golden_config(std::uint64_t seed = 42) {
  ExperimentConfig config;
  config.pop_specs = {{"lon", Continent::kEurope, {51.51, -0.13}},
                      {"fra", Continent::kEurope, {50.11, 8.68}},
                      {"nyc", Continent::kNorthAmerica, {40.71, -74.01}},
                      {"tyo", Continent::kAsia, {35.68, 139.69}}};
  config.topology.hosts_per_pop = 1;
  config.topology.wan_loss_probability = 2e-4;
  config.topology.seed = seed;
  config.riptide_enabled = true;
  config.riptide.update_interval = Time::seconds(1);
  config.riptide.c_max = 100;
  config.probe.interval = Time::seconds(5);
  config.probe.idle_close = Time::seconds(10);
  config.duration = Time::seconds(60);
  config.cwnd_sample_interval = Time::seconds(10);
  config.seed = seed;
  return config;
}

// Every observable output of a run, bit-exactly. Field order is part of
// the format; extend only by appending (and recapturing the golden).
std::string serialize_metrics(const Experiment& exp) {
  std::string out;
  out.reserve(1 << 16);
  char line[256];
  for (const auto& f : exp.metrics().flows()) {
    std::snprintf(line, sizeof line,
                  "F,%d,%d,%" PRIu64 ",%" PRId64 ",%" PRId64 ",%d,%.17g\n",
                  f.src_pop, f.dst_pop, f.object_bytes, f.started.ns(),
                  f.duration.ns(), f.fresh ? 1 : 0, f.base_rtt_ms);
    out += line;
  }
  for (const auto& s : exp.metrics().cwnd_samples()) {
    std::snprintf(line, sizeof line, "W,%d,%u,%" PRId64 "\n", s.pop,
                  s.cwnd_segments, s.at.ns());
    out += line;
  }
  for (const auto& agent : exp.agents()) {
    const auto& st = agent->stats();
    std::snprintf(line, sizeof line,
                  "A,%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 "\n",
                  st.polls, st.connections_observed, st.routes_set,
                  st.routes_expired);
    out += line;
  }
  // Deliberately NOT fingerprinted: simulator().events_executed(). The
  // event count is harness bookkeeping, not simulation output — lazy
  // timers and the link completion ring change how many events run while
  // producing the same simulated behavior, and pinning it would veto
  // exactly the optimizations this suite exists to keep honest.
  std::snprintf(line, sizeof line, "S,%" PRId64 "\n",
                exp.simulator().now().ns());
  out += line;
  return out;
}

std::uint32_t run_fingerprint(const ExperimentConfig& config) {
  Experiment exp(config);
  exp.run();
  return persist::crc32(serialize_metrics(exp));
}

TEST(GoldenDeterminismTest, MatchesPrePoolCapture) {
  const std::uint32_t crc = run_fingerprint(golden_config());
  EXPECT_EQ(crc, kGoldenCrc)
      << "metrics fingerprint changed: 0x" << std::hex << crc
      << " (expected 0x" << kGoldenCrc
      << "). A hot-path change altered simulation behavior; if the change "
         "is intentional, recapture the golden.";
}

TEST(GoldenDeterminismTest, RunTwiceIdentical) {
  EXPECT_EQ(run_fingerprint(golden_config()), run_fingerprint(golden_config()));
}

TEST(GoldenDeterminismTest, SeedChangesFingerprint) {
  // Sanity: the fingerprint actually depends on behavior, not just shape.
  EXPECT_NE(run_fingerprint(golden_config(42)),
            run_fingerprint(golden_config(43)));
}

TEST(GoldenDeterminismTest, HybridLoadPerturbsProbes) {
  // Sanity that the fluid cross-traffic aggregate actually couples into
  // the packet world: turning it on must change the probe metrics.
  ExperimentConfig with = golden_config();
  with.flow_traffic.enabled = true;
  with.flow_traffic.model.flows_per_second = 200.0;
  EXPECT_NE(run_fingerprint(with), kGoldenCrc);
}

// The golden world with the agent's hardening and governor paths driven
// by faults: pins the retry, staleness, staged-ladder, budget-shed,
// reconcile, checkpoint and rollback code on top of the knobs-off golden.
constexpr std::uint32_t kGovernedFaultedCrc = 0x01B2983F;
constexpr std::uint32_t kLegacyRollbackCrc = 0x93283F18;

// Fingerprint plus every hardening/governor counter, so a change that
// moves only agent-internal accounting still shows.
std::uint32_t pin_fingerprint(const Experiment& exp,
                              core::AgentStats& totals) {
  std::string out = serialize_metrics(exp);
  char line[1024];
  for (const auto& agent : exp.agents()) {
    const auto& st = agent->stats();
    std::snprintf(
        line, sizeof line,
        "H,%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
        ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
        ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
        ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
        ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
        ",%" PRIu64 "\n",
        st.polls_failed, st.actuator_failures, st.actuator_retries,
        st.actuator_dead_letters, st.staleness_decays,
        st.staleness_withdrawals, st.crashes, st.restarts, st.routes_adopted,
        st.reconcile_repaired, st.reconcile_orphaned,
        st.reconcile_conflicting, st.governor_budget_scaledowns,
        st.governor_hysteresis_skips, st.governor_rollbacks,
        st.governor_routes_rolled_back, st.governor_cooldown_polls,
        st.governor_stage_scaledowns, st.governor_routes_stage_scaled,
        st.governor_stage_withdrawals, st.governor_routes_stage_withdrawn,
        st.governor_budget_sheds, st.governor_routes_budget_shed,
        st.governor_storm_escalations, st.destinations_updated,
        st.connections_observed);
    out += line;
    totals.actuator_retries += st.actuator_retries;
    totals.staleness_decays += st.staleness_decays;
    totals.governor_rollbacks += st.governor_rollbacks;
    totals.governor_stage_scaledowns += st.governor_stage_scaledowns;
    totals.governor_stage_withdrawals += st.governor_stage_withdrawals;
    totals.governor_budget_sheds += st.governor_budget_sheds;
  }
  return persist::crc32(out);
}

std::uint32_t run_pin(ExperimentConfig config, const std::string& plan,
                      core::AgentStats& totals) {
  faults::FaultHarness::install(config, faults::FaultPlan::parse(plan));
  Experiment exp(config);
  exp.run();
  return pin_fingerprint(exp, totals);
}

TEST(GoldenDeterminismTest, GovernedFaultedAgentPin) {
  core::AgentStats totals;

  // (a) The governed adaptive policy with every hardening path armed.
  ExperimentConfig governed = golden_config();
  policy::apply_policy(governed, policy::parse_policy("adaptive-governed"));
  governed.riptide.staleness_guard = true;
  governed.riptide.reconcile_routes = true;
  governed.riptide.checkpoint_interval = Time::seconds(2);
  // The recommended 300-segment budget never binds with three peers per
  // host; 60 does, so the shed-newest pass runs.
  governed.riptide.governor.budget_segments = 60;
  const std::uint32_t governed_crc =
      run_pin(governed,
              "@8 actuator-fail 0.4 20; @12 loss 0-3 0.2 20; "
              "@15 loss 0-1 0.08 10; @30 route-drift -1 0.5 0.25; "
              "@40 crash -1 4 warm",
              totals);

  // (b) bench_fault_matrix's gov-rollback knobs: the legacy all-or-nothing
  // rollback under a host-wide loss burst.
  ExperimentConfig legacy = golden_config();
  legacy.riptide.governor.rollback_retrans_fraction = 0.05;
  legacy.riptide.governor.min_packets = 50;
  legacy.riptide.governor.cooldown = Time::seconds(10);
  const std::uint32_t legacy_crc =
      run_pin(legacy, "@20 loss 0-1 0.3 20", totals);

  EXPECT_GT(totals.governor_stage_scaledowns +
                totals.governor_stage_withdrawals,
            0u);
  EXPECT_GT(totals.governor_budget_sheds, 0u);
  EXPECT_GT(totals.staleness_decays, 0u);
  EXPECT_GT(totals.actuator_retries, 0u);
  EXPECT_GT(totals.governor_rollbacks, 0u);
  EXPECT_EQ(governed_crc, kGovernedFaultedCrc)
      << "governed/faulted pin changed: 0x" << std::hex << governed_crc;
  EXPECT_EQ(legacy_crc, kLegacyRollbackCrc)
      << "legacy rollback pin changed: 0x" << std::hex << legacy_crc;
}

// The three benchmark worlds (perfbench/workload.cc), at their
// expected.json seeds and cut short, pinned by fingerprint and by the exact
// counters the benchmark gates. The golden world above has four PoPs and
// no hostile traffic; these catch drift in the 34-PoP mesh and the
// governed hostile world before a benchmark run would.
ExperimentConfig mesh34_world(bool riptide_enabled) {
  ExperimentConfig config = bench::paper_world(riptide_enabled, 1);
  config.topology.seed = 1;
  config.duration = Time::seconds(20);
  return config;
}

// 35 s rather than 20: the flash crowd's first wave fires at 30 s.
ExperimentConfig hostile_world() {
  constexpr std::uint64_t kSeed = 11;
  ExperimentConfig config;
  const auto& all = default_pop_specs();
  config.pop_specs.assign(all.begin(), all.begin() + 8);
  config.topology.hosts_per_pop = 2;
  config.topology.wan_rate_bps = 500e6;
  config.topology.seed = kSeed;
  config.riptide.update_interval = Time::seconds(2);
  config.probe.interval = Time::seconds(2);
  config.organic_source_pops = {0};
  config.cwnd_sample_interval = Time::seconds(15);
  config.hostile = parse_hostile_spec("combined");
  apply_shallow_buffer(config.hostile, config.topology.wan_queue_packets);
  config.duration = Time::seconds(35);
  config.seed = kSeed;
  policy::apply_policy(config, policy::parse_policy("adaptive-governed"));
  return config;
}

// The simulation-determined counters, one line. Leaves out the segment
// pool's heap allocations and high-water mark, which depend on how warm
// this thread's pool already is.
std::string counters_line(const Experiment& exp, const perf::Counters& c) {
  std::uint64_t packets_sent = 0, opened = 0, routes_set = 0, polls = 0;
  for (const auto& pop : exp.topology().pops()) {
    for (const host::Host* h : pop.hosts) {
      packets_sent += h->stats().packets_sent;
      opened += h->stats().connections_opened;
    }
  }
  for (const auto& agent : exp.agents()) {
    polls += agent->stats().polls;
    routes_set += agent->stats().routes_set;
  }
  const auto drops = exp.topology().drop_totals();
  char line[512];
  std::snprintf(
      line, sizeof line,
      "events=%" PRIu64 " cascades=%" PRIu64 " buckets=%" PRIu64
      " packets=%" PRIu64 " bytes=%" PRIu64 " segments=%" PRIu64
      " sent=%" PRIu64 " opened=%" PRIu64 " polls=%" PRIu64
      " routes_set=%" PRIu64 " retrans=%" PRIu64 " timeouts=%" PRIu64
      " queue_full=%" PRIu64 " random=%" PRIu64,
      c.events_dispatched, c.events_cascaded, c.timer_buckets_dispatched,
      c.packets_queued, c.bytes_queued, c.segments_allocated, packets_sent,
      opened, polls, routes_set, exp.topology().total_retransmissions(),
      exp.topology().total_timeouts(), drops.queue_full, drops.random_loss);
  return line;
}

struct WorldPin {
  const char* name;
  ExperimentConfig (*make)();
  std::uint32_t fingerprint;
  const char* counters;
};

TEST(GoldenDeterminismTest, BenchmarkWorldPins) {
  const WorldPin pins[] = {
      {"mesh34", [] { return mesh34_world(true); }, 0x9373E8F1,
       "events=2466874 cascades=3188214 buckets=2465997 packets=2435515 "
       "bytes=2246260630 segments=813228 sent=813228 opened=10140 polls=680 "
       "routes_set=20846 retrans=614 timeouts=149 queue_full=0 random=824"},
      {"mesh34_off", [] { return mesh34_world(false); }, 0x6D5DD966,
       "events=2455687 cascades=3175953 buckets=2455516 packets=2421672 "
       "bytes=2236209710 segments=808623 sent=808623 opened=10140 polls=0 "
       "routes_set=0 retrans=645 timeouts=174 queue_full=0 random=823"},
      {"hostile", hostile_world, 0x64883A51,
       "events=1704571 cascades=1757347 buckets=1686519 packets=1681962 "
       "bytes=1506064463 segments=584072 sent=584072 opened=4822 polls=272 "
       "routes_set=1539 retrans=22082 timeouts=1448 queue_full=34900 "
       "random=27"},
  };
  for (const WorldPin& pin : pins) {
    SCOPED_TRACE(pin.name);
    Experiment exp(pin.make());
    const perf::Counters before = perf::local();
    exp.run();
    const perf::Counters delta = perf::local().delta_since(before);
    const std::uint32_t crc = persist::crc32(serialize_metrics(exp));
    EXPECT_EQ(crc, pin.fingerprint)
        << pin.name << " fingerprint changed: 0x" << std::hex << crc;
    EXPECT_EQ(counters_line(exp, delta), pin.counters);
  }
}

TEST(GoldenDeterminismTest, ParallelRunnerThreadCountInvariant) {
  std::vector<std::uint32_t> fingerprints;
  for (unsigned threads : {1u, 2u}) {
    runner::ParallelRunner runner(threads);
    std::vector<runner::RunSpec> specs;
    specs.push_back({"a", golden_config(42), nullptr});
    specs.push_back({"b", golden_config(43), nullptr});
    auto results = runner.run(std::move(specs));
    ASSERT_EQ(results.size(), 2u);
    std::uint32_t crc = 0;
    for (const auto& r : results) {
      crc = persist::crc32(serialize_metrics(*r.experiment), crc);
    }
    fingerprints.push_back(crc);
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
}

}  // namespace
}  // namespace riptide::cdn
