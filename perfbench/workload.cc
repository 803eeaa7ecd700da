// perfbench_workload — one batch of the repository benchmark.
//
// Builds one cdn::Experiment for a named workload and seed, runs it on this
// thread, checks its outputs, and prints one JSON object on stdout: host
// costs (set-up, run, peak RSS), simulated probe completion times, the
// deterministic counters the program exposes, and a fingerprint of every
// simulated output. With --traced the agents' `ss` source and route
// programmer are wrapped through ExperimentConfig's factory seams and every
// poll is closed by a post-poll hook, so host time splits across the `ss`
// enumeration, the agent's own poll work, and route programming; a replay
// of RoutingTable::lookup over each host's end-of-run table times the
// per-segment route lookup.
//
// With --setup-only it constructs the experiment once, prints its set-up
// time, and exits.
//
// Usage: perfbench_workload --workload mesh34|mesh34_off|hostile
//            --seed N [--sim-seconds S] [--traced | --setup-only]
// perfbench/run.py drives it; see perfbench/README.md.

#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cdn/experiment.h"
#include "cdn/hostile.h"
#include "cdn/pops.h"
#include "core/agent.h"
#include "core/route_programmer.h"
#include "core/socket_stats_source.h"
#include "persist/crc32.h"
#include "policy/policy.h"
#include "stats/cdf.h"
#include "stats/perf.h"

namespace {

using namespace riptide;
using Clock = std::chrono::steady_clock;
using sim::Time;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// CPU time of the calling thread, user and system. Every workload runs on
// one thread, so on an idle host this is its wall time. It leaves out time
// the thread waits for a CPU and, where the kernel accounts steal time,
// time the hypervisor gave other tenants. Set-up and run are timed with
// it; the traced spans use the cheaper steady_clock and are compared with
// the run's wall time.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// -- Worlds ------------------------------------------------------------------

// The Fig 15/16 world, bench::paper_world: 34 PoPs x 1 host, WAN loss 1e-3,
// probes every 5 s, 1 s agent polls, c_max 100. paper_world seeds only the
// traffic; the benchmark also seeds the link-loss stream, so a held-out
// seed varies where WAN losses fall as well as the probe schedule.
cdn::ExperimentConfig mesh34_world(bool riptide_enabled, std::uint64_t seed,
                                   Time duration) {
  cdn::ExperimentConfig config = bench::paper_world(riptide_enabled, seed);
  config.topology.seed = seed;
  config.duration = duration;
  return config;
}

// The bench_policy_zoo world scaled to 8 PoPs x 2 hosts: a 500 Mbps WAN
// under the governed adaptive policy and the `combined` hostile scenario
// (32-packet WAN queues, incast at PoP 0, flash crowds), organic traffic
// from PoP 0, probes and polls every 2 s.
cdn::ExperimentConfig hostile_world(std::uint64_t seed, Time duration) {
  cdn::ExperimentConfig config;
  const auto& all = cdn::default_pop_specs();
  config.pop_specs.assign(all.begin(), all.begin() + 8);
  config.topology.hosts_per_pop = 2;
  config.topology.wan_rate_bps = 500e6;
  config.topology.seed = seed;
  config.riptide.update_interval = Time::seconds(2);
  config.probe.interval = Time::seconds(2);
  config.organic_source_pops = {0};
  config.cwnd_sample_interval = Time::seconds(15);
  config.hostile = cdn::parse_hostile_spec("combined");
  cdn::apply_shallow_buffer(config.hostile, config.topology.wan_queue_packets);
  config.duration = duration;
  config.seed = seed;
  policy::apply_policy(config, policy::parse_policy("adaptive-governed"));
  return config;
}

struct Workload {
  const char* name;
  double default_sim_seconds;
  cdn::ExperimentConfig (*make)(std::uint64_t seed, Time duration);
};

const Workload kWorkloads[] = {
    {"mesh34", 240.0,
     [](std::uint64_t seed, Time d) { return mesh34_world(true, seed, d); }},
    {"mesh34_off", 240.0,
     [](std::uint64_t seed, Time d) { return mesh34_world(false, seed, d); }},
    {"hostile", 600.0, hostile_world},
};

// -- Traced seams ------------------------------------------------------------

// Host time spent behind the agent seams, summed over every agent. All
// agents of one experiment run on this thread and a poll body never
// interleaves with another event, so one open-poll marker suffices.
struct Spans {
  std::uint64_t ss_calls = 0;
  std::uint64_t ss_conns = 0;
  double ss_s = 0.0;
  std::uint64_t polls_timed = 0;  // polls that reached the `ss` call
  double poll_s = 0.0;            // `ss` call -> post-poll hook
  std::uint64_t program_calls = 0;
  double program_s = 0.0;
  double program_in_poll_s = 0.0;
  bool poll_open = false;
  Clock::time_point poll_start{};
};

class TimedStatsSource : public core::SocketStatsSource {
 public:
  TimedStatsSource(host::Host& host, Spans& spans)
      : inner_(host), spans_(spans) {}

  std::vector<host::SocketInfo> poll() override {
    const auto start = Clock::now();
    spans_.poll_open = true;
    spans_.poll_start = start;
    auto snapshot = inner_.poll();
    spans_.ss_s += seconds_between(start, Clock::now());
    ++spans_.ss_calls;
    spans_.ss_conns += snapshot.size();
    return snapshot;
  }

 private:
  core::HostSocketStatsSource inner_;
  Spans& spans_;
};

class TimedRouteProgrammer : public core::RouteProgrammer {
 public:
  TimedRouteProgrammer(host::Host& host, Spans& spans)
      : inner_(host), spans_(spans) {}

  void set_initial_windows(const net::Prefix& dst, std::uint32_t initcwnd,
                           std::uint32_t initrwnd, tcp::RouteCc cc) override {
    Timer timer(spans_);
    inner_.set_initial_windows(dst, initcwnd, initrwnd, cc);
  }
  void clear(const net::Prefix& dst) override {
    Timer timer(spans_);
    inner_.clear(dst);
  }

 private:
  // Charges the call's duration on every exit path, exceptions included.
  struct Timer {
    explicit Timer(Spans& spans) : spans(spans), start(Clock::now()) {}
    ~Timer() {
      const double s = seconds_between(start, Clock::now());
      ++spans.program_calls;
      spans.program_s += s;
      if (spans.poll_open) spans.program_in_poll_s += s;
    }
    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;
    Spans& spans;
    Clock::time_point start;
  };

  core::HostRouteProgrammer inner_;
  Spans& spans_;
};

void install_seams(cdn::ExperimentConfig& config, Spans& spans) {
  config.socket_stats_factory = [&spans](cdn::Experiment&, host::Host& h) {
    return std::unique_ptr<core::SocketStatsSource>(
        std::make_unique<TimedStatsSource>(h, spans));
  };
  config.route_programmer_factory = [&spans](cdn::Experiment&,
                                             host::Host& h) {
    return std::unique_ptr<core::RouteProgrammer>(
        std::make_unique<TimedRouteProgrammer>(h, spans));
  };
}

void install_poll_hooks(cdn::Experiment& exp, Spans& spans) {
  for (const auto& agent : exp.agents()) {
    agent->set_post_poll_hook(
        [&spans](core::RiptideAgent&, const core::PollOutcome&) {
          if (!spans.poll_open) return;
          spans.poll_s += seconds_between(spans.poll_start, Clock::now());
          ++spans.polls_timed;
          spans.poll_open = false;
        });
  }
}

// Times the per-segment longest-prefix match on each host's end-of-run
// table: every host looks up every host address, in whole rounds until at
// least `target_lookups` have run.
struct LookupReplay {
  std::uint64_t lookups = 0;
  double seconds = 0.0;
  double route_entries_per_host = 0.0;
  std::uint64_t checksum = 0;  // keeps the lookups observable
};

LookupReplay replay_lookups(cdn::Experiment& exp,
                            std::uint64_t target_lookups) {
  LookupReplay out;
  const auto hosts = exp.topology().all_hosts();
  std::vector<net::Ipv4Address> addresses;
  std::size_t entries = 0;
  for (const host::Host* h : hosts) {
    addresses.push_back(h->address());
    entries += h->routing_table().size();
  }
  if (hosts.empty()) return out;
  out.route_entries_per_host =
      static_cast<double>(entries) / static_cast<double>(hosts.size());
  const std::uint64_t rounds =
      target_lookups / (hosts.size() * addresses.size()) + 1;
  const auto start = Clock::now();
  for (std::uint64_t r = 0; r < rounds; ++r) {
    for (const host::Host* h : hosts) {
      const host::RoutingTable& table = h->routing_table();
      for (net::Ipv4Address dst : addresses) {
        const host::RouteEntry* entry = table.lookup(dst);
        out.checksum += entry != nullptr
                            ? entry->prefix.length() +
                                  entry->metrics.initcwnd_segments
                            : 1000;
        ++out.lookups;
      }
    }
  }
  out.seconds = seconds_between(start, Clock::now());
  return out;
}

// -- Outputs -----------------------------------------------------------------

// CRC-32 over every simulated output, serialized exactly as the golden
// determinism test does (tests/determinism_test.cc): flows, cwnd samples,
// agent counters, final simulated time. The CRC is chained line by line so
// the serialization never adds to the process's peak RSS.
std::uint32_t fingerprint(const cdn::Experiment& exp) {
  std::uint32_t crc = 0;
  char line[256];
  const auto put = [&](int n) {
    crc = persist::crc32(line, static_cast<std::size_t>(n), crc);
  };
  for (const auto& f : exp.metrics().flows()) {
    put(std::snprintf(line, sizeof line,
                      "F,%d,%d,%" PRIu64 ",%" PRId64 ",%" PRId64 ",%d,%.17g\n",
                      f.src_pop, f.dst_pop, f.object_bytes, f.started.ns(),
                      f.duration.ns(), f.fresh ? 1 : 0, f.base_rtt_ms));
  }
  for (const auto& s : exp.metrics().cwnd_samples()) {
    put(std::snprintf(line, sizeof line, "W,%d,%u,%" PRId64 "\n", s.pop,
                      s.cwnd_segments, s.at.ns()));
  }
  for (const auto& agent : exp.agents()) {
    const auto& st = agent->stats();
    put(std::snprintf(line, sizeof line,
                      "A,%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 "\n",
                      st.polls, st.connections_observed, st.routes_set,
                      st.routes_expired));
  }
  put(std::snprintf(line, sizeof line, "S,%" PRId64 "\n",
                    exp.simulator().now().ns()));
  return crc;
}

// Minimal ordered JSON object writer: keys in insertion order, doubles
// with round-trip precision.
class Json {
 public:
  void add(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    raw(key, buf);
  }
  void add(const char* key, std::uint64_t v) {
    raw(key, std::to_string(v));
  }
  void add(const char* key, bool v) { raw(key, v ? "true" : "false"); }
  void add(const char* key, const std::string& v) {
    raw(key, "\"" + v + "\"");
  }
  void raw(const char* key, const std::string& value) {
    body_ += body_.empty() ? "{" : ",";
    body_ += "\"";
    body_ += key;
    body_ += "\":";
    body_ += value;
  }
  std::string str() const { return body_.empty() ? "{}" : body_ + "}"; }

 private:
  std::string body_;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload mesh34|mesh34_off|hostile --seed N "
               "[--sim-seconds S] [--traced | --setup-only]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  bool have_seed = false;
  double sim_seconds = 0.0;
  bool traced = false;
  bool setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      const std::string name = argv[++i];
      for (const auto& w : kWorkloads) {
        if (name == w.name) workload = &w;
      }
      if (workload == nullptr) usage(argv[0]);
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--sim-seconds" && has_value) {
      sim_seconds = std::strtod(argv[++i], nullptr);
      if (!(sim_seconds > 0.0)) usage(argv[0]);
    } else if (arg == "--traced") {
      traced = true;
    } else if (arg == "--setup-only") {
      setup_only = true;
    } else {
      usage(argv[0]);
    }
  }
  if (workload == nullptr || !have_seed || (traced && setup_only)) {
    usage(argv[0]);
  }
  if (sim_seconds == 0.0) sim_seconds = workload->default_sim_seconds;

  cdn::ExperimentConfig config = workload->make(
      seed, Time::nanoseconds(static_cast<std::int64_t>(sim_seconds * 1e9)));
  Spans spans;
  if (traced) install_seams(config, spans);

  // Set-up is the process's first construction, cold, as every real run
  // pays it: its pages fault in and the allocator starts empty.
  const double setup_start = thread_cpu_seconds();
  auto exp = std::make_unique<cdn::Experiment>(config);
  const double setup_s = thread_cpu_seconds() - setup_start;
  if (setup_only) {
    std::printf("{\"setup_s\":%.17g}\n", setup_s);
    return 0;
  }
  if (traced) install_poll_hooks(*exp, spans);

  const perf::Counters before = perf::local();
  const auto run_wall_start = Clock::now();
  const double run_start = thread_cpu_seconds();
  exp->run();
  const double run_s = thread_cpu_seconds() - run_start;
  const double run_wall_s = seconds_between(run_wall_start, Clock::now());
  const perf::Counters counters = perf::local().delta_since(before);

  // -- checks and simulated outputs --
  std::uint64_t issued = 0, completed = 0, failed = 0, in_flight = 0;
  bool accounting_ok = true;
  for (const auto& client : exp->probe_clients()) {
    issued += client->probes_issued();
    completed += client->probes_completed();
    failed += client->probes_failed();
    in_flight += client->probes_in_flight();
    accounting_ok = accounting_ok &&
                    client->probes_issued() ==
                        client->probes_completed() + client->probes_failed() +
                            client->probes_in_flight();
  }
  stats::Cdf fct;
  for (const auto& flow : exp->metrics().flows()) {
    fct.add(flow.duration.to_milliseconds());
  }
  const std::uint32_t crc = fingerprint(*exp);
  const auto drops = exp->topology().drop_totals();

  std::uint64_t packets_sent = 0, connections_opened = 0;
  for (const host::Host* h : exp->topology().all_hosts()) {
    packets_sent += h->stats().packets_sent;
    connections_opened += h->stats().connections_opened;
  }
  std::uint64_t agent_polls = 0, routes_set = 0, governor_actions = 0,
                cooldown_polls = 0;
  for (const auto& agent : exp->agents()) {
    const auto& st = agent->stats();
    agent_polls += st.polls;
    routes_set += st.routes_set;
    cooldown_polls += st.governor_cooldown_polls;
    governor_actions += st.governor_rollbacks +
                        st.governor_budget_scaledowns +
                        st.governor_stage_scaledowns +
                        st.governor_stage_withdrawals +
                        st.governor_budget_sheds;
  }

  Json out;
  out.add("workload", std::string(workload->name));
  out.add("seed", seed);
  out.add("sim_seconds", sim_seconds);
  out.add("traced", traced);
  out.add("setup_s", setup_s);
  out.add("run_s", run_s);
  out.add("run_wall_s", run_wall_s);
  out.add("probes_issued", issued);
  out.add("probes_completed", completed);
  out.add("probes_failed", failed);
  out.add("probes_in_flight", in_flight);
  out.add("probe_accounting_ok", accounting_ok);
  out.add("flows", static_cast<std::uint64_t>(fct.count()));
  if (!fct.empty()) {
    out.add("probe_p50_ms", fct.percentile(50));
    out.add("probe_p99_ms", fct.percentile(99));
    out.add("probe_p999_ms", fct.percentile(99.9));
  }
  out.add("fingerprint", static_cast<std::uint64_t>(crc));
  out.add("sim_events", counters.events_dispatched);
  out.add("sim_cascades", counters.events_cascaded);
  out.add("sim_buckets", counters.timer_buckets_dispatched);
  out.add("net_packets", counters.packets_queued);
  out.add("net_bytes", counters.bytes_queued);
  out.add("net_drops_queue_full", drops.queue_full);
  out.add("net_drops_random", drops.random_loss);
  out.add("tcp_segments", counters.segments_allocated);
  out.add("tcp_heap_allocs", counters.segment_heap_allocs);
  out.add("tcp_pool_high_water", counters.segment_pool_high_water);
  out.add("tcp_retransmissions", exp->topology().total_retransmissions());
  out.add("tcp_timeouts", exp->topology().total_timeouts());
  out.add("host_packets_sent", packets_sent);
  out.add("host_connections_opened", connections_opened);
  out.add("core_agent_polls", agent_polls);
  out.add("core_routes_set", routes_set);
  out.add("core_governor_actions", governor_actions);
  out.add("core_cooldown_polls", cooldown_polls);
  if (traced) {
    const LookupReplay lookups = replay_lookups(*exp, 1'000'000);
    out.add("ss_calls", spans.ss_calls);
    out.add("ss_conns", spans.ss_conns);
    out.add("ss_s", spans.ss_s);
    out.add("polls_timed", spans.polls_timed);
    out.add("poll_s", spans.poll_s);
    out.add("program_calls", spans.program_calls);
    out.add("program_s", spans.program_s);
    out.add("program_in_poll_s", spans.program_in_poll_s);
    out.add("route_entries_per_host", lookups.route_entries_per_host);
    out.add("lookups", lookups.lookups);
    out.add("lookup_s", lookups.seconds);
    out.add("lookup_checksum", lookups.checksum);
  }

  exp.reset();
  out.add("pool_live_after_destroy", perf::local().segment_pool_live);
  out.add("peak_rss_mb", peak_rss_mb());
  std::printf("%s\n", out.str().c_str());
  return 0;
}
