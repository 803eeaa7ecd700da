// Fault matrix: probe completion percentiles and safety counters under a
// battery of injected failures, treatment (Riptide on) vs control, fanned
// across --threads workers via the parallel runner.
//
// Each scenario is a declarative FaultPlan (see src/faults/fault_plan.h
// for the spec grammar). Network faults hit both arms identically;
// agent-side faults (actuator, poll, crash) only have a subject in the
// treatment arm. The interesting outputs are (a) how much of the
// no-fault gain survives each failure mode, and (b) the safety metric:
// retransmissions/timeouts must not blow up because a hardened agent kept
// pushing stale windows.
//
// The recovery scenarios (reboot-*, snap-corrupt, route-drift,
// gov-rollback) additionally report, per treatment run, the time for the
// host-wide installed-initcwnd total to climb back to 90% of its
// pre-crash steady state — sampled once per simulated second by a
// read-only probe that leaves the simulation untouched. Durable-state
// knobs are enabled per scenario; every legacy scenario runs with the
// knobs at their defaults and its output stays byte-identical.
//
//   --spec "<fault spec>"   run one custom scenario instead of the matrix
//   --duration S            simulated seconds per run (default 150)
//   --pops N                leading PoPs of the paper roster (default 6)
//   --threads/--seeds/--json as every bench

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cdn/experiment.h"
#include "faults/harness.h"
#include "runner/parallel_runner.h"
#include "stats/perf.h"
#include "runner/sweep.h"
#include "runner/task_pool.h"
#include "bench_util.h"

using namespace riptide;

namespace {

struct Scenario {
  std::string name;
  std::string spec;  // FaultPlan::parse grammar; empty = no faults
  // Durable-state knobs this scenario turns on (empty = defaults). Also
  // the cue to report the extended JSON block: legacy scenarios keep
  // their historical output bytes.
  std::function<void(cdn::ExperimentConfig&)> knobs;
  double crash_s = -1.0;    // recovery scenarios: when the crash fires
  double restart_s = -1.0;  // ... and when the agents come back
};

std::vector<Scenario> default_matrix() {
  std::vector<Scenario> matrix = {
      {"baseline", "", {}},
      {"link-flap", "@30 flap 0-1 5 6", {}},
      {"loss-burst", "@30 loss 0-1 0.05 30", {}},
      {"degrade", "@30 rate 0-1 0.25 30; @30 delay 0-1 50 30", {}},
      {"actuator-30", "@10 actuator-fail 0.3 60", {}},
      {"poll-fail", "@10 poll-fail 0.5 60", {}},
      {"poll-partial", "@10 poll-partial 0.5 60", {}},
      {"crash-cold", "@60 crash -1 10 cold", {}},
      {"crash-warm", "@60 crash -1 10 warm", {}},
      {"combined", "@20 flap 0-1 5 6; @40 actuator-fail 0.3 40; "
                   "@80 loss 0-1 0.05 20",
       {}},
  };

  const auto snapshots_on = [](cdn::ExperimentConfig& config) {
    config.riptide.checkpoint_interval = sim::Time::seconds(2);
  };
  // Host reboot: process AND learned routes die. Cold pays the full
  // re-learning horizon; warm restores the persisted table and reprograms
  // routes before the first poll.
  matrix.push_back({"reboot-cold", "@60 crash -1 5 reboot-cold",
                    /*knobs=*/[](cdn::ExperimentConfig&) {}, 60.0, 65.0});
  matrix.push_back(
      {"reboot-warm", "@60 crash -1 5 reboot-warm", snapshots_on, 60.0, 65.0});
  // Newest snapshot gets a header bit flipped just before the reboot:
  // restore must fall back to the previous generation, not crash or come
  // up empty. Offset 13 lands inside the header, rejecting the whole
  // snapshot; @59 sits between the last two checkpoint ticks (even
  // seconds) so no fresh snapshot papers over the damage.
  matrix.push_back({"snap-corrupt",
                    "@59 snap-corrupt -1 13; @60 crash -1 5 reboot-warm",
                    snapshots_on, 60.0, 65.0});
  // An outside actor deletes half the learned routes and mangles a
  // quarter; the reconciler must repair the drift within a poll.
  matrix.push_back({"route-drift", "@60 route-drift -1 0.5 0.25",
                    [](cdn::ExperimentConfig& config) {
                      config.riptide.reconcile_routes = true;
                    }});
  // Host-wide loss burst: the governor's emergency rollback withdraws
  // every learned route, cools down, then re-learns.
  matrix.push_back({"gov-rollback", "@60 loss 0-1 0.3 20",
                    [](cdn::ExperimentConfig& config) {
                      auto& governor = config.riptide.governor;
                      governor.rollback_retrans_fraction = 0.05;
                      governor.min_packets = 50;
                      governor.cooldown = sim::Time::seconds(10);
                    }});
  return matrix;
}

// One reading of the host-wide installed-initcwnd total (treatment arm
// only; control has no agents and stays at zero).
struct RouteSample {
  double t_s = 0.0;
  double total_initcwnd = 0.0;
};
using SampleSeries = std::vector<RouteSample>;

// Seconds after restart_s until the installed total regains 90% of its
// last pre-crash value; negative when never (or when there was nothing to
// regain).
double recovery_seconds(const SampleSeries& samples, double crash_s,
                        double restart_s) {
  double steady = 0.0;
  for (const RouteSample& sample : samples) {
    if (sample.t_s < crash_s) steady = sample.total_initcwnd;
  }
  if (steady <= 0.0) return -1.0;
  for (const RouteSample& sample : samples) {
    if (sample.t_s < restart_s) continue;
    if (sample.total_initcwnd >= 0.9 * steady) {
      return sample.t_s - restart_s;
    }
  }
  return -1.0;
}

// Sum of the hardening counters across an experiment's agents.
core::AgentStats agent_totals(const cdn::Experiment& e) {
  core::AgentStats total;
  for (const auto& agent : e.agents()) {
    const core::AgentStats& s = agent->stats();
    total.polls += s.polls;
    total.routes_set += s.routes_set;
    total.routes_expired += s.routes_expired;
    total.polls_failed += s.polls_failed;
    total.actuator_failures += s.actuator_failures;
    total.actuator_retries += s.actuator_retries;
    total.actuator_dead_letters += s.actuator_dead_letters;
    total.staleness_decays += s.staleness_decays;
    total.staleness_withdrawals += s.staleness_withdrawals;
    total.crashes += s.crashes;
    total.restarts += s.restarts;
    total.routes_adopted += s.routes_adopted;
    total.reconcile_repaired += s.reconcile_repaired;
    total.reconcile_orphaned += s.reconcile_orphaned;
    total.reconcile_conflicting += s.reconcile_conflicting;
    total.governor_budget_scaledowns += s.governor_budget_scaledowns;
    total.governor_hysteresis_skips += s.governor_hysteresis_skips;
    total.governor_rollbacks += s.governor_rollbacks;
    total.governor_routes_rolled_back += s.governor_routes_rolled_back;
    total.governor_cooldown_polls += s.governor_cooldown_polls;
  }
  return total;
}

// Completion CDF for `size`-byte probes from every source, merged across
// the runs of one scenario arm.
stats::Cdf merged_cdf(const std::vector<const cdn::Experiment*>& runs,
                      std::uint64_t size) {
  stats::Cdf merged;
  for (const cdn::Experiment* run : runs) {
    const std::size_t pops = run->topology().pop_count();
    for (std::size_t src = 0; src < pops; ++src) {
      merged.add_all(
          run->probe_cdf(static_cast<int>(src), size).sorted_samples());
    }
  }
  return merged;
}

struct Options {
  bench::BenchOptions base;
  std::string custom_spec;
  bool has_custom = false;
  double duration_s = 150.0;
  std::size_t pops = 6;
};

Options parse_args(int argc, char** argv) {
  bench::warn_if_unoptimized();
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      opt.base.threads = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (arg == "--seeds" && i + 1 < argc) {
      opt.base.seeds.clear();
      const char* p = argv[++i];
      while (*p != '\0') {
        char* end = nullptr;
        opt.base.seeds.push_back(std::strtoull(p, &end, 10));
        p = (*end == ',') ? end + 1 : end;
      }
      if (opt.base.seeds.empty()) opt.base.seeds = {1};
    } else if (arg == "--json") {
      opt.base.json = true;
    } else if (arg == "--spec" && i + 1 < argc) {
      opt.custom_spec = argv[++i];
      opt.has_custom = true;
    } else if (arg == "--duration" && i + 1 < argc) {
      opt.duration_s = std::atof(argv[++i]);
    } else if (arg == "--pops" && i + 1 < argc) {
      opt.pops = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--threads N] [--seeds a,b,c] [--json] "
                   "[--spec \"<fault spec>\"] [--duration S] [--pops N]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);

  auto base = bench::paper_world(/*riptide=*/true);
  if (opt.pops > 0 && opt.pops < base.pop_specs.size()) {
    base.pop_specs.resize(opt.pops);
  }
  base.duration = sim::Time::from_seconds(opt.duration_s);
  // The hardening paths under test: staleness guard on, adoption on.
  base.riptide.staleness_guard = true;

  const std::vector<Scenario> matrix =
      opt.has_custom ? std::vector<Scenario>{{"custom", opt.custom_spec, {}}}
                     : default_matrix();

  runner::SweepSpec sweep(base);
  sweep.seeds(opt.base.seeds).treatment_control();
  for (const Scenario& scenario : matrix) {
    // Parse eagerly so a bad spec dies with its message, not inside a
    // worker thread.
    faults::FaultPlan plan = faults::FaultPlan::parse(scenario.spec);
    sweep.variant(scenario.name,
                  [plan = std::move(plan),
                   knobs = scenario.knobs](cdn::ExperimentConfig& config) {
                    if (knobs) knobs(config);
                    faults::FaultHarness::install(config, plan);
                  });
  }

  // Attach the per-second installed-initcwnd sampler to every run. It
  // only reads the routing tables, so simulation outputs are unchanged;
  // the series feed the recovery-time metric of the crash scenarios.
  std::vector<runner::RunSpec> specs = sweep.materialize();
  std::vector<std::shared_ptr<SampleSeries>> series;
  series.reserve(specs.size());
  for (runner::RunSpec& spec : specs) {
    auto samples = std::make_shared<SampleSeries>();
    series.push_back(samples);
    spec.setup = [samples](cdn::Experiment& e) {
      e.simulator().schedule_periodic(
          sim::Time::seconds(1), sim::Time::seconds(1), [samples, &e] {
            double total = 0.0;
            for (const auto& agent : e.agents()) {
              for (const auto& entry :
                   agent->host().routing_table().learned_routes()) {
                total += entry.metrics.initcwnd_segments;
              }
            }
            samples->push_back(
                RouteSample{e.simulator().now().to_seconds(), total});
          });
    };
  }

  const runner::ParallelRunner pool(opt.base.threads);
  const auto sweep_start = std::chrono::steady_clock::now();
  const auto results = pool.run(std::move(specs));
  const double sweep_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    sweep_start)
          .count();

  constexpr std::uint64_t kProbeBytes = 50'000;
  const std::size_t runs_per_scenario = opt.base.seeds.size() * 2;

  std::printf("fault matrix: %zu scenario(s) x %zu seed(s) x "
              "{treatment, control}, %zu PoPs, %.0f s simulated, "
              "%llu-byte probes\n",
              matrix.size(), opt.base.seeds.size(), base.pop_specs.size(),
              opt.duration_s, static_cast<unsigned long long>(kProbeBytes));
  bench::print_rule();
  std::printf("%-14s %-10s %8s %8s %8s %7s %9s %8s %9s %7s %7s %6s %6s\n",
              "scenario", "arm", "p50", "p90", "p99", "n", "retrans",
              "timeouts", "linkdown", "actfail", "retries", "dead",
              "stale");

  for (std::size_t s = 0; s < matrix.size(); ++s) {
    // Appended scenarios report the durable-state counter block; legacy
    // scenarios keep their historical output bytes.
    const bool extended =
        static_cast<bool>(matrix[s].knobs) || matrix[s].crash_s >= 0.0;
    for (int arm = 0; arm < 2; ++arm) {
      const bool is_treatment = arm == 0;
      std::vector<const cdn::Experiment*> runs;
      std::uint64_t retrans = 0, timeouts = 0;
      cdn::Topology::DropTotals drops;
      core::AgentStats agents;
      persist::CheckpointerStats persist_totals;
      faults::FaultInjectorStats injector_totals;
      double recovery_sum = 0.0;
      std::size_t recovery_runs = 0, recovered = 0;
      for (std::size_t seed = 0; seed < opt.base.seeds.size(); ++seed) {
        const std::size_t index =
            s * runs_per_scenario + seed * 2 + static_cast<std::size_t>(arm);
        const cdn::Experiment& e = *results[index].experiment;
        runs.push_back(&e);
        retrans += e.topology().total_retransmissions();
        timeouts += e.topology().total_timeouts();
        const auto d = e.topology().drop_totals();
        drops.queue_full += d.queue_full;
        drops.random_loss += d.random_loss;
        drops.link_down += d.link_down;
        drops.no_route += d.no_route;
        const auto a = agent_totals(e);
        agents.polls_failed += a.polls_failed;
        agents.actuator_failures += a.actuator_failures;
        agents.actuator_retries += a.actuator_retries;
        agents.actuator_dead_letters += a.actuator_dead_letters;
        agents.staleness_decays += a.staleness_decays;
        agents.staleness_withdrawals += a.staleness_withdrawals;
        agents.crashes += a.crashes;
        agents.restarts += a.restarts;
        if (!extended) continue;
        agents.reconcile_repaired += a.reconcile_repaired;
        agents.reconcile_orphaned += a.reconcile_orphaned;
        agents.reconcile_conflicting += a.reconcile_conflicting;
        agents.governor_budget_scaledowns += a.governor_budget_scaledowns;
        agents.governor_hysteresis_skips += a.governor_hysteresis_skips;
        agents.governor_rollbacks += a.governor_rollbacks;
        agents.governor_routes_rolled_back += a.governor_routes_rolled_back;
        agents.governor_cooldown_polls += a.governor_cooldown_polls;
        if (const auto* harness = faults::FaultHarness::from(e)) {
          const auto p = harness->checkpointer_totals();
          persist_totals.checkpoints_written += p.checkpoints_written;
          persist_totals.restores += p.restores;
          persist_totals.snapshots_rejected += p.snapshots_rejected;
          persist_totals.records_recovered += p.records_recovered;
          persist_totals.records_discarded += p.records_discarded;
          const auto& inj = harness->injector().stats();
          injector_totals.routes_flushed += inj.routes_flushed;
          injector_totals.snapshots_corrupted += inj.snapshots_corrupted;
          injector_totals.routes_dropped += inj.routes_dropped;
          injector_totals.routes_mangled += inj.routes_mangled;
        }
        if (is_treatment && matrix[s].crash_s >= 0.0) {
          const double r = recovery_seconds(*series[index], matrix[s].crash_s,
                                            matrix[s].restart_s);
          ++recovery_runs;
          if (r >= 0.0) {
            recovery_sum += r;
            ++recovered;
          }
        }
      }
      const stats::Cdf cdf = merged_cdf(runs, kProbeBytes);
      const char* arm_name = is_treatment ? "treatment" : "control";
      if (cdf.empty()) {
        std::printf("%-14s %-10s  (no samples)\n", matrix[s].name.c_str(),
                    arm_name);
        continue;
      }
      std::printf("%-14s %-10s %8.1f %8.1f %8.1f %7zu %9llu %8llu %9llu "
                  "%7llu %7llu %6llu %6llu\n",
                  matrix[s].name.c_str(), arm_name, cdf.percentile(50),
                  cdf.percentile(90), cdf.percentile(99), cdf.count(),
                  static_cast<unsigned long long>(retrans),
                  static_cast<unsigned long long>(timeouts),
                  static_cast<unsigned long long>(drops.link_down),
                  static_cast<unsigned long long>(agents.actuator_failures),
                  static_cast<unsigned long long>(agents.actuator_retries),
                  static_cast<unsigned long long>(agents.actuator_dead_letters),
                  static_cast<unsigned long long>(
                      agents.staleness_decays + agents.staleness_withdrawals));
      if (opt.base.json) {
        std::printf(
            "{\"bench\":\"fault_matrix\",\"scenario\":\"%s\",\"arm\":\"%s\","
            "\"p50_ms\":%.3f,\"p90_ms\":%.3f,\"p99_ms\":%.3f,\"samples\":%zu,"
            "\"drops\":{\"queue_full\":%llu,\"random_loss\":%llu,"
            "\"link_down\":%llu,\"no_route\":%llu},"
            "\"retransmissions\":%llu,\"timeouts\":%llu,"
            "\"agent\":{\"polls_failed\":%llu,\"actuator_failures\":%llu,"
            "\"actuator_retries\":%llu,\"actuator_dead_letters\":%llu,"
            "\"staleness_decays\":%llu,\"staleness_withdrawals\":%llu,"
            "\"crashes\":%llu,\"restarts\":%llu}}\n",
            matrix[s].name.c_str(), arm_name, cdf.percentile(50),
            cdf.percentile(90), cdf.percentile(99), cdf.count(),
            static_cast<unsigned long long>(drops.queue_full),
            static_cast<unsigned long long>(drops.random_loss),
            static_cast<unsigned long long>(drops.link_down),
            static_cast<unsigned long long>(drops.no_route),
            static_cast<unsigned long long>(retrans),
            static_cast<unsigned long long>(timeouts),
            static_cast<unsigned long long>(agents.polls_failed),
            static_cast<unsigned long long>(agents.actuator_failures),
            static_cast<unsigned long long>(agents.actuator_retries),
            static_cast<unsigned long long>(agents.actuator_dead_letters),
            static_cast<unsigned long long>(agents.staleness_decays),
            static_cast<unsigned long long>(agents.staleness_withdrawals),
            static_cast<unsigned long long>(agents.crashes),
            static_cast<unsigned long long>(agents.restarts));
      }
      if (!extended || !is_treatment) continue;
      // Durable-state addendum, treatment arm only (control has no agents
      // so every counter would read zero). Printed after the legacy row so
      // the first ten scenarios' bytes stay untouched.
      const double recovery_avg =
          recovered > 0 ? recovery_sum / static_cast<double>(recovered) : -1.0;
      if (matrix[s].crash_s >= 0.0) {
        if (recovered > 0) {
          std::printf("%-14s %-10s recovery to 90%% steady: %.1f s after "
                      "restart (%zu/%zu run(s))\n",
                      "", "", recovery_avg, recovered, recovery_runs);
        } else {
          std::printf("%-14s %-10s recovery to 90%% steady: never "
                      "(0/%zu run(s))\n",
                      "", "", recovery_runs);
        }
      }
      std::printf(
          "%-14s %-10s reconcile rep/orph/conf %llu/%llu/%llu | governor "
          "scale/skip/rollback/rolled/cooldown %llu/%llu/%llu/%llu/%llu | "
          "persist ckpt/restore/reject/rec/disc %llu/%llu/%llu/%llu/%llu\n",
          "", "", static_cast<unsigned long long>(agents.reconcile_repaired),
          static_cast<unsigned long long>(agents.reconcile_orphaned),
          static_cast<unsigned long long>(agents.reconcile_conflicting),
          static_cast<unsigned long long>(agents.governor_budget_scaledowns),
          static_cast<unsigned long long>(agents.governor_hysteresis_skips),
          static_cast<unsigned long long>(agents.governor_rollbacks),
          static_cast<unsigned long long>(agents.governor_routes_rolled_back),
          static_cast<unsigned long long>(agents.governor_cooldown_polls),
          static_cast<unsigned long long>(persist_totals.checkpoints_written),
          static_cast<unsigned long long>(persist_totals.restores),
          static_cast<unsigned long long>(persist_totals.snapshots_rejected),
          static_cast<unsigned long long>(persist_totals.records_recovered),
          static_cast<unsigned long long>(persist_totals.records_discarded));
      if (opt.base.json) {
        std::printf(
            "{\"bench\":\"fault_matrix_ext\",\"scenario\":\"%s\","
            "\"arm\":\"%s\",\"recovery_s\":%.3f,\"recovered_runs\":%zu,"
            "\"recovery_runs\":%zu,"
            "\"reconcile\":{\"repaired\":%llu,\"orphaned\":%llu,"
            "\"conflicting\":%llu},"
            "\"governor\":{\"budget_scaledowns\":%llu,"
            "\"hysteresis_skips\":%llu,\"rollbacks\":%llu,"
            "\"routes_rolled_back\":%llu,\"cooldown_polls\":%llu},"
            "\"persist\":{\"checkpoints_written\":%llu,\"restores\":%llu,"
            "\"snapshots_rejected\":%llu,\"records_recovered\":%llu,"
            "\"records_discarded\":%llu},"
            "\"injector\":{\"routes_flushed\":%llu,"
            "\"snapshots_corrupted\":%llu,\"routes_dropped\":%llu,"
            "\"routes_mangled\":%llu}}\n",
            matrix[s].name.c_str(), arm_name, recovery_avg, recovered,
            recovery_runs,
            static_cast<unsigned long long>(agents.reconcile_repaired),
            static_cast<unsigned long long>(agents.reconcile_orphaned),
            static_cast<unsigned long long>(agents.reconcile_conflicting),
            static_cast<unsigned long long>(agents.governor_budget_scaledowns),
            static_cast<unsigned long long>(agents.governor_hysteresis_skips),
            static_cast<unsigned long long>(agents.governor_rollbacks),
            static_cast<unsigned long long>(agents.governor_routes_rolled_back),
            static_cast<unsigned long long>(agents.governor_cooldown_polls),
            static_cast<unsigned long long>(persist_totals.checkpoints_written),
            static_cast<unsigned long long>(persist_totals.restores),
            static_cast<unsigned long long>(persist_totals.snapshots_rejected),
            static_cast<unsigned long long>(persist_totals.records_recovered),
            static_cast<unsigned long long>(persist_totals.records_discarded),
            static_cast<unsigned long long>(injector_totals.routes_flushed),
            static_cast<unsigned long long>(
                injector_totals.snapshots_corrupted),
            static_cast<unsigned long long>(injector_totals.routes_dropped),
            static_cast<unsigned long long>(injector_totals.routes_mangled));
      }
    }
  }

  double sum_run_seconds = 0.0;
  for (const auto& result : results) sum_run_seconds += result.wall_seconds;
  std::printf("sweep: %zu runs on %u worker(s): %.2f s wall, %.2f s summed "
              "run time\n",
              results.size(),
              runner::effective_threads(opt.base.threads, results.size()),
              sweep_seconds, sum_run_seconds);
  if (opt.base.json) {
    perf::Counters perf_totals;
    for (const auto& result : results) perf_totals.accumulate(result.perf);
    std::printf("{\"bench\":\"fault_matrix\",\"runs\":%zu,\"perf\":%s}\n",
                results.size(), perf::to_run_json(perf_totals).c_str());
  }
  return 0;
}
