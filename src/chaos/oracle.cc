#include "chaos/oracle.h"

#include <cinttypes>
#include <cstdio>
#include <set>
#include <string>

#include "cdn/experiment.h"
#include "core/agent.h"
#include "persist/crc32.h"
#include "tcp/segment_pool.h"

namespace riptide::chaos {

namespace {

// The determinism suite's pinned golden CRC (tests/determinism_test.cc).
// Duplicated by design: the chaos fingerprint oracle must fail loudly if
// either copy drifts, because "the golden moved" is exactly the class of
// regression this subsystem hunts.
constexpr std::uint32_t kGoldenCrc = 0x1B61F592;

// Bit-exact replica of tests/determinism_test.cc serialize_metrics():
// every observable output of a run, in the same field order and the same
// formats. Any edit here must be mirrored there (and vice versa) or the
// golden oracle diverges from the golden test.
std::string serialize_metrics(const cdn::Experiment& exp) {
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
  std::snprintf(line, sizeof line, "S,%" PRId64 "\n",
                exp.simulator().now().ns());
  out += line;
  return out;
}

// Collects violations with one witness per (oracle, subject): a broken
// invariant re-fires every poll, and repeating it thousands of times
// buries the signal without adding shrinkable information.
class ViolationSink {
 public:
  explicit ViolationSink(std::vector<Violation>& out) : out_(out) {}

  void emit(const char* oracle, const std::string& subject,
            const std::string& detail) {
    if (!seen_.insert(std::string(oracle) + "|" + subject).second) return;
    out_.push_back({oracle, subject + ": " + detail});
  }

 private:
  std::vector<Violation>& out_;
  std::set<std::string> seen_;
};

// Per-poll oracles, run inside the poll's event callback so nothing can
// interleave between the poll body and the judgment. Gated on how the
// poll actually ended (core::PollOutcome): a poll that bailed early on
// cooldown or a failed snapshot never ran budget enforcement or the
// reconciler, so those invariants are not judged on it.
void check_poll(core::RiptideAgent& agent, const core::PollOutcome& outcome,
                ViolationSink& sink) {
  if (!outcome.completed) return;
  const std::string who = agent.host().name();
  const auto now_s = agent.host().simulator().now().to_seconds();

  // (a) Host-wide governor budget. Slack of one segment per installed
  // route absorbs proportional-scale rounding (each lround can round up
  // by half a segment) and the floor-at-1 of tiny budgets. Skipped while
  // actuator retries are pending: a failed scale-down legitimately
  // leaves the old (larger) window installed until the retry lands.
  const std::uint32_t budget = agent.config().governor.budget_segments;
  if (budget > 0 && agent.pending_actuator_ops() == 0) {
    std::uint64_t total = 0;
    for (const auto& [prefix, metrics] : agent.installed_routes()) {
      total += metrics.initcwnd_segments;
    }
    const std::uint64_t slack = agent.installed_routes().size();
    if (total > budget + slack) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "installed initcwnd sum %" PRIu64
                    " > budget %u (+%" PRIu64 " slack) at t=%.3fs",
                    total, budget, slack, now_s);
      sink.emit(kOracleBudget, who, buf);
    }
  }

  // (b) Route consistency after reconciliation: every learned-looking
  // route in the live table is one the agent believes it installed, with
  // the metrics it installed; every installed route is live with those
  // metrics. Destinations with a pending actuator retry are excluded —
  // the agent knows they are inconsistent and is already fixing them.
  if (outcome.reconciled) {
    const auto& table = agent.host().routing_table();
    const auto& installed = agent.installed_routes();
    for (const auto& entry : table.learned_routes()) {
      if (agent.has_pending_op(entry.prefix)) continue;
      const auto it = installed.find(entry.prefix);
      if (it == installed.end()) {
        // Mirror the reconciler's deferral: a learned route the agent
        // doesn't own but whose destination the observed table still
        // wants is re-programmed by the next poll, not withdrawn — only
        // an ownerless *and* unwanted route is an orphan.
        if (agent.learned(entry.prefix) != nullptr) continue;
        sink.emit(kOracleRoute, who,
                  "orphan route " + entry.prefix.to_string() +
                      " survived reconciliation at t=" +
                      std::to_string(now_s) + "s");
      } else if (!(it->second == entry.metrics)) {
        sink.emit(kOracleRoute, who,
                  "mangled route " + entry.prefix.to_string() +
                      " survived reconciliation (live initcwnd " +
                      std::to_string(entry.metrics.initcwnd_segments) +
                      " != installed " +
                      std::to_string(it->second.initcwnd_segments) + ")");
      }
    }
    for (const auto& [prefix, metrics] : installed) {
      if (agent.has_pending_op(prefix)) continue;
      const auto* live = table.find_route(prefix);
      if (live == nullptr || !(live->metrics == metrics)) {
        sink.emit(kOracleRoute, who,
                  "installed route " + prefix.to_string() +
                      " missing or diverged in the live table after "
                      "reconciliation");
      }
      // (c) No window outside TTL control: an installed route must have
      // a learned table entry backing it. A checkpoint restore that
      // resurrects a withdrawn route without re-adopting it into the
      // table would park a boosted window here forever.
      if (agent.learned(prefix) == nullptr) {
        sink.emit(kOracleZombie, who,
                  "installed route " + prefix.to_string() +
                      " has no learned table entry (window outside TTL "
                      "control)");
      }
    }
  }
}

void check_teardown(cdn::Experiment& exp, ViolationSink& sink) {
  // (d) Liveness: data in flight at teardown is fine (the clock simply
  // stopped), but only if loss recovery can still drive it — in-flight
  // bytes with no RTO armed can never complete nor be accounted to a
  // drop reason.
  for (host::Host* h : exp.topology().all_hosts()) {
    for (const auto& info : h->socket_stats()) {
      if (info.bytes_in_flight == 0) continue;
      auto* conn = h->find_connection(info.tuple);
      if (conn == nullptr || !conn->rto_armed()) {
        sink.emit(kOracleStall, h->name(),
                  std::to_string(info.bytes_in_flight) +
                      " bytes in flight with no RTO armed");
      }
    }
  }
  // Probe accounting identity: every probe launched ends as completed,
  // failed, or visibly in flight; none may be stranded on a dead
  // connection the client never noticed.
  std::size_t index = 0;
  for (const auto& client : exp.probe_clients()) {
    const std::string who = "probe-client-" + std::to_string(index++);
    const std::uint64_t accounted = client->probes_completed() +
                                    client->probes_failed() +
                                    client->probes_in_flight();
    if (client->probes_issued() != accounted) {
      sink.emit(kOracleProbes, who,
                "issued " + std::to_string(client->probes_issued()) +
                    " != completed+failed+in-flight " +
                    std::to_string(accounted));
    }
    if (client->stalled_probes() != 0) {
      sink.emit(kOracleProbes, who,
                std::to_string(client->stalled_probes()) +
                    " probes stalled on dead connections");
    }
  }
}

}  // namespace

bool operator==(const Violation& a, const Violation& b) {
  return a.oracle == b.oracle && a.detail == b.detail;
}

RunResult run_chaos_spec(const ChaosSpec& spec) {
  RunResult result;
  ViolationSink sink(result.violations);
  const std::size_t live_before = tcp::SegmentPool::local().live();
  {
    cdn::ExperimentConfig config = spec.to_config();
    cdn::Experiment exp(config);
    for (const auto& agent : exp.agents()) {
      agent->set_post_poll_hook(
          [&sink](core::RiptideAgent& a, const core::PollOutcome& outcome) {
            check_poll(a, outcome, sink);
          });
    }
    exp.run();
    check_teardown(exp, sink);
    result.fingerprint = persist::crc32(serialize_metrics(exp));
    // (f) Knobs-off determinism: the golden spec at the golden seed must
    // still produce the suite's pinned fingerprint.
    if (spec.golden && spec.seed == 42 && result.fingerprint != kGoldenCrc) {
      char buf[96];
      std::snprintf(buf, sizeof buf,
                    "fingerprint 0x%08X != golden 0x%08X", result.fingerprint,
                    kGoldenCrc);
      sink.emit(kOracleGolden, "golden-run", buf);
    }
  }
  // (e) SegmentPool balance, judged after the experiment is destroyed:
  // every segment checked out during the run must have been returned.
  const std::size_t live_after = tcp::SegmentPool::local().live();
  if (live_after != live_before) {
    sink.emit(kOracleLeak, "segment-pool",
              std::to_string(live_after) + " live segments after teardown "
              "(was " + std::to_string(live_before) + " before the run)");
  }
  return result;
}

}  // namespace riptide::chaos
