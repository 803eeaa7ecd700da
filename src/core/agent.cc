#include "core/agent.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

#include "trace/sink.h"

namespace riptide::core {

RiptideAgent::RiptideAgent(sim::Simulator& sim, host::Host& host,
                           RiptideConfig config,
                           std::unique_ptr<RouteProgrammer> programmer,
                           std::unique_ptr<SocketStatsSource> stats_source)
    : sim_(sim),
      host_(host),
      config_(config),
      programmer_(programmer ? std::move(programmer)
                             : std::make_unique<HostRouteProgrammer>(host)),
      stats_source_(stats_source
                        ? std::move(stats_source)
                        : std::make_unique<HostSocketStatsSource>(host)),
      combiner_(make_combiner(config.combiner)),
      governor_(config.governor) {
  if (config_.alpha < 0.0 || config_.alpha > 1.0) {
    throw std::invalid_argument("RiptideAgent: alpha outside [0, 1]");
  }
  if (config_.c_min == 0 || config_.c_min > config_.c_max) {
    throw std::invalid_argument("RiptideAgent: need 0 < c_min <= c_max");
  }
  if (config_.granularity == Granularity::kPrefix &&
      (config_.prefix_length < 1 || config_.prefix_length > 32)) {
    throw std::invalid_argument("RiptideAgent: bad prefix_length");
  }
}

void RiptideAgent::start() {
  if (running_) return;
  running_ = true;
  if (started_once_) ++stats_.restarts;
  started_once_ = true;

  adopt_existing_routes();

  // Governor deltas measure from process start, not from a predecessor's
  // last poll: whatever retransmissions accumulated while this process
  // wasn't running are not evidence about its routes.
  prev_host_retrans_ = host_.total_retransmissions();
  prev_host_packets_ = host_.stats().packets_sent;

  poll_timer_ = sim_.schedule_periodic(config_.update_interval,
                                       config_.update_interval,
                                       [this] { poll_once(); });
}

void RiptideAgent::stop() {
  running_ = false;
  poll_timer_.cancel();
  cancel_pending_ops();
}

void RiptideAgent::crash() {
  poll_timer_.cancel();
  running_ = false;
  cancel_pending_ops();
  // The process is gone: in-memory learned state is lost, but routes it
  // installed remain in the host routing table.
  table_ = ObservedTable{};
  seen_counters_.clear();
  installed_.clear();
  governor_ = SafetyGovernor{config_.governor};
  ++stats_.crashes;
}

void RiptideAgent::restore_table(ObservedTable snapshot,
                                 bool reinstall_routes) {
  if (!reinstall_routes) {
    table_ = std::move(snapshot);
    return;
  }
  // Reinstalling means the host routing table did not survive (reboot):
  // re-age every entry from now so the TTL clock restarts with the
  // process, and program the learned windows back immediately rather
  // than waiting a full learning cycle.
  const sim::Time now = sim_.now();
  table_ = ObservedTable{};
  for (const auto& [destination, state] : snapshot.entries()) {
    const double final_window = clamp_window(state.final_window_segments);
    table_.put(destination,
               DestinationState{final_window, now, state.updates});
    const auto initcwnd =
        static_cast<std::uint32_t>(std::lround(final_window));
    const std::uint32_t initrwnd =
        config_.set_initrwnd ? std::max(config_.c_max, initcwnd) : 0;
    program_route(destination, initcwnd, initrwnd);
  }
}

void RiptideAgent::absorb_restored_counters(const AgentStats& restored) {
  stats_.polls = std::max(stats_.polls, restored.polls);
  stats_.connections_observed =
      std::max(stats_.connections_observed, restored.connections_observed);
  stats_.destinations_updated =
      std::max(stats_.destinations_updated, restored.destinations_updated);
  stats_.routes_set = std::max(stats_.routes_set, restored.routes_set);
  stats_.routes_expired =
      std::max(stats_.routes_expired, restored.routes_expired);
}

void RiptideAgent::adopt_existing_routes() {
  // A previous incarnation (before a crash) may have left routes behind.
  // Adopt them, aged from now: they stay effective while fresh traffic
  // confirms them, and TTL expiry withdraws them otherwise — without this
  // a stale oversized window would outlive the process that learned it
  // indefinitely.
  const sim::Time now = sim_.now();
  for (const auto& entry : host_.routing_table().entries()) {
    if (entry.prefix.length() == 0) continue;          // default route
    if (entry.metrics.initcwnd_segments == 0) continue;  // not ours
    if (table_.contains(entry.prefix)) continue;       // warm-restored
    table_.store_final(
        entry.prefix,
        clamp_window(static_cast<double>(entry.metrics.initcwnd_segments)),
        now);
    // Adoption transfers ownership: the route is now this process's to
    // reconcile, withdraw, or roll back.
    installed_[entry.prefix] = entry.metrics;
    ++stats_.routes_adopted;
    trace_route(trace::RouteCause::kAdopted, entry.prefix,
                static_cast<double>(entry.metrics.initcwnd_segments));
  }
}

void RiptideAgent::trace_route(trace::RouteCause cause, const net::Prefix& dst,
                               double window) {
  auto* sink = trace::active();
  if (sink == nullptr) return;
  trace::TraceEvent ev;
  ev.at_ns = sim_.now().ns();
  ev.kind = trace::EventKind::kAgentRoute;
  ev.route = {host_.address().value(), dst.address().value(),
              static_cast<std::uint8_t>(dst.length()), cause, window};
  sink->emit(ev);
}

void RiptideAgent::trace_program(trace::ProgramVerdict verdict,
                                 const net::Prefix& dst, double scale,
                                 std::uint32_t initcwnd,
                                 std::uint32_t initrwnd) {
  auto* sink = trace::active();
  if (sink == nullptr) return;
  trace::TraceEvent ev;
  ev.at_ns = sim_.now().ns();
  ev.kind = trace::EventKind::kAgentProgram;
  ev.program = {host_.address().value(), dst.address().value(),
                static_cast<std::uint8_t>(dst.length()), verdict, scale,
                initcwnd, initrwnd};
  sink->emit(ev);
}

void RiptideAgent::trace_governor_state(GovernorState from, GovernorState to,
                                        trace::GovernorCause cause,
                                        double retrans_fraction,
                                        std::uint32_t routes) {
  auto* sink = trace::active();
  if (sink == nullptr) return;
  trace::TraceEvent ev;
  ev.at_ns = sim_.now().ns();
  ev.kind = trace::EventKind::kGovernorState;
  ev.governor = {host_.address().value(), static_cast<std::uint8_t>(from),
                 static_cast<std::uint8_t>(to), cause, retrans_fraction,
                 routes};
  sink->emit(ev);
}

net::Prefix RiptideAgent::destination_key(net::Ipv4Address peer) const {
  if (config_.granularity == Granularity::kHost) return net::Prefix::host(peer);
  return net::Prefix(peer, config_.prefix_length);
}

double RiptideAgent::clamp_window(double value) const {
  return std::clamp(value, static_cast<double>(config_.c_min),
                    static_cast<double>(config_.c_max));
}

// ------------------------------------------------------------------------
// Actuator path with bounded retry.

void RiptideAgent::program_route(const net::Prefix& dst,
                                 std::uint32_t initcwnd,
                                 std::uint32_t initrwnd) {
  try {
    programmer_->set_initial_windows(dst, initcwnd, initrwnd,
                                     config_.route_cc);
  } catch (const std::exception&) {
    ++stats_.actuator_failures;
    handle_actuator_failure(dst, initcwnd, initrwnd, /*clear=*/false);
    return;
  }
  ++stats_.routes_set;
  // Record the cc too: the reconciler compares installed_ against the live
  // table with operator==, so omitting it would read as a per-poll conflict.
  installed_[dst] = host::RouteMetrics{initcwnd, initrwnd, config_.route_cc};
  if (const auto it = pending_ops_.find(dst); it != pending_ops_.end()) {
    it->second.timer.cancel();
    pending_ops_.erase(it);
  }
}

void RiptideAgent::withdraw_route(const net::Prefix& dst) {
  try {
    programmer_->clear(dst);
  } catch (const std::exception&) {
    ++stats_.actuator_failures;
    handle_actuator_failure(dst, 0, 0, /*clear=*/true);
    return;
  }
  installed_.erase(dst);
  if (const auto it = pending_ops_.find(dst); it != pending_ops_.end()) {
    it->second.timer.cancel();
    pending_ops_.erase(it);
  }
}

void RiptideAgent::handle_actuator_failure(const net::Prefix& dst,
                                           std::uint32_t initcwnd,
                                           std::uint32_t initrwnd,
                                           bool clear) {
  auto& op = pending_ops_[dst];
  op.timer.cancel();
  // A newer decision supersedes whatever was pending, but the attempt
  // count carries over: the actuator has been failing for this
  // destination the whole time.
  op.initcwnd = initcwnd;
  op.initrwnd = initrwnd;
  op.clear = clear;
  ++op.attempts;
  if (op.attempts > kActuatorMaxRetries) {
    ++stats_.actuator_dead_letters;
    pending_ops_.erase(dst);
    return;
  }
  ++stats_.actuator_retries;
  const int shift = static_cast<int>(std::min<std::uint32_t>(
      op.attempts - 1, 16));  // cap the doubling: backoff stays finite
  const sim::Time backoff = kActuatorBackoff * (std::int64_t{1} << shift);
  op.timer = sim_.schedule(backoff, [this, dst] { retry_pending(dst); });
}

void RiptideAgent::retry_pending(const net::Prefix& dst) {
  const auto it = pending_ops_.find(dst);
  if (it == pending_ops_.end()) return;
  const PendingOp op = it->second;  // copy: the map may rehome on failure
  try {
    if (op.clear) {
      programmer_->clear(dst);
    } else {
      programmer_->set_initial_windows(dst, op.initcwnd, op.initrwnd,
                                       config_.route_cc);
    }
  } catch (const std::exception&) {
    ++stats_.actuator_failures;
    handle_actuator_failure(dst, op.initcwnd, op.initrwnd, op.clear);
    return;
  }
  if (op.clear) {
    installed_.erase(dst);
  } else {
    ++stats_.routes_set;
    installed_[dst] =
        host::RouteMetrics{op.initcwnd, op.initrwnd, config_.route_cc};
  }
  pending_ops_.erase(dst);
}

void RiptideAgent::cancel_pending_ops() {
  for (auto& [dst, op] : pending_ops_) op.timer.cancel();
  pending_ops_.clear();
}

// ------------------------------------------------------------------------
// Staleness guard.

std::map<net::Prefix, std::pair<std::uint64_t, std::uint64_t>>
RiptideAgent::retransmit_deltas(
    const std::vector<host::SocketInfo>& snapshot) {
  std::map<net::Prefix, std::pair<std::uint64_t, std::uint64_t>> deltas;
  if (!config_.staleness_guard) return deltas;
  for (auto& [tuple, counters] : seen_counters_) {
    counters.seen_this_poll = false;
  }
  for (const auto& info : snapshot) {
    if (info.state != tcp::TcpState::kEstablished) continue;
    auto& prev = seen_counters_[info.tuple];
    // Counters are cumulative per connection; a tuple reappearing with
    // smaller values is a new connection reusing the tuple.
    const std::uint64_t d_retrans =
        info.retransmissions >= prev.retransmissions
            ? info.retransmissions - prev.retransmissions
            : info.retransmissions;
    const std::uint64_t d_sent = info.segments_sent >= prev.segments_sent
                                     ? info.segments_sent - prev.segments_sent
                                     : info.segments_sent;
    prev = SeenCounters{info.retransmissions, info.segments_sent, true};
    auto& slot = deltas[destination_key(info.tuple.remote_addr)];
    slot.first += d_retrans;
    slot.second += d_sent;
  }
  std::erase_if(seen_counters_,
                [](const auto& kv) { return !kv.second.seen_this_poll; });
  return deltas;
}

void RiptideAgent::apply_staleness_guard(
    const std::map<net::Prefix, std::pair<std::uint64_t, std::uint64_t>>&
        deltas,
    sim::Time now) {
  for (const auto& [dst, delta] : deltas) {
    const auto& [d_retrans, d_sent] = delta;
    if (d_sent < kStalenessMinSegments) continue;
    if (static_cast<double>(d_retrans) <
        kStalenessRetransFraction * static_cast<double>(d_sent)) {
      continue;
    }
    const DestinationState* state = table_.find(dst);
    if (state == nullptr) continue;
    const double decayed = state->final_window_segments * kStalenessDecay;
    if (decayed <= static_cast<double>(config_.c_min)) {
      // The learned window has decayed to the floor and the path is still
      // hurting: withdraw outright, restoring the default initial window.
      table_.erase(dst);
      trace_route(trace::RouteCause::kStalenessWithdraw, dst, 0.0);
      withdraw_route(dst);
      ++stats_.staleness_withdrawals;
    } else {
      trace_route(trace::RouteCause::kStalenessDecay, dst, decayed);
      table_.store_final(dst, decayed, now);
      const auto initcwnd =
          static_cast<std::uint32_t>(std::lround(decayed));
      const std::uint32_t initrwnd =
          config_.set_initrwnd ? std::max(config_.c_max, initcwnd) : 0;
      program_route(dst, initcwnd, initrwnd);
      ++stats_.staleness_decays;
    }
  }
}

// ------------------------------------------------------------------------

void RiptideAgent::poll_once() {
  const PollOutcome outcome = poll_once_impl();
  // The hook fires inside the poll's own event callback: nothing can run
  // between the poll body and the check, so oracles see the exact state
  // the poll left behind.
  if (post_poll_hook_) post_poll_hook_(*this, outcome);
}

PollOutcome RiptideAgent::poll_once_impl() {
  PollOutcome outcome;
  ++stats_.polls;
  const sim::Time now = sim_.now();

  // 0. Safety governor: host-wide health gates everything else. The
  // retransmit deltas are maintained every poll — including cooldown
  // polls — so the first poll after cooldown judges only the cooldown
  // window, not the incident that triggered the rollback.
  if (governor_.rollback_enabled()) {
    const std::uint64_t host_retrans = host_.total_retransmissions();
    const std::uint64_t host_packets = host_.stats().packets_sent;
    const std::uint64_t d_retrans = host_retrans - prev_host_retrans_;
    const std::uint64_t d_packets = host_packets - prev_host_packets_;
    prev_host_retrans_ = host_retrans;
    prev_host_packets_ = host_packets;
    const double fraction =
        d_packets > 0 ? static_cast<double>(d_retrans) /
                            static_cast<double>(d_packets)
                      : 0.0;
    const GovernorState pre = governor_.state();
    if (governor_.in_cooldown(now)) {
      ++stats_.governor_cooldown_polls;
      return outcome;
    }
    if (pre == GovernorState::kCooldown) {
      // in_cooldown just performed the expiry transition back to normal.
      trace_governor_state(pre, GovernorState::kNormal,
                           trace::GovernorCause::kRecovered, fraction, 0);
    }
    if (governor_.staged()) {
      const GovernorState before = governor_.state();
      switch (governor_.assess(d_retrans, d_packets, now)) {
        case StagedAction::kScaleDown:
          staged_scale_down(before, fraction);
          return outcome;
        case StagedAction::kSelectiveWithdraw:
          staged_selective_withdraw(before, fraction);
          return outcome;
        case StagedAction::kRollback:
          emergency_rollback(now, fraction, trace::GovernorCause::kThreshold);
          return outcome;
        case StagedAction::kNone:
          if (before != governor_.state()) {
            // A healthy window de-escalated the ladder back to normal.
            trace_governor_state(before, governor_.state(),
                                 trace::GovernorCause::kRecovered, fraction,
                                 0);
          }
          break;
      }
    } else if (governor_.should_rollback(d_retrans, d_packets, now)) {
      emergency_rollback(now, fraction, trace::GovernorCause::kThreshold);
      return outcome;
    }
  }

  // 0.5. Reconcile against the live routing table before acting on fresh
  // observations: drift since the last poll (externally deleted or
  // mangled routes, orphans) is detected and counted here, where the
  // programming pass below would otherwise silently paper over it.
  if (config_.reconcile_routes) {
    reconcile_route_table();
    outcome.reconciled = true;
  }

  // 1. Snapshot open connections. A failed poll is "no information", not
  // "no connections": skip folding *and* expiry — withdrawing routes
  // because the observer glitched would churn windows on healthy paths.
  std::vector<host::SocketInfo> snapshot;
  try {
    snapshot = stats_source_->poll();
  } catch (const PollError&) {
    ++stats_.polls_failed;
    return outcome;
  }
  outcome.snapshot_ok = true;

  // 2. Group by destination. Observations are collected into one flat
  // scratch buffer and stably sorted by destination, so each group is a
  // contiguous run handed to the combiner as a span — the former
  // map<Prefix, vector<Observation>> cost a node allocation plus a vector
  // per destination on every poll. The stable sort keeps snapshot order
  // within a destination, so combiner input order (and therefore float
  // summation order) is exactly what the map grouping produced.
  poll_scratch_.clear();
  for (const auto& info : snapshot) {
    if (info.state != tcp::TcpState::kEstablished) continue;
    ++stats_.connections_observed;
    poll_scratch_.push_back(
        {destination_key(info.tuple.remote_addr),
         Observation{static_cast<double>(info.cwnd_segments),
                     info.bytes_acked}});
  }
  std::stable_sort(poll_scratch_.begin(), poll_scratch_.end(),
                   [](const DestObservation& a, const DestObservation& b) {
                     return a.destination < b.destination;
                   });
  poll_observations_.clear();
  poll_observations_.reserve(poll_scratch_.size());
  for (const auto& d : poll_scratch_) poll_observations_.push_back(d.obs);

  // Retransmit-rate deltas for the staleness guard (empty when disabled).
  const auto deltas = retransmit_deltas(snapshot);

  // 3-4. Combine, fold history, clamp. Programming is deferred until all
  // destinations have folded so the governor's budget can be judged over
  // the whole table; the program sequence below runs in the same
  // ascending destination order this loop always has.
  std::vector<std::pair<net::Prefix, double>> decisions;
  decisions.reserve(poll_scratch_.size());
  for (std::size_t i = 0; i < poll_scratch_.size();) {
    const net::Prefix destination = poll_scratch_[i].destination;
    std::size_t j = i + 1;
    while (j < poll_scratch_.size() &&
           poll_scratch_[j].destination == destination) {
      ++j;
    }
    const std::span<const Observation> observations(
        poll_observations_.data() + i, j - i);
    i = j;
    const double observed = combiner_->combine(observations);
    const double folded =
        table_.fold(destination, observed, config_.alpha, now);
    double final_window = clamp_window(folded);
    // Operator cap (§V): external signals bound how aggressive we may be.
    bool capped = false;
    if (window_cap_segments_ > 0 &&
        final_window > static_cast<double>(window_cap_segments_)) {
      final_window = static_cast<double>(window_cap_segments_);
      capped = true;
    }
    table_.store_final(destination, final_window, now);
    decisions.emplace_back(destination, final_window);
    ++stats_.destinations_updated;
    if (auto* sink = trace::active()) {
      trace::TraceEvent ev;
      ev.at_ns = now.ns();
      ev.kind = trace::EventKind::kAgentDecision;
      ev.decision = {host_.address().value(),
                     destination.address().value(),
                     static_cast<std::uint8_t>(destination.length()),
                     static_cast<std::uint8_t>(capped),
                     static_cast<std::uint32_t>(observations.size()),
                     observed,
                     folded,
                     final_window};
      sink->emit(ev);
    }
  }

  // Governor budget: when the whole table wants more total initcwnd than
  // the host is allowed, enforcement follows the configured fairness —
  // proportional (every program this poll shrinks by budget/total) or
  // shed-newest (senior routes keep their windows; the freshest are
  // withdrawn until the total fits). The table keeps the unscaled learned
  // values either way — the budget caps what is *installed*, not what is
  // known.
  double scale = 1.0;
  std::map<net::Prefix, std::uint32_t, net::PrefixOrder> admissions;
  const bool shed_fairness = !config_.test_skip_budget_enforcement &&
                             governor_.config().budget_segments > 0 &&
                             governor_.config().budget_fairness ==
                                 BudgetFairness::kShedNewest;
  if (config_.test_skip_budget_enforcement) {
    // Chaos-search fault hook: the budget stays configured but is not
    // enforced, so the budget oracle can prove it catches the regression.
  } else if (shed_fairness) {
    admissions = budget_shed_admissions();
    if (!admissions.empty()) ++stats_.governor_budget_sheds;
  } else if (governor_.config().budget_segments > 0) {
    double total_desired = 0.0;
    for (const auto& [destination, state] : table_.entries()) {
      total_desired += state.final_window_segments;
    }
    scale = governor_.budget_scale(total_desired);
    if (scale < 1.0) ++stats_.governor_budget_scaledowns;
  }
  const bool shed_active = !admissions.empty();
  std::uint32_t shed_this_poll = 0;

  // 5. Program routes, still in ascending destination order.
  for (const auto& [destination, final_window] : decisions) {
    const double target = scale < 1.0 ? final_window * scale : final_window;
    auto initcwnd = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(std::lround(target)));
    bool budget_bound = scale < 1.0;
    trace::ProgramVerdict verdict = trace::ProgramVerdict::kProgrammed;
    if (shed_active) {
      const auto ait = admissions.find(destination);
      const std::uint32_t admit = ait != admissions.end() ? ait->second : 0;
      if (admit == 0) {
        // Shed: too junior for the budget. Any installed boost comes out;
        // the destination rides the default initial window until either
        // the budget frees up or its seniority grows.
        if (installed_.contains(destination) ||
            pending_ops_.contains(destination)) {
          trace_route(trace::RouteCause::kBudgetShed, destination, 0.0);
          withdraw_route(destination);
          ++stats_.governor_routes_budget_shed;
          ++shed_this_poll;
        }
        continue;
      }
      if (admit < initcwnd) {
        initcwnd = admit;
        budget_bound = true;
        verdict = trace::ProgramVerdict::kBudgetShrink;
      }
    }
    const std::uint32_t initrwnd =
        config_.set_initrwnd ? std::max(config_.c_max, initcwnd) : 0;
    if (const auto it = installed_.find(destination);
        it != installed_.end() &&
        governor_.within_hysteresis(it->second.initcwnd_segments, initcwnd) &&
        !(budget_bound && initcwnd < it->second.initcwnd_segments)) {
      ++stats_.governor_hysteresis_skips;
      trace_program(trace::ProgramVerdict::kHysteresisSkip, destination, scale,
                    initcwnd, initrwnd);
      continue;
    }
    trace_program(verdict, destination, scale, initcwnd, initrwnd);
    program_route(destination, initcwnd, initrwnd);
  }

  // The budget is host-wide: routes installed by earlier polls, whose
  // destinations saw no fresh samples this poll, must shrink too — the
  // decisions loop above never visits them, so without this sweep the
  // installed sum can stay over budget indefinitely. Shrinking to budget
  // is a safety action, not churn, so hysteresis does not apply. Collect
  // first: program_route mutates installed_.
  if (scale < 1.0) {
    std::vector<std::pair<net::Prefix, std::uint32_t>> shrink;
    for (const auto& [destination, metrics] : installed_) {
      const DestinationState* state = table_.find(destination);
      if (state == nullptr) continue;  // expiry below withdraws it
      const auto target = std::max<std::uint32_t>(
          1, static_cast<std::uint32_t>(
                 std::lround(state->final_window_segments * scale)));
      if (metrics.initcwnd_segments > target) {
        shrink.emplace_back(destination, target);
      }
    }
    for (const auto& [destination, initcwnd] : shrink) {
      const std::uint32_t initrwnd =
          config_.set_initrwnd ? std::max(config_.c_max, initcwnd) : 0;
      trace_program(trace::ProgramVerdict::kBudgetShrink, destination, scale,
                    initcwnd, initrwnd);
      program_route(destination, initcwnd, initrwnd);
    }
  }

  // Shed-newest is host-wide too: routes installed by earlier polls whose
  // destinations saw no fresh samples still count against the budget, so
  // they are shed or shrunk by the same admission set. Collect first:
  // program_route/withdraw_route mutate installed_.
  if (shed_active) {
    std::vector<net::Prefix> shed;
    std::vector<std::pair<net::Prefix, std::uint32_t>> shrink;
    for (const auto& [destination, metrics] : installed_) {
      const auto ait = admissions.find(destination);
      if (ait == admissions.end()) continue;  // expiry below withdraws it
      if (ait->second == 0) {
        shed.push_back(destination);
      } else if (metrics.initcwnd_segments > ait->second) {
        shrink.emplace_back(destination, ait->second);
      }
    }
    for (const auto& destination : shed) {
      trace_route(trace::RouteCause::kBudgetShed, destination, 0.0);
      withdraw_route(destination);
      ++stats_.governor_routes_budget_shed;
      ++shed_this_poll;
    }
    for (const auto& [destination, initcwnd] : shrink) {
      const std::uint32_t initrwnd =
          config_.set_initrwnd ? std::max(config_.c_max, initcwnd) : 0;
      trace_program(trace::ProgramVerdict::kBudgetShrink, destination, scale,
                    initcwnd, initrwnd);
      program_route(destination, initcwnd, initrwnd);
    }
    // Budget pressure is a governor decision even though the state machine
    // does not move: annotate the timeline so audits see the cause.
    trace_governor_state(governor_.state(), governor_.state(),
                         trace::GovernorCause::kBudget, 0.0, shed_this_poll);
  }

  // §V hardening: destinations retransmitting heavily under a learned
  // window get decayed or withdrawn, even if their current cwnds still
  // look healthy (the damage shows in loss recovery before it shows in
  // the window average).
  apply_staleness_guard(deltas, now);

  // 6. Expire stale destinations, restoring default windows.
  for (const auto& destination : table_.expire(now, config_.ttl)) {
    trace_route(trace::RouteCause::kExpired, destination, 0.0);
    withdraw_route(destination);
    ++stats_.routes_expired;
  }
  outcome.completed = true;
  return outcome;
}

void RiptideAgent::manual_rollback() {
  emergency_rollback(sim_.now(), 0.0, trace::GovernorCause::kManual);
}

// Seniority order for shedding decisions: a destination that has survived
// many poll rounds has earned its window; one first seen a poll or two ago
// has not. The table has no first-seen timestamp (the snapshot codec pins
// the record layout), so the update count is the seniority measure, with
// the last-refresh time and then the prefix order as deterministic
// tie-breaks.
std::map<net::Prefix, std::uint32_t, net::PrefixOrder>
RiptideAgent::budget_shed_admissions() const {
  std::map<net::Prefix, std::uint32_t, net::PrefixOrder> admitted;
  const std::uint32_t budget = governor_.config().budget_segments;
  struct Candidate {
    net::Prefix destination;
    std::uint32_t window;
    std::uint64_t updates;
    sim::Time last_updated;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(table_.size());
  std::uint64_t total = 0;
  for (const auto& [destination, state] : table_.entries()) {
    const auto window = std::max<std::uint32_t>(
        1,
        static_cast<std::uint32_t>(std::lround(state.final_window_segments)));
    candidates.push_back(
        {destination, window, state.updates, state.last_updated});
    total += window;
  }
  if (total <= budget) return admitted;  // empty = no enforcement needed
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.updates != b.updates) return a.updates > b.updates;
              if (a.last_updated != b.last_updated) {
                return a.last_updated < b.last_updated;
              }
              return net::PrefixOrder{}(a.destination, b.destination);
            });
  // Greedy whole-window admission, oldest first. The first window that no
  // longer fits gets whatever is left (a partial boost still beats the
  // default); everything junior to it is shed outright.
  std::uint32_t remaining = budget;
  for (const auto& candidate : candidates) {
    if (candidate.window <= remaining) {
      admitted[candidate.destination] = candidate.window;
      remaining -= candidate.window;
    } else {
      admitted[candidate.destination] = remaining;
      remaining = 0;
    }
  }
  return admitted;
}

void RiptideAgent::staged_scale_down(GovernorState from,
                                     double retrans_fraction) {
  // Stage 1: keep every route but halve (by kStageScaleFactor) what it
  // may burst. The learned table keeps the unscaled values: a healthy
  // window next poll reprograms them at full size. Collect first —
  // program_route mutates installed_.
  std::vector<std::pair<net::Prefix, std::uint32_t>> scaled;
  for (const auto& [destination, metrics] : installed_) {
    const auto target = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(
               std::lround(metrics.initcwnd_segments * kStageScaleFactor)));
    if (target < metrics.initcwnd_segments) {
      scaled.emplace_back(destination, target);
    }
  }
  for (const auto& [destination, initcwnd] : scaled) {
    const std::uint32_t initrwnd =
        config_.set_initrwnd ? std::max(config_.c_max, initcwnd) : 0;
    trace_program(trace::ProgramVerdict::kStageScaleDown, destination,
                  kStageScaleFactor, initcwnd, initrwnd);
    program_route(destination, initcwnd, initrwnd);
  }
  ++stats_.governor_stage_scaledowns;
  stats_.governor_routes_stage_scaled += scaled.size();
  trace_governor_state(from, governor_.state(),
                       trace::GovernorCause::kThreshold, retrans_fraction,
                       static_cast<std::uint32_t>(scaled.size()));
}

void RiptideAgent::staged_selective_withdraw(GovernorState from,
                                             double retrans_fraction) {
  // Stage 2: the scale-down was not enough — withdraw the newest
  // kStageWithdrawFraction of installed routes entirely (their learned
  // entries too, so the next poll re-learns instead of instantly
  // reprogramming the same window). Newest first: fresh routes are both
  // the least proven and the likeliest cause of a synchronized burst.
  struct Candidate {
    net::Prefix destination;
    std::uint64_t updates;
    sim::Time last_updated;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(installed_.size());
  for (const auto& [destination, metrics] : installed_) {
    const DestinationState* state = table_.find(destination);
    candidates.push_back({destination, state != nullptr ? state->updates : 0,
                          state != nullptr ? state->last_updated
                                           : sim::Time::zero()});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.updates != b.updates) return a.updates < b.updates;
              if (a.last_updated != b.last_updated) {
                return a.last_updated > b.last_updated;
              }
              return net::PrefixOrder{}(a.destination, b.destination);
            });
  const auto count = std::min<std::size_t>(
      candidates.size(),
      static_cast<std::size_t>(
          std::ceil(static_cast<double>(candidates.size()) *
                    kStageWithdrawFraction)));
  for (std::size_t i = 0; i < count; ++i) {
    const net::Prefix destination = candidates[i].destination;
    table_.erase(destination);
    trace_route(trace::RouteCause::kStageWithdraw, destination, 0.0);
    withdraw_route(destination);
  }
  ++stats_.governor_stage_withdrawals;
  stats_.governor_routes_stage_withdrawn += count;
  trace_governor_state(from, governor_.state(),
                       trace::GovernorCause::kThreshold, retrans_fraction,
                       static_cast<std::uint32_t>(count));
}

void RiptideAgent::emergency_rollback(sim::Time now, double retrans_fraction,
                                      trace::GovernorCause cause) {
  // Withdraw everything this process knows about or may yet act on:
  // learned entries, routes believed installed (the sets differ after
  // adoption, expiry races, or partial failures), and destinations with
  // in-flight retries. Clearing an absent route is a no-op at the host,
  // so the union is safe to sweep.
  std::vector<net::Prefix> targets;
  for (const auto& [destination, state] : table_.entries()) {
    targets.push_back(destination);
  }
  for (const auto& [destination, metrics] : installed_) {
    targets.push_back(destination);
  }
  for (const auto& [destination, op] : pending_ops_) {
    targets.push_back(destination);
  }
  std::sort(targets.begin(), targets.end(), net::PrefixOrder{});
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  for (const auto& destination : targets) {
    trace_route(trace::RouteCause::kRollback, destination, 0.0);
    withdraw_route(destination);
  }

  if (auto* sink = trace::active()) {
    trace::TraceEvent ev;
    ev.at_ns = now.ns();
    ev.kind = trace::EventKind::kAgentRollback;
    ev.rollback = {host_.address().value(),
                   static_cast<std::uint32_t>(targets.size())};
    sink->emit(ev);
  }

  stats_.governor_routes_rolled_back += targets.size();
  ++stats_.governor_rollbacks;
  table_ = ObservedTable{};
  seen_counters_.clear();
  const GovernorState from = governor_.state();
  if (governor_.arm_cooldown(now)) ++stats_.governor_storm_escalations;
  trace_governor_state(from, GovernorState::kCooldown, cause,
                       retrans_fraction,
                       static_cast<std::uint32_t>(targets.size()));
}

void RiptideAgent::reconcile_route_table() {
  // Pass 1: live learned-looking routes vs what we installed. Iterates a
  // snapshot of the table so repairs/withdrawals don't perturb the walk.
  for (const auto& entry : host_.routing_table().learned_routes()) {
    // A pending retry already carries the newest decision for this
    // destination; reconciling underneath it would race the retry timer.
    if (pending_ops_.contains(entry.prefix)) continue;
    const auto it = installed_.find(entry.prefix);
    if (it == installed_.end()) {
      // Not ours. If the table wants this destination, the next poll will
      // program it properly; otherwise it is an orphan — a learned-looking
      // route no running process owns — and stale windows must not
      // outlive their owner.
      if (table_.contains(entry.prefix)) continue;
      ++stats_.reconcile_orphaned;
      trace_route(trace::RouteCause::kReconcileOrphan, entry.prefix, 0.0);
      withdraw_route(entry.prefix);
      continue;
    }
    if (entry.metrics != it->second) {
      // Mangled in place (e.g. an operator's `ip route replace` fat
      // finger): reassert what we installed.
      ++stats_.reconcile_conflicting;
      ++stats_.reconcile_repaired;
      trace_route(trace::RouteCause::kReconcileConflict, entry.prefix,
                  static_cast<double>(it->second.initcwnd_segments));
      program_route(entry.prefix, it->second.initcwnd_segments,
                    it->second.initrwnd_segments);
    }
  }

  // Pass 2: routes we installed that vanished from the live table
  // (externally deleted). Collect first: program_route mutates installed_.
  std::vector<std::pair<net::Prefix, host::RouteMetrics>> missing;
  for (const auto& [destination, metrics] : installed_) {
    if (pending_ops_.contains(destination)) continue;
    if (host_.routing_table().find_route(destination) == nullptr) {
      missing.emplace_back(destination, metrics);
    }
  }
  for (const auto& [destination, metrics] : missing) {
    ++stats_.reconcile_repaired;
    trace_route(trace::RouteCause::kReconcileRepair, destination,
                static_cast<double>(metrics.initcwnd_segments));
    program_route(destination, metrics.initcwnd_segments,
                  metrics.initrwnd_segments);
  }
}

}  // namespace riptide::core
