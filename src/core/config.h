#pragma once

#include <cstdint>

#include "core/governor.h"
#include "sim/time.h"
#include "tcp/config.h"

namespace riptide::core {

// How per-destination observations are collapsed into one window value
// (paper §III-B "Combination Algorithm").
enum class CombinerKind {
  kAverage,          // paper default: mean of current windows
  kMax,              // aggressive: the most the path has carried
  kTrafficWeighted,  // conservative: weight windows by bytes transferred
};

// The granularity at which destinations are grouped and routes installed
// (paper §III-B "Destinations as Routes").
enum class Granularity {
  kHost,    // one /32 route per destination host
  kPrefix,  // one route per prefix (e.g. per PoP)
};

// Riptide's tunable parameters — Table I of the paper, plus the §III
// design-variation knobs.
struct RiptideConfig {
  // Weight applied to the *historical* value in the moving average; 1-alpha
  // goes to the newest observation. alpha = 0 disables history.
  double alpha = 0.5;

  // i_u: how often open-connection windows are polled. The paper's
  // evaluation uses 1 second.
  sim::Time update_interval = sim::Time::seconds(1);

  // t: entry time-to-live. With no fresh observations for this long, the
  // entry and its route are removed, restoring the default IW10. The
  // paper's deployment uses 90 s.
  sim::Time ttl = sim::Time::seconds(90);

  // c_max / c_min: clamp on the programmed window, in segments. The paper
  // settles on c_max = 100 (Fig 10 knee) and floors at the default of 10.
  std::uint32_t c_max = 100;
  std::uint32_t c_min = 10;

  CombinerKind combiner = CombinerKind::kAverage;

  Granularity granularity = Granularity::kHost;
  // Mask length for kPrefix grouping (e.g. 16 to treat a whole PoP as one
  // destination).
  int prefix_length = 16;

  // Also raise initrwnd on programmed routes so the peer's Riptide-sized
  // bursts fit in our advertised window (§III-C). The value installed is
  // max(c_max, programmed initcwnd).
  bool set_initrwnd = true;

  // Congestion-control regime stamped onto every route the agent programs
  // (consumed by connections at connect time, exactly like the windows).
  // kUnset — the default — leaves the host-wide TcpConfig in force, so the
  // agent's routes carry no CC opinion unless a policy asks for one.
  tcp::RouteCc route_cc = tcp::RouteCc::kUnset;

  // Staleness guard: a destination whose connections show an elevated
  // retransmit rate while a learned window is installed is on a path that
  // no longer supports that window (path change, loss burst). Each poll
  // where the destination's retransmit fraction crosses the threshold, the
  // learned window is decayed; at or below c_min the route is withdrawn
  // outright, restoring the default initial window (thresholds:
  // RiptideAgent::kStaleness*).
  bool staleness_guard = false;

  // How often the agent's learned state is checkpointed to a snapshot
  // store (harnesses read this to decide whether to attach an
  // AgentCheckpointer). Zero disables persistence entirely.
  sim::Time checkpoint_interval = sim::Time::zero();

  // Each poll, diff the host routing table against what this agent
  // believes it installed: repair routes an outside actor deleted or
  // mangled, withdraw learned-looking routes nobody owns.
  bool reconcile_routes = false;

  // The host-wide safety governor (budget, hysteresis, rollback, staged
  // ladder, storm backoff). Every default is off: a default governor
  // leaves the agent bit-identical to one without it.
  GovernorConfig governor{};

  // Test-only fault hook: silently skip the governor's budget enforcement
  // (both the proportional scale-down and the shed-newest admission pass)
  // while leaving the budget configured. Exists so the chaos-search suite
  // (src/chaos) can prove its budget oracle actually detects a governor
  // whose enforcement regressed; never set outside tests.
  bool test_skip_budget_enforcement = false;
};

}  // namespace riptide::core
