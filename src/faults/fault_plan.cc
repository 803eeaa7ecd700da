#include "faults/fault_plan.h"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "cdn/spec_lexer.h"

namespace riptide::faults {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkDown: return "link-down";
    case FaultKind::kLinkUp: return "link-up";
    case FaultKind::kLinkFlap: return "link-flap";
    case FaultKind::kLossBurst: return "loss-burst";
    case FaultKind::kRateChange: return "rate-change";
    case FaultKind::kDelayChange: return "delay-change";
    case FaultKind::kActuatorFail: return "actuator-fail";
    case FaultKind::kPollFail: return "poll-fail";
    case FaultKind::kPollPartial: return "poll-partial";
    case FaultKind::kAgentCrash: return "agent-crash";
    case FaultKind::kSnapshotCorrupt: return "snapshot-corrupt";
    case FaultKind::kRouteDrift: return "route-drift";
  }
  return "unknown";
}

namespace {

FaultEvent event(sim::Time at, FaultKind kind, std::size_t a = 0,
                 std::size_t b = 0) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = kind;
  ev.pop_a = a;
  ev.pop_b = b;
  return ev;
}

}  // namespace

FaultPlan& FaultPlan::link_down(sim::Time at, std::size_t a, std::size_t b) {
  return add(event(at, FaultKind::kLinkDown, a, b));
}

FaultPlan& FaultPlan::link_up(sim::Time at, std::size_t a, std::size_t b) {
  return add(event(at, FaultKind::kLinkUp, a, b));
}

FaultPlan& FaultPlan::link_flap(sim::Time at, std::size_t a, std::size_t b,
                                sim::Time period, int transitions) {
  FaultEvent ev = event(at, FaultKind::kLinkFlap, a, b);
  ev.duration = period;
  ev.count = transitions;
  return add(ev);
}

FaultPlan& FaultPlan::loss_burst(sim::Time at, std::size_t a, std::size_t b,
                                 double probability, sim::Time duration) {
  FaultEvent ev = event(at, FaultKind::kLossBurst, a, b);
  ev.value = probability;
  ev.duration = duration;
  return add(ev);
}

FaultPlan& FaultPlan::rate_factor(sim::Time at, std::size_t a, std::size_t b,
                                  double factor, sim::Time duration) {
  FaultEvent ev = event(at, FaultKind::kRateChange, a, b);
  ev.value = factor;
  ev.duration = duration;
  return add(ev);
}

FaultPlan& FaultPlan::extra_delay(sim::Time at, std::size_t a, std::size_t b,
                                  double extra_ms, sim::Time duration) {
  FaultEvent ev = event(at, FaultKind::kDelayChange, a, b);
  ev.value = extra_ms;
  ev.duration = duration;
  return add(ev);
}

FaultPlan& FaultPlan::actuator_failures(sim::Time at, double probability,
                                        sim::Time duration) {
  FaultEvent ev = event(at, FaultKind::kActuatorFail);
  ev.value = probability;
  ev.duration = duration;
  return add(ev);
}

FaultPlan& FaultPlan::poll_failures(sim::Time at, double probability,
                                    sim::Time duration) {
  FaultEvent ev = event(at, FaultKind::kPollFail);
  ev.value = probability;
  ev.duration = duration;
  return add(ev);
}

FaultPlan& FaultPlan::poll_partial(sim::Time at, double drop_fraction,
                                   sim::Time duration) {
  FaultEvent ev = event(at, FaultKind::kPollPartial);
  ev.value = drop_fraction;
  ev.duration = duration;
  return add(ev);
}

FaultPlan& FaultPlan::agent_crash(sim::Time at, int host_index,
                                  sim::Time downtime, bool warm,
                                  bool flush_routes) {
  FaultEvent ev = event(at, FaultKind::kAgentCrash);
  ev.host_index = host_index;
  ev.duration = downtime;
  ev.warm = warm;
  ev.flush_routes = flush_routes;
  return add(ev);
}

FaultPlan& FaultPlan::snapshot_corrupt(sim::Time at, int host_index,
                                       std::size_t byte_offset) {
  FaultEvent ev = event(at, FaultKind::kSnapshotCorrupt);
  ev.host_index = host_index;
  ev.value = static_cast<double>(byte_offset);
  return add(ev);
}

FaultPlan& FaultPlan::route_drift(sim::Time at, int host_index,
                                  double delete_fraction,
                                  double mangle_fraction) {
  FaultEvent ev = event(at, FaultKind::kRouteDrift);
  ev.host_index = host_index;
  ev.value = delete_fraction;
  ev.value2 = mangle_fraction;
  return add(ev);
}

namespace {

constexpr lex::Grammar kGrammar{"FaultPlan::parse"};

// The shape of one action argument: how its token reads into (and writes
// back out of) FaultEvent fields.
enum class Arg : std::uint8_t {
  kLink,         // "A-B" PoP pair -> pop_a, pop_b
  kHost,         // agent index or -1 (all) -> host_index
  kProbability,  // [0, 1] -> value, or value2 when value is taken
  kFactor,       // positive rate multiplier -> value
  kMillis,       // extra delay in ms -> value
  kByteOffset,   // snapshot byte offset -> value
  kSeconds,      // -> duration
  kCount,        // positive flap transitions -> count
  kCrashMode,    // warm | cold | reboot-warm | reboot-cold
};

struct Action {
  std::string_view name;
  FaultKind kind;
  std::vector<Arg> args;
};

// The action grammar: one row per FaultKind, driving parse and
// to_spec_string alike.
const std::vector<Action>& actions() {
  static const std::vector<Action> table = {
      {"down", FaultKind::kLinkDown, {Arg::kLink}},
      {"up", FaultKind::kLinkUp, {Arg::kLink}},
      {"flap", FaultKind::kLinkFlap, {Arg::kLink, Arg::kSeconds, Arg::kCount}},
      {"loss", FaultKind::kLossBurst,
       {Arg::kLink, Arg::kProbability, Arg::kSeconds}},
      {"rate", FaultKind::kRateChange,
       {Arg::kLink, Arg::kFactor, Arg::kSeconds}},
      {"delay", FaultKind::kDelayChange,
       {Arg::kLink, Arg::kMillis, Arg::kSeconds}},
      {"actuator-fail", FaultKind::kActuatorFail,
       {Arg::kProbability, Arg::kSeconds}},
      {"poll-fail", FaultKind::kPollFail, {Arg::kProbability, Arg::kSeconds}},
      {"poll-partial", FaultKind::kPollPartial,
       {Arg::kProbability, Arg::kSeconds}},
      {"crash", FaultKind::kAgentCrash,
       {Arg::kHost, Arg::kSeconds, Arg::kCrashMode}},
      {"snap-corrupt", FaultKind::kSnapshotCorrupt,
       {Arg::kHost, Arg::kByteOffset}},
      {"route-drift", FaultKind::kRouteDrift,
       {Arg::kHost, Arg::kProbability, Arg::kProbability}},
  };
  return table;
}

// Crash modes by (warm, flush_routes); reboots also flush learned routes.
constexpr std::string_view kCrashModes[2][2] = {{"cold", "reboot-cold"},
                                                {"warm", "reboot-warm"}};

// An action's first real argument lives in value, its second in value2.
template <typename Event>
auto& real_slot(Event& ev, int n) {
  return n == 0 ? ev.value : ev.value2;
}

void read_arg(Arg arg, const lex::Token& tok, FaultEvent& ev, int& reals) {
  constexpr std::uint64_t kMaxPop = 1023;  // as the hostile victim PoP
  constexpr double kMax = std::numeric_limits<double>::max();
  switch (arg) {
    case Arg::kLink: {
      const auto dash = tok.text.find('-');
      if (dash == std::string_view::npos || dash == 0 ||
          dash + 1 >= tok.text.size()) {
        kGrammar.fail("bad link (want A-B)", tok);
      }
      ev.pop_a = kGrammar.u64(tok.sub(0, dash), 0, kMaxPop);
      ev.pop_b = kGrammar.u64(tok.sub(dash + 1), 0, kMaxPop);
      if (ev.pop_a == ev.pop_b) {
        kGrammar.fail("bad link (identical endpoints)", tok);
      }
      break;
    }
    case Arg::kHost:
      ev.host_index = tok.text == "-1"
                          ? -1
                          : static_cast<int>(kGrammar.u64(tok, 0, INT_MAX));
      break;
    case Arg::kProbability:
      real_slot(ev, reals++) = kGrammar.real(tok, 0.0, 1.0);
      break;
    case Arg::kFactor:  // min(): the smallest positive value real() reads
      real_slot(ev, reals++) =
          kGrammar.real(tok, std::numeric_limits<double>::min(), kMax);
      break;
    case Arg::kMillis:  // applied as a time, so bounded like one
      real_slot(ev, reals++) =
          kGrammar.real(tok, 0.0, lex::kMaxSeconds * 1e3);
      break;
    case Arg::kByteOffset:
      // Bounded so the offset survives its round trip through a double.
      real_slot(ev, reals++) =
          static_cast<double>(kGrammar.u64(tok, 0, std::uint64_t{1} << 53));
      break;
    case Arg::kSeconds:
      ev.duration = kGrammar.seconds(tok);
      break;
    case Arg::kCount:
      ev.count = static_cast<int>(kGrammar.u64(tok, 1, INT_MAX));
      break;
    case Arg::kCrashMode:
      for (bool warm : {false, true}) {
        for (bool flush : {false, true}) {
          if (tok.text == kCrashModes[warm][flush]) {
            ev.warm = warm;
            ev.flush_routes = flush;
            return;
          }
        }
      }
      kGrammar.fail(
          "crash mode must be 'warm', 'cold', 'reboot-warm' or 'reboot-cold'",
          tok);
  }
}

std::string write_arg(Arg arg, const FaultEvent& ev, int& reals) {
  switch (arg) {
    case Arg::kLink:
      return std::to_string(ev.pop_a) + "-" + std::to_string(ev.pop_b);
    case Arg::kHost:
      return std::to_string(ev.host_index);
    case Arg::kProbability:
    case Arg::kFactor:
    case Arg::kMillis:
      return lex::format_double(real_slot(ev, reals++));
    case Arg::kByteOffset:
      return std::to_string(
          static_cast<std::size_t>(real_slot(ev, reals++)));
    case Arg::kSeconds:
      return lex::format_seconds(ev.duration);
    case Arg::kCount:
      return std::to_string(ev.count);
    case Arg::kCrashMode:
      return std::string(kCrashModes[ev.warm][ev.flush_routes]);
  }
  return "";
}

}  // namespace

std::string to_spec_string(const FaultPlan& plan) {
  std::string out;
  for (const FaultEvent& ev : plan.events()) {
    const auto action =
        std::find_if(actions().begin(), actions().end(),
                     [&](const Action& a) { return a.kind == ev.kind; });
    if (!out.empty()) out += "; ";
    out += '@';
    out += lex::format_seconds(ev.at);
    out += ' ';
    out += action->name;
    int reals = 0;
    for (Arg arg : action->args) {
      out += ' ';
      out += write_arg(arg, ev, reals);
    }
  }
  return out;
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  for (const lex::Token& fragment : lex::split({spec, 0}, ';')) {
    const std::vector<lex::Token> tok = lex::words(fragment);
    if (tok.empty()) continue;  // empty fragment (trailing ';', blank spec)

    if (tok[0].text.size() < 2 || tok[0].text[0] != '@') {
      kGrammar.fail("expected '@SECONDS' to lead the event", tok[0]);
    }
    FaultEvent ev;
    ev.at = kGrammar.seconds(tok[0].sub(1));
    if (tok.size() < 2) kGrammar.fail("missing action", tok[0]);
    const lex::Token& name = tok[1];
    const auto action =
        std::find_if(actions().begin(), actions().end(),
                     [&](const Action& a) { return a.name == name.text; });
    if (action == actions().end()) kGrammar.fail("unknown action", name);
    const std::size_t n = action->args.size();
    if (tok.size() != 2 + n) {
      kGrammar.fail(std::string("'").append(name.text) + "' takes " +
                        std::to_string(n) + " argument(s)",
                    tok.size() > 2 + n ? tok[2 + n] : name);
    }
    ev.kind = action->kind;
    int reals = 0;
    for (std::size_t i = 0; i < n; ++i) {
      read_arg(action->args[i], tok[2 + i], ev, reals);
    }
    plan.add(ev);
  }
  return plan;
}

}  // namespace riptide::faults
