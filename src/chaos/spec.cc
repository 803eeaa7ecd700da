#include "chaos/spec.h"

#include <stdexcept>
#include <string_view>
#include <vector>

#include "cdn/pops.h"
#include "cdn/spec_lexer.h"
#include "faults/harness.h"

namespace riptide::chaos {

namespace {

constexpr lex::Grammar kGrammar{"ChaosSpec::parse"};

// A key whose value is a whole sub-grammar string. A sub-grammar error is
// rethrown anchored at this spec's value offset, so a campaign log points
// into the chaos spec file, not into a string nobody can see.
template <typename T>
lex::Field<ChaosSpec> sub_grammar(std::string_view key, T ChaosSpec::*member,
                                  T (*parse)(const std::string&),
                                  std::string (*write)(const T&)) {
  return {key,
          [=](const lex::Grammar& g, const lex::Token& value, ChaosSpec& spec) {
            try {
              spec.*member = parse(std::string(value.text));
            } catch (const std::exception& err) {
              throw std::invalid_argument(
                  std::string(g.name) + ": " + std::string(key) + ": " +
                  err.what() + " (value starts at byte " +
                  std::to_string(value.offset) + ")");
            }
          },
          [=](const ChaosSpec& spec) { return write(spec.*member); }};
}

// The spec file grammar, in canonical key order.
const std::vector<lex::Field<ChaosSpec>>& fields() {
  using S = ChaosSpec;
  static const std::vector<lex::Field<S>> table = {
      lex::u64_field("pops", &S::pops, 2, 8),
      lex::u64_field("hosts", &S::hosts, 1, 8),
      lex::real_field("duration", &S::duration_s, 1.0, 600.0),
      lex::u64_field("seed", &S::seed, 0, UINT64_MAX),
      lex::real_field("wan_loss", &S::wan_loss, 0.0, 0.5),
      sub_grammar<policy::PolicySpec>("policy", &S::policy,
                                      policy::parse_policy, policy::to_string),
      sub_grammar<cdn::HostileConfig>("hostile", &S::hostile,
                                      cdn::parse_hostile_spec,
                                      cdn::to_spec_string),
      sub_grammar<faults::FaultPlan>("faults", &S::faults,
                                     faults::FaultPlan::parse,
                                     faults::to_spec_string),
      lex::u64_field("golden", &S::golden, 0, 1),
      {"break",
       [](const lex::Grammar& g, const lex::Token& value, S& spec) {
         if (!value.text.empty() && value.text != "budget") {
           g.fail("unknown break hook", value);
         }
         spec.break_hook = value.text;
       },
       [](const S& spec) { return spec.break_hook; }},
      lex::u64_field("budget", &S::budget_override, 0, 1'000'000),
  };
  return table;
}

}  // namespace

ChaosSpec ChaosSpec::golden_spec() {
  ChaosSpec spec;
  spec.golden = true;
  spec.pops = 4;
  spec.hosts = 1;
  spec.duration_s = 60.0;
  spec.seed = 42;
  spec.wan_loss = 2e-4;
  return spec;
}

bool ChaosSpec::needs_persistence() const {
  for (const auto& event : faults.events()) {
    if (event.kind == faults::FaultKind::kAgentCrash ||
        event.kind == faults::FaultKind::kSnapshotCorrupt) {
      return true;
    }
  }
  return false;
}

ChaosSpec ChaosSpec::parse(const std::string& text) {
  ChaosSpec spec;
  std::vector<lex::Token> lines;
  for (const lex::Token& line : lex::split({text, 0}, '\n')) {
    if (!line.text.empty() && line.text[0] != '#') lines.push_back(line);
  }
  const auto value_at = lex::read_fields(kGrammar, fields(), lines, spec);
  const auto offset_of = [&](std::string_view key) {
    const auto it = value_at.find(key);
    return it == value_at.end() ? std::size_t{0} : it->second;
  };

  // The golden shape is pinned, not configurable: a spec that says
  // golden=1 *is* the determinism-suite world (canonicalized here so the
  // shrinker and hand-edited files can't half-change it).
  if (spec.golden) {
    const std::uint64_t seed = spec.seed;
    spec = golden_spec();
    spec.seed = seed;
    return spec;
  }

  // Semantic cross-checks the sub-grammars can't do alone: every PoP /
  // host a sub-spec names must exist in this spec's world.
  if ((spec.hostile.kind == cdn::HostileKind::kIncast ||
       spec.hostile.kind == cdn::HostileKind::kCombined) &&
      spec.hostile.victim_pop >= spec.pops) {
    kGrammar.fail("hostile victim PoP out of range",
                  {std::to_string(spec.hostile.victim_pop),
                   offset_of("hostile")});
  }
  const int total_hosts = static_cast<int>(spec.pops) * spec.hosts;
  for (const auto& event : spec.faults.events()) {
    switch (event.kind) {
      case faults::FaultKind::kLinkDown:
      case faults::FaultKind::kLinkUp:
      case faults::FaultKind::kLinkFlap:
      case faults::FaultKind::kLossBurst:
      case faults::FaultKind::kRateChange:
      case faults::FaultKind::kDelayChange:
        if (event.pop_a >= spec.pops || event.pop_b >= spec.pops) {
          kGrammar.fail("fault link PoP out of range",
                        {std::to_string(event.pop_a) + "-" +
                             std::to_string(event.pop_b),
                         offset_of("faults")});
        }
        break;
      case faults::FaultKind::kAgentCrash:
      case faults::FaultKind::kSnapshotCorrupt:
      case faults::FaultKind::kRouteDrift:
        if (event.host_index >= total_hosts) {
          kGrammar.fail("fault host index out of range",
                        {std::to_string(event.host_index),
                         offset_of("faults")});
        }
        break;
      default:
        break;
    }
  }
  return spec;
}

std::string ChaosSpec::to_string() const {
  std::string out = "# riptide chaos spec v1\n";
  for (const auto& field : fields()) {
    out += std::string(field.key) + "=" + field.write(*this) + "\n";
  }
  return out;
}

cdn::ExperimentConfig ChaosSpec::to_config() const {
  cdn::ExperimentConfig config;
  if (golden) {
    // Bit-for-bit the golden_config() of tests/determinism_test.cc — the
    // fingerprint oracle compares against the suite's pinned CRC, so any
    // divergence here would be indistinguishable from a real regression.
    config.pop_specs = {
        {"lon", cdn::Continent::kEurope, {51.51, -0.13}},
        {"fra", cdn::Continent::kEurope, {50.11, 8.68}},
        {"nyc", cdn::Continent::kNorthAmerica, {40.71, -74.01}},
        {"tyo", cdn::Continent::kAsia, {35.68, 139.69}}};
    config.topology.hosts_per_pop = 1;
    config.topology.wan_loss_probability = 2e-4;
    config.topology.seed = seed;
    config.riptide_enabled = true;
    config.riptide.update_interval = sim::Time::seconds(1);
    config.riptide.c_max = 100;
    config.probe.interval = sim::Time::seconds(5);
    config.probe.idle_close = sim::Time::seconds(10);
    config.duration = sim::Time::seconds(60);
    config.cwnd_sample_interval = sim::Time::seconds(10);
    config.seed = seed;
    return config;
  }

  const auto& all_specs = cdn::default_pop_specs();
  config.pop_specs.assign(
      all_specs.begin(),
      all_specs.begin() + static_cast<std::ptrdiff_t>(pops));
  config.topology.hosts_per_pop = hosts;
  config.topology.wan_loss_probability = wan_loss;
  config.topology.seed = seed;
  config.seed = seed;
  config.duration = sim::Time::from_seconds(duration_s);
  config.riptide.update_interval = sim::Time::seconds(1);
  config.riptide.c_max = 100;
  config.probe.interval = sim::Time::seconds(5);
  config.probe.idle_close = sim::Time::seconds(10);
  config.cwnd_sample_interval = sim::Time::seconds(10);

  policy::apply_policy(config, policy);
  if (config.riptide_enabled) {
    // Reconciliation is always on in chaos runs: the route-consistency
    // oracle judges the table *after* the reconciler had its say, so a
    // drifted route that survives is a real repair failure, not a
    // feature left off.
    config.riptide.reconcile_routes = true;
    if (needs_persistence()) {
      config.riptide.checkpoint_interval = sim::Time::seconds(5);
    }
    if (budget_override > 0) {
      config.riptide.governor.budget_segments = budget_override;
    }
    if (break_hook == "budget") {
      config.riptide.test_skip_budget_enforcement = true;
    }
  }

  config.hostile = hostile;
  cdn::apply_shallow_buffer(hostile, config.topology.wan_queue_packets);

  if (!faults.empty()) {
    faults::FaultHarness::install(config, faults);
  }
  return config;
}

}  // namespace riptide::chaos
