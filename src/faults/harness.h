#pragma once

#include <memory>
#include <vector>

#include "cdn/experiment.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "faults/faulty.h"
#include "persist/checkpointer.h"
#include "persist/snapshot_store.h"

namespace riptide::faults {

// Glue between a FaultPlan and a cdn::Experiment. install() plants three
// factories on the config: every agent's actuator and `ss` surface get
// wrapped in the fault decorators (each with its own Rng forked from the
// experiment seed and the host address, so injection sequences are
// deterministic per host and independent of the workload), and the
// extension factory builds the harness itself — which discovers the
// decorators on the constructed agents, registers them with a
// FaultInjector, and arms the plan. The harness factory goes to the front
// of config.extension_factories, so the harness is built before any
// policy installer.
//
//   cdn::ExperimentConfig config = ...;
//   faults::FaultHarness::install(config, faults::FaultPlan::parse(spec));
//   cdn::Experiment experiment(config);
//   experiment.run();
//   auto* harness = faults::FaultHarness::from(experiment);
//
// Everything lives on the config by value/std::function, so configs remain
// copyable across sweep workers with no shared mutable state.
class FaultHarness : public cdn::Extension {
 public:
  // Wires the decorators and the plan into `config`. The plan may be
  // empty (decorators installed but inert) — useful for bit-identity
  // comparisons of the no-fault path.
  static void install(cdn::ExperimentConfig& config, FaultPlan plan);

  // The harness attached by install()'s extension factory, or null when
  // the experiment was built without one.
  static FaultHarness* from(const cdn::Experiment& experiment);

  FaultInjector& injector() { return *injector_; }
  const FaultInjector& injector() const { return *injector_; }

  // Decorator counters aggregated across every agent.
  FaultyActuatorStats actuator_totals() const;
  FaultyPollStats poll_totals() const;
  // Checkpointer counters aggregated across every agent (all zero when
  // config.riptide.checkpoint_interval was 0 and none were attached).
  persist::CheckpointerStats checkpointer_totals() const;

 private:
  FaultHarness(cdn::Experiment& experiment, FaultPlan plan);

  // When the experiment's RiptideConfig asks for checkpointing, the
  // harness owns one in-memory store + checkpointer per agent (in agent
  // order) and hands raw pointers to the injector's hooks.
  std::vector<std::unique_ptr<persist::MemorySnapshotStore>> stores_;
  std::vector<std::unique_ptr<persist::AgentCheckpointer>> checkpointers_;
  std::unique_ptr<FaultInjector> injector_;
};

}  // namespace riptide::faults
