// libFuzzer target for the FaultPlan spec grammar: every input either
// parses into a plan or is rejected with std::invalid_argument — any
// other escape (crash, different exception type, runaway allocation) is
// a finding. Accepted plans must also survive the canonical round trip
// the chaos shrinker relies on: parse(to_spec_string(plan)) == plan.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "faults/fault_plan.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  // Grammar inputs are short command lines; huge inputs only slow the
  // fuzzer down without reaching new states.
  if (size > 4096) return 0;
  const std::string spec(reinterpret_cast<const char*>(data), size);
  riptide::faults::FaultPlan plan;
  try {
    plan = riptide::faults::FaultPlan::parse(spec);
  } catch (const std::invalid_argument&) {
    return 0;  // The documented rejection path.
  }
  // Outside the handler: a canonical string that no longer parses escapes
  // as an uncaught exception, which is a finding too.
  const std::string canonical = riptide::faults::to_spec_string(plan);
  if (riptide::faults::FaultPlan::parse(canonical) != plan) {
    __builtin_trap();
  }
  return 0;
}
