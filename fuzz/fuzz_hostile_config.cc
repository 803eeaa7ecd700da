// libFuzzer target for the two user-facing config grammars added with the
// policy zoo: the hostile-scenario spec (parse_hostile_spec) and the
// initcwnd policy name (parse_policy). Every input either parses or is
// rejected with std::invalid_argument — any other escape (crash, another
// exception type, runaway allocation) is a finding. Accepted inputs of
// either grammar must survive the canonical round trip:
// parse(to_string(x)) == x.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "cdn/hostile.h"
#include "policy/policy.h"

namespace {

// An accepted value must come back equal from its canonical string. The
// re-parse runs outside the rejection handler, so a canonical string that
// no longer parses escapes as an uncaught exception: a finding too.
template <typename T>
void check(const std::string& text, T (*parse)(const std::string&),
           std::string (*to_string)(const T&)) {
  T value;
  try {
    value = parse(text);
  } catch (const std::invalid_argument&) {
    return;  // The documented rejection path.
  }
  if (!(parse(to_string(value)) == value)) __builtin_trap();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  // Both grammars are short command-line tokens; huge inputs only slow
  // the fuzzer down without reaching new states.
  if (size > 1024) return 0;
  const std::string text(reinterpret_cast<const char*>(data), size);
  check<riptide::cdn::HostileConfig>(text, riptide::cdn::parse_hostile_spec,
                                     riptide::cdn::to_spec_string);
  check<riptide::policy::PolicySpec>(text, riptide::policy::parse_policy,
                                     riptide::policy::to_string);
  return 0;
}
