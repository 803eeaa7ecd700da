#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/time.h"

// The one lexer behind the repo's scenario grammars (FaultPlan, hostile,
// policy, ChaosSpec) and riptide_sim's numeric flags: tokens that carry
// their byte offset, separator and key=value splitting, one error format,
// and one full-match rule per value type. Every malformed input lands on
// std::invalid_argument "<grammar>: <why> at byte N: '<token>'" — these
// grammars are fuzz surfaces and campaign logs point at the byte.
namespace riptide::lex {

// Times and durations in every grammar stay within [0, kMaxSeconds]: far
// inside the scheduler's 2^54 ns horizon, so no conversion can overflow.
inline constexpr double kMaxSeconds = 1e6;

// A slice of the full input plus the byte offset of its first character.
struct Token {
  std::string_view text;
  std::size_t offset = 0;

  Token sub(std::size_t pos,
            std::size_t count = std::string_view::npos) const {
    return {text.substr(pos, count), offset + pos};
  }
};

// The pieces of `token` between `sep` bytes; empty pieces are kept.
std::vector<Token> split(const Token& token, char sep);

// The whitespace-separated words of `token`; empty ones are dropped.
std::vector<Token> words(const Token& token);

// A grammar's name, bound to its readers so every error carries it.
struct Grammar {
  const char* name;

  [[noreturn]] void fail(std::string_view why, const Token& token) const;

  // "key=value" split at the first '='; the key must be nonempty.
  std::pair<Token, Token> key_value(const Token& token) const;

  // Full-match readers; each rejects trailing garbage and out-of-range
  // values. u64: decimal digits only. real: a finite decimal (sign,
  // digits, point, exponent; no hex, inf, nan or whitespace). seconds:
  // real() in [0, kMaxSeconds] as a sim::Time, then at least `min`.
  std::uint64_t u64(const Token& token, std::uint64_t min,
                    std::uint64_t max) const;
  double real(const Token& token, double min, double max) const;
  sim::Time seconds(const Token& token,
                    sim::Time min = sim::Time::zero()) const;
};

// Shortest decimal that real() reads back to the same double.
std::string format_double(double value);
std::string format_seconds(sim::Time t);

// One `key=value` setting of a config struct: how to read its value token
// and how to write it back in canonical form. A grammar built from these
// is one table that drives both its parser and its serializer.
template <typename Config>
struct Field {
  std::string_view key;
  std::function<void(const Grammar&, const Token&, Config&)> read;
  std::function<std::string(const Config&)> write;
};

template <typename Config, typename T>
Field<Config> u64_field(std::string_view key, T Config::*member,
                        std::uint64_t min, std::uint64_t max) {
  return {key,
          [=](const Grammar& g, const Token& value, Config& config) {
            config.*member = static_cast<T>(g.u64(value, min, max));
          },
          [=](const Config& config) {
            return std::to_string(config.*member);
          }};
}

template <typename Config>
Field<Config> real_field(std::string_view key, double Config::*member,
                         double min, double max) {
  return {key,
          [=](const Grammar& g, const Token& value, Config& config) {
            config.*member = g.real(value, min, max);
          },
          [=](const Config& config) {
            return format_double(config.*member);
          }};
}

template <typename Config>
Field<Config> seconds_field(std::string_view key, sim::Time Config::*member,
                            sim::Time min = sim::Time::zero()) {
  return {key,
          [=](const Grammar& g, const Token& value, Config& config) {
            config.*member = g.seconds(value, min);
          },
          [=](const Config& config) {
            return format_seconds(config.*member);
          }};
}

// Reads every `key=value` token of `pairs` into `config` through `table`.
// Unknown and repeated keys fail. Returns each key's value byte offset,
// for checks that span several keys.
template <typename Config>
std::map<std::string_view, std::size_t> read_fields(
    const Grammar& g, const std::vector<Field<Config>>& table,
    const std::vector<Token>& pairs, Config& config) {
  std::map<std::string_view, std::size_t> seen;
  for (const Token& pair : pairs) {
    const auto [key, value] = g.key_value(pair);
    const auto field =
        std::find_if(table.begin(), table.end(),
                     [&](const Field<Config>& f) { return f.key == key.text; });
    if (field == table.end()) g.fail("unknown key", key);
    if (!seen.emplace(key.text, value.offset).second) {
      g.fail("duplicate key", key);
    }
    field->read(g, value, config);
  }
  return seen;
}

}  // namespace riptide::lex
