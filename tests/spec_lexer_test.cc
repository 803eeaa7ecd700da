// The shared spec lexer (src/cdn/spec_lexer.h): token offsets, the one
// error format, the one number rule per type, and the fuzz-seed corpora
// of the FaultPlan and hostile/policy grammars decoded on every test run.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>

#include "cdn/hostile.h"
#include "cdn/spec_lexer.h"
#include "faults/fault_plan.h"
#include "policy/policy.h"

namespace riptide::lex {
namespace {

constexpr Grammar kTest{"Test::parse"};

std::string error_of(const auto& read) {
  try {
    read();
  } catch (const std::invalid_argument& err) {
    return err.what();
  }
  return "";
}

TEST(SpecLexerTest, SplitAndWordsKeepByteOffsets) {
  const std::string text = "a=1,,b = 2";
  const auto pieces = split({text, 0}, ',');
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0].text, "a=1");
  EXPECT_EQ(pieces[1].text, "");
  EXPECT_EQ(pieces[1].offset, 4u);
  EXPECT_EQ(pieces[2].offset, 5u);

  const auto w = words(pieces[2]);
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w[1].text, "=");
  EXPECT_EQ(w[1].offset, 7u);
  EXPECT_EQ(w[2].offset, 9u);
  EXPECT_TRUE(words({"  \t ", 3}).empty());
}

TEST(SpecLexerTest, KeyValueSplitsAtFirstEquals) {
  const auto [key, value] = kTest.key_value({"hostile=incast:victim=1", 10});
  EXPECT_EQ(key.text, "hostile");
  EXPECT_EQ(value.text, "incast:victim=1");
  EXPECT_EQ(value.offset, 18u);
  EXPECT_EQ(error_of([] { (void)kTest.key_value({"=3", 2}); }),
            "Test::parse: expected key=value at byte 2: '=3'");
  EXPECT_THROW((void)kTest.key_value({"novalue", 0}), std::invalid_argument);
}

TEST(SpecLexerTest, IntegersAreDecimalDigitsOnly) {
  EXPECT_EQ(kTest.u64({"42", 0}, 0, 100), 42u);
  EXPECT_EQ(kTest.u64({"18446744073709551615", 0}, 0, UINT64_MAX),
            UINT64_MAX);
  EXPECT_EQ(error_of([] { (void)kTest.u64({"12x", 5}, 0, 100); }),
            "Test::parse: bad integer at byte 5: '12x'");
  EXPECT_EQ(error_of([] { (void)kTest.u64({"101", 0}, 0, 100); }),
            "Test::parse: integer out of range at byte 0: '101'");
  for (const char* bad : {"", "-1", "+1", " 1", "1.0", "1e1", "0x10",
                          "18446744073709551616"}) {
    EXPECT_THROW((void)kTest.u64({bad, 0}, 0, UINT64_MAX),
                 std::invalid_argument)
        << bad;
  }
}

TEST(SpecLexerTest, RealsAreFiniteDecimals) {
  EXPECT_DOUBLE_EQ(kTest.real({"2.5", 0}, 0, 10), 2.5);
  EXPECT_DOUBLE_EQ(kTest.real({"-1e-3", 0}, -1, 1), -1e-3);
  EXPECT_DOUBLE_EQ(kTest.real({"+.5", 0}, 0, 1), 0.5);
  for (const char* bad : {"", "nan", "inf", "-inf", "INF", "0x10", " 1",
                          "1 ", "1e", "1e400", "1.5.2", "11"}) {
    EXPECT_THROW((void)kTest.real({bad, 0}, -10, 10), std::invalid_argument)
        << bad;
  }
}

TEST(SpecLexerTest, SecondsStayInsideTheHorizon) {
  EXPECT_EQ(kTest.seconds({"2.5", 0}), sim::Time::from_seconds(2.5));
  EXPECT_EQ(kTest.seconds({"1e6", 0}), sim::Time::seconds(1'000'000));
  for (const char* bad : {"-1", "1000001", "1e30", "inf"}) {
    EXPECT_THROW((void)kTest.seconds({bad, 0}), std::invalid_argument) << bad;
  }
  // A positive minimum catches values that round to zero nanoseconds.
  EXPECT_THROW((void)kTest.seconds({"1e-12", 0}, sim::Time::nanoseconds(1)),
               std::invalid_argument);
}

TEST(SpecLexerTest, FormatDoubleIsShortestExactDecimal) {
  EXPECT_EQ(format_double(0.05), "0.05");
  EXPECT_EQ(format_double(1e6), "1e+06");
  for (double v : {0.1 + 0.2, 1.0 / 3.0, 123456.789e-9, -0.0, 2e-9}) {
    EXPECT_EQ(kTest.real({format_double(v), 0}, -1, 1e6), v) << v;
  }
}

// Every committed fuzz seed either is rejected with std::invalid_argument
// or survives parse(to_string(x)) == x; the canonical string of an
// accepted seed must itself parse.
template <typename T>
void smoke_corpus(const char* dir_name, T (*parse)(const std::string&),
                  std::string (*to_string)(const T&)) {
  const std::filesystem::path dir =
      std::filesystem::path(RIPTIDE_CORPUS_DIR) / dir_name;
  ASSERT_TRUE(std::filesystem::exists(dir)) << dir;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    std::optional<T> parsed;
    try {
      parsed = parse(text);
    } catch (const std::invalid_argument&) {
      ++rejected;
      continue;
    }
    ++accepted;
    const std::string canonical = to_string(*parsed);
    EXPECT_EQ(*parsed, parse(canonical)) << entry.path();
    EXPECT_EQ(canonical, to_string(parse(canonical))) << entry.path();
  }
  EXPECT_GT(accepted, 0u) << dir;
  EXPECT_GT(rejected, 0u) << dir;
}

TEST(SpecCorpusTest, FaultPlanSeedsRoundTripOrReject) {
  smoke_corpus<faults::FaultPlan>("fault_plan", faults::FaultPlan::parse,
                                  faults::to_spec_string);
}

TEST(SpecCorpusTest, HostileSeedsRoundTripOrReject) {
  smoke_corpus<cdn::HostileConfig>("hostile_config", cdn::parse_hostile_spec,
                                   cdn::to_spec_string);
}

// The hostile_config corpus also seeds the policy grammar (one fuzz
// target drives both).
TEST(SpecCorpusTest, PolicySeedsRoundTripOrReject) {
  smoke_corpus<policy::PolicySpec>("hostile_config", policy::parse_policy,
                                   policy::to_string);
}

}  // namespace
}  // namespace riptide::lex
