#include "cdn/spec_lexer.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace riptide::lex {

std::vector<Token> split(const Token& token, char sep) {
  std::vector<Token> pieces;
  std::size_t start = 0;
  for (;;) {
    const std::size_t end = token.text.find(sep, start);
    if (end == std::string_view::npos) {
      pieces.push_back(token.sub(start));
      return pieces;
    }
    pieces.push_back(token.sub(start, end - start));
    start = end + 1;
  }
}

std::vector<Token> words(const Token& token) {
  const auto space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  std::vector<Token> out;
  const std::string_view text = token.text;
  for (std::size_t i = 0; i < text.size();) {
    if (space(text[i])) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < text.size() && !space(text[j])) ++j;
    out.push_back(token.sub(i, j - i));
    i = j;
  }
  return out;
}

void Grammar::fail(std::string_view why, const Token& token) const {
  throw std::invalid_argument(std::string(name) + ": " + std::string(why) +
                              " at byte " + std::to_string(token.offset) +
                              ": '" + std::string(token.text) + "'");
}

std::pair<Token, Token> Grammar::key_value(const Token& token) const {
  const auto eq = token.text.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    fail("expected key=value", token);
  }
  return {token.sub(0, eq), token.sub(eq + 1)};
}

std::uint64_t Grammar::u64(const Token& token, std::uint64_t min,
                           std::uint64_t max) const {
  const std::string_view text = token.text;
  if (text.empty()) fail("empty number", token);
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec == std::errc::result_out_of_range) {
    fail("integer out of range", token);
  }
  if (ec != std::errc() || end != text.data() + text.size()) {
    fail("bad integer", token);
  }
  if (value < min || value > max) fail("integer out of range", token);
  return value;
}

double Grammar::real(const Token& token, double min, double max) const {
  if (token.text.empty()) fail("empty number", token);
  // The character set is the whole number rule: it leaves out hex,
  // inf/nan and whitespace, everything else strtod must consume in full.
  if (token.text.find_first_not_of("0123456789+-.eE") !=
      std::string_view::npos) {
    fail("bad number", token);
  }
  const std::string text(token.text);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) fail("bad number", token);
  if (errno != 0 || !(value >= min && value <= max)) {
    fail("number out of range", token);
  }
  return value;
}

sim::Time Grammar::seconds(const Token& token, sim::Time min) const {
  const sim::Time t = sim::Time::from_seconds(real(token, 0.0, kMaxSeconds));
  if (t < min) fail("time out of range", token);
  return t;
}

std::string format_double(double value) {
  char buf[64];
  for (int precision : {6, 9, 15, 17}) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

std::string format_seconds(sim::Time t) {
  return format_double(t.to_seconds());
}

}  // namespace riptide::lex
