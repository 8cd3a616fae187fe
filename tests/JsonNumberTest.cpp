//===- tests/JsonNumberTest.cpp - JSON number lexing and locale safety ----===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
// Two regressions pinned here:
//
// 1. The number lexer used to accept any run of digit/./e/+/- characters
//    and hand it to strtod — "1-2" parsed as 1, "1e+" as 1, "--" crashed
//    through as 0. It now lexes exactly the RFC 8259 grammar and carries
//    the offending byte position in the error.
//
// 2. Conversion used std::strtod, which honors LC_NUMERIC: under a
//    comma-decimal locale (de_DE, fr_FR, ...) "1.5" silently truncated to
//    1.0 — a wrong bench baseline, a wrong gate verdict. Conversion is now
//    locale-independent (std::from_chars, with a classic-locale stream
//    fallback for toolchains without floating-point from_chars).
//
// Next to them, support::jsonEscape (the one string escaper behind every
// JSON writer in the repo) must round-trip quotes, backslashes and every
// control character through this parser.
//
//===----------------------------------------------------------------------===//

#include "sampletrack/support/Json.h"

#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <string>

using namespace sampletrack;
using support::JsonValue;

namespace {

double parseNumber(const std::string &Text) {
  JsonValue V;
  std::string Err;
  EXPECT_TRUE(JsonValue::parse(Text, V, &Err)) << Text << ": " << Err;
  EXPECT_TRUE(V.isNumber()) << Text;
  return V.Number;
}

std::string parseError(const std::string &Text) {
  JsonValue V;
  std::string Err;
  EXPECT_FALSE(JsonValue::parse(Text, V, &Err))
      << "'" << Text << "' should be rejected";
  return Err;
}

} // namespace

TEST(JsonNumber, AcceptsTheJsonGrammar) {
  EXPECT_EQ(parseNumber("0"), 0.0);
  EXPECT_EQ(parseNumber("-0"), 0.0);
  EXPECT_EQ(parseNumber("123"), 123.0);
  EXPECT_EQ(parseNumber("-17"), -17.0);
  EXPECT_EQ(parseNumber("1.5"), 1.5);
  EXPECT_EQ(parseNumber("0.0625"), 0.0625);
  EXPECT_EQ(parseNumber("-2.75e-3"), -2.75e-3);
  EXPECT_EQ(parseNumber("1E+10"), 1e10);
  EXPECT_EQ(parseNumber("9e2"), 900.0);
  // Inside containers too (the lexer must stop at the right byte).
  JsonValue V;
  std::string Err;
  ASSERT_TRUE(JsonValue::parse("[1.25, -3, 4e1]", V, &Err)) << Err;
  ASSERT_EQ(V.Array.size(), 3u);
  EXPECT_EQ(V.Array[0].Number, 1.25);
  EXPECT_EQ(V.Array[1].Number, -3.0);
  EXPECT_EQ(V.Array[2].Number, 40.0);
}

TEST(JsonNumber, RejectsWhatTheOldLexerSwallowed) {
  // Each of these slid through the old any-of-[0-9.eE+-] scan.
  parseError("1-2");  // Stray '-' after a complete number.
  parseError("1+1");
  parseError("1e+");  // Exponent with no digits.
  parseError("1e");
  parseError("1.");   // Decimal point with no fraction digits.
  parseError(".5");   // No integer part.
  parseError("+1");   // JSON forbids a leading plus.
  parseError("01");   // Leading zeros.
  parseError("00");
  parseError("-");    // Sign alone.
  parseError("--1");
  parseError("1.2.3");
  parseError("1e2e3");
}

TEST(JsonNumber, ErrorsCarryBytePositions) {
  EXPECT_NE(parseError("[1, 1e+]").find("(at byte"), std::string::npos);
  EXPECT_NE(parseError("01").find("(at byte"), std::string::npos);
  // The position points into the bad token, not at byte 0.
  std::string Err = parseError("{\"x\": 1.}");
  EXPECT_NE(Err.find("(at byte"), std::string::npos) << Err;
  EXPECT_EQ(Err.find("(at byte 0)"), std::string::npos) << Err;
}

TEST(JsonNumber, ParsesIndependentlyOfLcNumeric) {
  // Force a comma-decimal locale if the host has one installed; the parse
  // result must not change. (strtod under de_DE reads "1.5" as 1.0.)
  const char *Candidates[] = {"de_DE.UTF-8", "de_DE.utf8", "de_DE",
                              "fr_FR.UTF-8", "fr_FR.utf8", "fr_FR",
                              "es_ES.UTF-8", "it_IT.UTF-8"};
  const char *Old = std::setlocale(LC_NUMERIC, nullptr);
  std::string Saved = Old ? Old : "C";
  const char *Forced = nullptr;
  for (const char *Cand : Candidates)
    if (std::setlocale(LC_NUMERIC, Cand)) {
      Forced = Cand;
      break;
    }
  if (!Forced)
    GTEST_SKIP() << "no comma-decimal locale installed on this host; "
                    "grammar coverage above still applies";
  // Sanity: the locale really uses ',' — otherwise the exercise is moot.
  struct lconv *Lc = std::localeconv();
  bool CommaDecimal = Lc && Lc->decimal_point && Lc->decimal_point[0] == ',';
  double Got = parseNumber("1.5");
  double GotExp = parseNumber("2.5e-1");
  std::setlocale(LC_NUMERIC, Saved.c_str());
  if (!CommaDecimal)
    GTEST_SKIP() << "locale " << Forced << " does not use ',' decimals";
  EXPECT_EQ(Got, 1.5) << "number parse truncated under " << Forced;
  EXPECT_EQ(GotExp, 0.25);
}

TEST(JsonNumber, DocumentsStillRoundTrip) {
  // A shape like the BENCH_*.json rows this parser actually feeds.
  const char *Doc = "{\"bench\": \"fig5b\", \"scale\": 0.25, "
                    "\"rows\": [{\"ns\": 12693491, \"rate\": 0.003}]}";
  JsonValue V;
  std::string Err;
  ASSERT_TRUE(JsonValue::parse(Doc, V, &Err)) << Err;
  EXPECT_EQ(V.getNumber("scale", -1), 0.25);
  const JsonValue *Rows = V.get("rows");
  ASSERT_NE(Rows, nullptr);
  ASSERT_EQ(Rows->Array.size(), 1u);
  EXPECT_EQ(Rows->Array[0].getNumber("ns", 0), 12693491.0);
  EXPECT_EQ(Rows->Array[0].getNumber("rate", 0), 0.003);
}

TEST(JsonEscape, EveryControlCharacterRoundTripsThroughTheParser) {
  std::string Raw = "quote\" backslash\\ slash/ ";
  for (int C = 0; C < 0x20; ++C)
    Raw.push_back(static_cast<char>(C));
  Raw += "\x7f end";
  const std::string Escaped = support::jsonEscape(Raw);
  for (char C : Escaped)
    EXPECT_GE(static_cast<unsigned char>(C), 0x20u) << "raw control byte";
  EXPECT_NE(Escaped.find("\\u0001"), std::string::npos) << Escaped;
  EXPECT_NE(Escaped.find("\\n"), std::string::npos) << Escaped;
  JsonValue V;
  std::string Err;
  ASSERT_TRUE(JsonValue::parse("\"" + Escaped + "\"", V, &Err)) << Err;
  ASSERT_TRUE(V.isString());
  EXPECT_EQ(V.Str, Raw);
}
