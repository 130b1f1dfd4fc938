// Tests for the determinism-and-protocol linter (src/lint): the lexer's
// hard cases, zone classification, per-rule positive/negative fixtures, the
// suppression contract, and the rule catalog.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lint/lexer.hpp"
#include "lint/rules.hpp"
#include "lint/selftest.hpp"

namespace lint = lktm::lint;

using lint::Finding;
using lint::lexFile;
using lint::lintSource;
using lint::Tok;
using lint::Zone;

namespace {

std::vector<std::string> identTexts(const lint::SourceFile& sf) {
  std::vector<std::string> out;
  for (const lint::Token& t : sf.tokens) {
    if (t.kind == Tok::Ident) out.push_back(t.text);
  }
  return out;
}

std::size_t countRule(const std::vector<Finding>& fs, const std::string& rule,
                      bool suppressed) {
  std::size_t n = 0;
  for (const Finding& f : fs) {
    n += (f.rule == rule && f.suppressed == suppressed) ? 1 : 0;
  }
  return n;
}

}  // namespace

// ------------------------------------------------------------------- lexer

TEST(LintLexer, RawStringIsOneOpaqueToken) {
  const auto sf = lexFile(
      "const char* s = R\"x(rand() and \"quotes\" and steady_clock)x\";\n"
      "int after = 0;\n");
  std::size_t strs = 0;
  for (const auto& t : sf.tokens) {
    if (t.kind == Tok::Str) {
      ++strs;
      EXPECT_EQ(t.text, "rand() and \"quotes\" and steady_clock");
      EXPECT_EQ(t.line, 1u);
    }
  }
  EXPECT_EQ(strs, 1u);
  const auto idents = identTexts(sf);
  // Nothing inside the raw string leaks out as an identifier.
  for (const auto& i : idents) {
    EXPECT_NE(i, "rand");
    EXPECT_NE(i, "steady_clock");
  }
  EXPECT_EQ(idents.back(), "after");
}

TEST(LintLexer, BlockCommentSpansLinesAndTracksLineNumbers) {
  const auto sf = lexFile(
      "int before = 1;\n"
      "/* contains rand()\n"
      "   and steady_clock\n"
      "   across lines */\n"
      "int after = 2;\n");
  const auto idents = identTexts(sf);
  EXPECT_EQ(idents, (std::vector<std::string>{"int", "before", "int", "after"}));
  // The token after the comment is attributed to its own line, not the
  // comment's start line.
  EXPECT_EQ(sf.tokens.back().line, 5u);
}

TEST(LintLexer, LineContinuationSplicesPreprocessorDirective) {
  const auto sf = lexFile(
      "#define WIDE(x) \\\n"
      "  ((x) + offset)\n"
      "int code = 0;\n");
  bool sawOffset = false;
  for (const auto& t : sf.tokens) {
    if (t.text == "offset") {
      sawOffset = true;
      // The spliced continuation still counts as part of the directive.
      EXPECT_TRUE(t.preproc);
      EXPECT_EQ(t.line, 2u);
    }
    if (t.text == "code") {
      EXPECT_FALSE(t.preproc);
    }
  }
  EXPECT_TRUE(sawOffset);
}

TEST(LintLexer, StringEmbeddedKeywordsStayStrings) {
  const auto sf = lexFile(
      "const char* a = \"calls rand() and time(nullptr)\";\n"
      "char b = '\\\"';\n");
  for (const auto& i : identTexts(sf)) {
    EXPECT_NE(i, "rand");
    EXPECT_NE(i, "time");
  }
}

TEST(LintLexer, DigitSeparatorsDoNotOpenCharLiterals) {
  const auto sf = lexFile("long n = 1'000'000; int m = 2;\n");
  ASSERT_GE(sf.tokens.size(), 4u);
  bool sawNumber = false;
  for (const auto& t : sf.tokens) {
    if (t.kind == Tok::Number && t.text == "1'000'000") sawNumber = true;
    EXPECT_NE(t.kind, Tok::CharLit);
  }
  EXPECT_TRUE(sawNumber);
}

TEST(LintLexer, DirectiveParsedFromBlockComment) {
  const auto sf = lexFile(
      "/* preamble\n"
      "   lktm-lint: allow(no-wall-clock,no-unseeded-randomness) -- why not\n"
      "*/\n"
      "int x = 0;\n");
  ASSERT_EQ(sf.suppressions.size(), 1u);
  const auto& s = sf.suppressions[0];
  EXPECT_EQ(s.rules,
            (std::vector<std::string>{"no-wall-clock", "no-unseeded-randomness"}));
  EXPECT_EQ(s.reason, "why not");
  EXPECT_EQ(s.firstLine, 1u);
  EXPECT_EQ(s.lastLine, 3u);
}

TEST(LintLexer, BacktickQuotedDocIsNotADirective) {
  const auto sf = lexFile(
      "// suppress with `lktm-lint: allow(no-wall-clock) -- reason` comments\n"
      "int x = 0;\n");
  EXPECT_TRUE(sf.suppressions.empty());
}

// ------------------------------------------------------------------- zones

TEST(LintZones, PathClassification) {
  for (const char* det :
       {"src/sim/engine.cpp", "src/coherence/directory.cpp", "src/core/a.hpp",
        "src/cpu/core.cpp", "src/mem/mshr.cpp", "src/noc/mesh.cpp",
        "src/runtime/backends/lockiller.cpp", "src/runtime/backends/tl2.cpp",
        "src/workloads/micro.cpp", "src/workloads/db_traffic.cpp",
        "src/workloads/zipfian.cpp", "src/verify/checker.cpp"}) {
    EXPECT_EQ(lint::zoneForPath(det), Zone::Deterministic) << det;
  }
  for (const char* host :
       {"src/config/runner.cpp", "src/stats/registry.cpp", "src/lint/rules.cpp",
        "tools/lktm_sweep.cpp", "tests/test_sweep.cpp", "bench/fig1.cpp",
        "examples/demo.cpp"}) {
    EXPECT_EQ(lint::zoneForPath(host), Zone::Host) << host;
  }
  EXPECT_STREQ(toString(Zone::Deterministic), "deterministic");
  EXPECT_STREQ(toString(Zone::Host), "host");
}

// ----------------------------------------------------------------- fixtures

// Every built-in seeded-violation fixture (one positive plant + one clean
// twin per rule, plus suppression variants) must behave.
TEST(LintRules, SelfTestFixturesBehave) {
  for (const auto& c : lint::selfTestCases()) {
    const std::vector<Finding> findings = lintSource(c.relPath, c.source);
    std::size_t hits = 0;
    std::size_t unsuppressed = 0;
    for (const Finding& f : findings) {
      if (f.rule != c.rule) continue;
      ++hits;
      unsuppressed += f.suppressed ? 0 : 1;
    }
    if (!c.expectFinding) {
      EXPECT_EQ(hits, 0u) << c.name;
    } else if (c.expectSuppressed) {
      EXPECT_GT(hits, 0u) << c.name;
      EXPECT_EQ(unsuppressed, 0u) << c.name;
    } else {
      EXPECT_GT(unsuppressed, 0u) << c.name;
    }
  }
}

TEST(LintRules, EveryRuleHasPositiveAndNegativeFixture) {
  for (const std::string& rule : lint::allRules()) {
    bool pos = false;
    bool neg = false;
    for (const auto& c : lint::selfTestCases()) {
      if (c.rule != rule) continue;
      pos = pos || (c.expectFinding && !c.expectSuppressed);
      neg = neg || !c.expectFinding;
    }
    EXPECT_TRUE(pos) << "no positive fixture for " << rule;
    EXPECT_TRUE(neg) << "no negative fixture for " << rule;
  }
}

TEST(LintRules, SuppressionRequiresReason) {
  const std::string src =
      "// lktm-lint: allow(no-unseeded-randomness)\n"
      "int r = rand();\n";
  const auto findings = lintSource("src/cpu/core.cpp", src);
  // The reasonless directive suppresses nothing and is itself a finding.
  EXPECT_EQ(countRule(findings, "no-unseeded-randomness", false), 1u);
  EXPECT_EQ(countRule(findings, "suppression-needs-reason", false), 1u);

  const std::string fixed =
      "// lktm-lint: allow(no-unseeded-randomness) -- test fixture\n"
      "int r = rand();\n";
  const auto ok = lintSource("src/cpu/core.cpp", fixed);
  EXPECT_EQ(countRule(ok, "no-unseeded-randomness", true), 1u);
  EXPECT_EQ(countRule(ok, "no-unseeded-randomness", false), 0u);
  EXPECT_EQ(countRule(ok, "suppression-needs-reason", false), 0u);
}

TEST(LintRules, FindingsSortedAndCarryExcerpts) {
  const std::string src =
      "auto t = std::chrono::steady_clock::now();\n"
      "int r = rand();\n";
  const auto findings = lintSource("src/cpu/core.cpp", src);
  ASSERT_GE(findings.size(), 2u);
  for (std::size_t i = 1; i < findings.size(); ++i) {
    const bool ordered =
        findings[i - 1].line < findings[i].line ||
        (findings[i - 1].line == findings[i].line &&
         findings[i - 1].rule <= findings[i].rule);
    EXPECT_TRUE(ordered);
  }
  EXPECT_EQ(findings[0].excerpt, "auto t = std::chrono::steady_clock::now();");
  EXPECT_EQ(findings[1].excerpt, "int r = rand();");
}

// ----------------------------------------------------------------- artifact

TEST(LintArtifact, RuleCatalogIsSortedAndQueryable) {
  const auto& rules = lint::allRules();
  ASSERT_FALSE(rules.empty());
  for (std::size_t i = 1; i < rules.size(); ++i) {
    EXPECT_LT(rules[i - 1], rules[i]);
  }
  for (const auto& r : rules) EXPECT_TRUE(lint::isRule(r));
  EXPECT_FALSE(lint::isRule("no-such-rule"));
}
