// Built-in seeded-violation fixtures for lktm_lint, mirroring lktm_check's
// --inject-bug: every rule has at least one positive fixture (a planted
// violation the linter MUST flag) and one negative twin (clean code that MUST
// NOT be flagged — typically the same construct hidden in a string, comment
// or raw literal, or moved to a zone where the rule does not apply). The
// LintRules.SelfTestFixturesBehave test (tests/test_lint.cpp) runs them all
// in every ctest preset; it fails if any plant goes uncaught or any clean
// fixture trips.
#pragma once

#include <string>
#include <vector>

namespace lktm::lint {

struct SelfTestCase {
  std::string name;      ///< unique, "<rule>/<variant>"
  std::string rule;      ///< the rule under test
  std::string relPath;   ///< fake path (selects the zone)
  std::string source;    ///< fixture body
  bool expectFinding;    ///< true: the rule must fire; false: must stay clean
  bool expectSuppressed; ///< when a finding is expected: must it be suppressed?
};

const std::vector<SelfTestCase>& selfTestCases();

}  // namespace lktm::lint
