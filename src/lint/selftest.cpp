#include "lint/selftest.hpp"

#include <utility>

namespace lktm::lint {

namespace {

SelfTestCase pos(std::string name, std::string rule, std::string relPath,
                 std::string source) {
  return {std::move(name), std::move(rule), std::move(relPath),
          std::move(source), true, false};
}

SelfTestCase neg(std::string name, std::string rule, std::string relPath,
                 std::string source) {
  return {std::move(name), std::move(rule), std::move(relPath),
          std::move(source), false, false};
}

SelfTestCase sup(std::string name, std::string rule, std::string relPath,
                 std::string source) {
  return {std::move(name), std::move(rule), std::move(relPath),
          std::move(source), true, true};
}

std::vector<SelfTestCase> buildCases() {
  std::vector<SelfTestCase> cases;

  // ------------------------------------------------------- no-wall-clock
  cases.push_back(pos("no-wall-clock/planted-clock-read", "no-wall-clock",
                      "src/coherence/directory.cpp",
                      R"lint(
#include <chrono>
void tick() {
  auto t = std::chrono::steady_clock::now();
  (void)t;
}
)lint"));
  cases.push_back(pos("no-wall-clock/host-zone-too", "no-wall-clock",
                      "tools/some_tool.cpp",
                      R"lint(
double stamp() {
  return std::chrono::duration<double>(
      std::chrono::system_clock::now().time_since_epoch()).count();
}
)lint"));
  cases.push_back(pos("no-wall-clock/free-time-call", "no-wall-clock",
                      "src/cpu/core.cpp",
                      R"lint(
unsigned long seedNow() { return time(nullptr); }
)lint"));
  cases.push_back(neg("no-wall-clock/member-time-is-sim-time", "no-wall-clock",
                      "src/cpu/core.cpp",
                      R"lint(
void step(Engine& engine) { auto now = engine.time(); (void)now; }
)lint"));
  cases.push_back(neg("no-wall-clock/string-and-comment", "no-wall-clock",
                      "src/sim/context.cpp",
                      R"lint(
// a comment may say steady_clock or gettimeofday freely
const char* kDoc = "std::chrono::system_clock::now() is banned here";
)lint"));
  cases.push_back(pos("no-wall-clock/engine-is-not-exempt", "no-wall-clock",
                      "src/sim/engine.cpp",
                      R"lint(
bool expired() {
  return std::chrono::steady_clock::now() > wallDeadline_;
}
)lint"));
  cases.push_back(sup("no-wall-clock/suppressed-with-reason", "no-wall-clock",
                      "src/noc/mesh.cpp",
                      R"lint(
// lktm-lint: allow(no-wall-clock) -- fixture: display-only timing
auto t0 = std::chrono::steady_clock::now();
)lint"));
  cases.push_back(pos("no-wall-clock/reasonless-allow-does-not-suppress",
                      "no-wall-clock", "src/noc/mesh.cpp",
                      R"lint(
// lktm-lint: allow(no-wall-clock)
auto t0 = std::chrono::steady_clock::now();
)lint"));
  // Lexer edge: a line comment ending in a backslash splices the next line
  // into the comment, so the "violation" below it is never code at all.
  cases.push_back(neg("no-wall-clock/line-splice-comment", "no-wall-clock",
                      "src/mem/mshr.cpp",
                      "// this comment continues onto the next line \\\n"
                      "auto t = std::chrono::steady_clock::now();\n"));

  // --------------------------------------------- no-unordered-iteration
  cases.push_back(pos("no-unordered-iteration/range-for",
                      "no-unordered-iteration", "src/coherence/directory.cpp",
                      R"lint(
#include <unordered_map>
void walk(std::unordered_map<int, int> table) {
  for (const auto& kv : table) { (void)kv; }
}
)lint"));
  cases.push_back(pos("no-unordered-iteration/iterator-walk",
                      "no-unordered-iteration", "src/verify/harness.cpp",
                      R"lint(
std::unordered_set<unsigned long> seen;
void dump() {
  for (auto it = seen.begin(); it != seen.end(); ++it) { (void)*it; }
}
)lint"));
  cases.push_back(neg("no-unordered-iteration/host-zone-free",
                      "no-unordered-iteration", "src/config/orchestrator.cpp",
                      R"lint(
#include <unordered_map>
void walk(std::unordered_map<int, int> table) {
  for (const auto& kv : table) { (void)kv; }
}
)lint"));
  cases.push_back(neg("no-unordered-iteration/include-only",
                      "no-unordered-iteration", "src/mem/main_memory.cpp",
                      R"lint(
#include <unordered_map>
int x = 0;
)lint"));
  cases.push_back(sup("no-unordered-iteration/lookup-only-suppressed",
                      "no-unordered-iteration", "src/mem/main_memory.hpp",
                      R"lint(
// lktm-lint: allow(no-unordered-iteration) -- fixture: lookup-only store
std::unordered_map<unsigned long, int> store_;
)lint"));

  // --------------------------------------------- no-unseeded-randomness
  cases.push_back(pos("no-unseeded-randomness/rand-call",
                      "no-unseeded-randomness", "src/workloads/micro.cpp",
                      R"lint(
int pick() { return rand() % 7; }
)lint"));
  cases.push_back(pos("no-unseeded-randomness/random-device",
                      "no-unseeded-randomness", "tools/some_tool.cpp",
                      R"lint(
#include <random>
std::random_device rd;
)lint"));
  cases.push_back(neg("no-unseeded-randomness/member-rand-and-strings",
                      "no-unseeded-randomness", "src/workloads/micro.cpp",
                      R"lint(
// rand() in a comment is fine
struct Gen { int rand(); };
int pick(Gen& g) { return g.rand(); }
const char* kDoc = "never call rand() or std::random_device";
)lint"));
  // Lexer edge: raw strings (even with an odd delimiter) are opaque.
  cases.push_back(neg("no-unseeded-randomness/raw-string",
                      "no-unseeded-randomness", "src/workloads/micro.cpp",
                      R"lint(
const char* kSnippet = R"x(int bad() { return rand() + srand(1); })x";
)lint"));

  // -------------------------------------------------- no-pointer-order
  cases.push_back(pos("no-pointer-order/hash-of-pointer", "no-pointer-order",
                      "src/coherence/l1_controller.cpp",
                      R"lint(
#include <functional>
struct Node;
std::size_t key(Node* n) { return std::hash<Node*>{}(n); }
)lint"));
  cases.push_back(pos("no-pointer-order/uintptr-cast", "no-pointer-order",
                      "src/core/conflict_manager.cpp",
                      R"lint(
bool older(const void* a, const void* b) {
  return reinterpret_cast<std::uintptr_t>(a) < reinterpret_cast<std::uintptr_t>(b);
}
)lint"));
  cases.push_back(neg("no-pointer-order/hash-of-value", "no-pointer-order",
                      "src/coherence/l1_controller.cpp",
                      R"lint(
#include <functional>
std::size_t key(unsigned long v) { return std::hash<unsigned long>{}(v); }
)lint"));
  cases.push_back(neg("no-pointer-order/host-zone-free", "no-pointer-order",
                      "tools/some_tool.cpp",
                      R"lint(
struct Node;
std::size_t key(Node* n) { return std::hash<Node*>{}(n); }
)lint"));

  // -------------------------------------------------- stat-path-literal
  cases.push_back(pos("stat-path-literal/concatenated-path",
                      "stat-path-literal", "src/stats/tx_stats.cpp",
                      R"lint(
void reg(StatRegistry& r, const std::string& prefix) {
  r.counter(prefix + ".commits.htm");
}
)lint"));
  cases.push_back(pos("stat-path-literal/variable-path", "stat-path-literal",
                      "src/noc/network.cpp",
                      R"lint(
void reg(SimContext& ctx, const std::string& p) { ctx.stats().histogram(p); }
)lint"));
  cases.push_back(neg("stat-path-literal/literal-and-builder",
                      "stat-path-literal", "src/noc/network.cpp",
                      R"lint(
void reg(SimContext& ctx, unsigned id) {
  ctx.stats().counter("noc.messages");
  ctx.stats().counter(statPath("core", id, "l1.hits"));
  ctx.stats().counter(stats::statPath("core", id, "l1.misses"));
  ctx.stats().histogram("noc.hops");
}
)lint"));
  cases.push_back(neg("stat-path-literal/split-literal", "stat-path-literal",
                      "src/noc/network.cpp",
                      R"lint(
void reg(SimContext& ctx) {
  ctx.stats().counter(
      "noc.a_very_long_stat_path_that_needed"
      ".a_line_break");
}
)lint"));

  // ------------------------------------------- suppression-needs-reason
  cases.push_back(pos("suppression-needs-reason/missing-reason",
                      "suppression-needs-reason", "src/sim/context.cpp",
                      R"lint(
// lktm-lint: allow(no-wall-clock)
int x = 0;
)lint"));
  cases.push_back(pos("suppression-needs-reason/unknown-rule",
                      "suppression-needs-reason", "src/sim/context.cpp",
                      R"lint(
// lktm-lint: allow(no-such-rule) -- the rule id is misspelled
int x = 0;
)lint"));
  cases.push_back(neg("suppression-needs-reason/well-formed",
                      "suppression-needs-reason", "src/sim/context.cpp",
                      R"lint(
// lktm-lint: allow(no-unseeded-randomness) -- fixture: documented reason
int x = 0;
)lint"));
  // Documentation that quotes the directive in backticks is not a directive
  // (this is how the linter's own sources describe the syntax).
  cases.push_back(neg("suppression-needs-reason/backtick-quoted-doc",
                      "suppression-needs-reason", "src/lint/rules.hpp",
                      R"lint(
// Findings are suppressible with `lktm-lint: allow(<rule>) -- <reason>`.
int x = 0;
)lint"));
  // Lexer edge: block comment spanning lines both hides the violation text
  // inside it and carries a directive that must still parse.
  cases.push_back(neg("suppression-needs-reason/block-comment-span",
                      "suppression-needs-reason", "src/sim/context.cpp",
                      R"lint(
/* a block comment that
   mentions rand() and steady_clock across lines and ends with
   lktm-lint: allow(no-wall-clock) -- fixture: spans lines */
int x = 0;
)lint"));

  return cases;
}

}  // namespace

const std::vector<SelfTestCase>& selfTestCases() {
  static const std::vector<SelfTestCase> kCases = buildCases();
  return kCases;
}

}  // namespace lktm::lint
