#include "lint/rules.hpp"

#include <algorithm>
#include <array>
#include <set>
#include <string_view>

#include "lint/lexer.hpp"

namespace lktm::lint {

namespace {

constexpr const char* kRuleWallClock = "no-wall-clock";
constexpr const char* kRuleUnordered = "no-unordered-iteration";
constexpr const char* kRuleRandom = "no-unseeded-randomness";
constexpr const char* kRulePtrOrder = "no-pointer-order";
constexpr const char* kRuleStatPath = "stat-path-literal";
constexpr const char* kRuleSuppression = "suppression-needs-reason";

/// Deterministic-zone path prefixes: code that runs inside simulated time.
/// Prefix match, so subtrees are covered too (src/runtime/ takes in the
/// src/runtime/backends/ TM-backend emitters).
constexpr std::array<std::string_view, 9> kDeterministicPrefixes = {
    "src/sim/",   "src/coherence/", "src/core/",      "src/cpu/",
    "src/mem/",   "src/noc/",       "src/runtime/",   "src/workloads/",
    "src/verify/"};

constexpr std::array<std::string_view, 7> kClockIdents = {
    "system_clock", "high_resolution_clock", "gettimeofday", "clock_gettime",
    "timespec_get", "localtime",             "gmtime"};

struct FileLinter {
  const std::string& relPath;
  const SourceFile& sf;
  Zone zone;
  std::vector<Finding> findings;
  std::set<std::pair<unsigned, std::string>> emitted;  // (line, rule) dedup

  std::string excerptAt(unsigned line) const {
    if (line == 0 || line > sf.lines.size()) return {};
    const std::string& raw = sf.lines[line - 1];
    std::size_t b = 0;
    std::size_t e = raw.size();
    while (b < e && (raw[b] == ' ' || raw[b] == '\t')) ++b;
    while (e > b && (raw[e - 1] == ' ' || raw[e - 1] == '\t')) --e;
    std::string x = raw.substr(b, e - b);
    if (x.size() > 160) x = x.substr(0, 157) + "...";
    return x;
  }

  void emit(unsigned line, const char* rule) {
    if (!emitted.emplace(line, rule).second) return;
    Finding f;
    f.file = relPath;
    f.line = line;
    f.rule = rule;
    f.excerpt = excerptAt(line);
    f.zone = zone;
    findings.push_back(std::move(f));
  }

  const Token& tk(std::size_t i) const {
    static const Token end{};
    return i < sf.tokens.size() ? sf.tokens[i] : end;
  }
  bool isPunct(std::size_t i, std::string_view p) const {
    return tk(i).kind == Tok::Punct && tk(i).text == p;
  }
  bool isIdent(std::size_t i, std::string_view name) const {
    return tk(i).kind == Tok::Ident && tk(i).text == name;
  }

  /// Is `name(` at token i a *call* rather than a declaration or member
  /// access? Preceding '.'/'->' means a member call (not the libc symbol);
  /// a preceding identifier means a declaration (`int rand();`) — unless it
  /// is a statement keyword, which can only precede an expression.
  bool isFreeCall(std::size_t i) const {
    if (!isPunct(i + 1, "(")) return false;
    if (i == 0) return true;
    if (isPunct(i - 1, ".") || isPunct(i - 1, "->")) return false;
    if (isPunct(i - 1, "::")) return isIdent(i - 2, "std");
    if (tk(i - 1).kind == Tok::Ident) {
      static const std::set<std::string_view> kExprKeywords = {
          "return", "co_return", "case", "if",     "while",
          "do",     "else",      "for",  "switch", "co_await"};
      return kExprKeywords.count(tk(i - 1).text) != 0;
    }
    return true;
  }

  /// Index just past a balanced <...> starting at `open` (which must be '<');
  /// `open` itself when it is not. `sawStar`/`sawIdent` report template-arg
  /// contents for the pointer-order rule.
  std::size_t skipAngles(std::size_t open, bool* sawStar = nullptr,
                         const std::set<std::string_view>* watchIdents = nullptr,
                         bool* sawWatched = nullptr) const {
    if (!isPunct(open, "<")) return open;
    int depth = 0;
    std::size_t i = open;
    for (; i < sf.tokens.size(); ++i) {
      if (isPunct(i, "<")) ++depth;
      if (isPunct(i, ">") && --depth == 0) return i + 1;
      // A template argument list never contains these; bail so an ordinary
      // less-than comparison cannot swallow the rest of the file.
      if (isPunct(i, ";") || isPunct(i, "{")) return open + 1;
      if (depth >= 1 && sawStar != nullptr && isPunct(i, "*") && i != open) {
        *sawStar = true;
      }
      if (depth >= 1 && watchIdents != nullptr && tk(i).kind == Tok::Ident &&
          watchIdents->count(tk(i).text) != 0) {
        *sawWatched = true;
      }
    }
    return i;
  }

  // ---------------------------------------------------------------- rules

  void ruleWallClock() {
    for (std::size_t i = 0; i < sf.tokens.size(); ++i) {
      const Token& t = sf.tokens[i];
      if (t.kind != Tok::Ident || t.preproc) continue;
      bool hit = false;
      for (const std::string_view c : kClockIdents) hit = hit || t.text == c;
      // steady_clock is as nondeterministic as any other clock for replay
      // purposes (it differs per host/run); it shares the rule.
      hit = hit || t.text == "steady_clock";
      // A *free* call (or std::-qualified): member calls like engine.time()
      // are simulated time and fine, declarations are not reads.
      if (!hit && (t.text == "time" || t.text == "clock")) hit = isFreeCall(i);
      if (hit) emit(t.line, kRuleWallClock);
    }
  }

  void ruleUnordered() {
    if (zone != Zone::Deterministic) return;
    static const std::set<std::string_view> kUnordered = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    std::set<std::string> names;  // variables/aliases with unordered type
    // Pass 1: every non-#include mention is a declaration-site finding, and
    // the declared variable / using-alias name joins the watch set.
    std::string pendingAlias;
    for (std::size_t i = 0; i < sf.tokens.size(); ++i) {
      const Token& t = sf.tokens[i];
      if (t.preproc) continue;
      if (t.kind == Tok::Ident && t.text == "using" && tk(i + 1).kind == Tok::Ident &&
          isPunct(i + 2, "=")) {
        pendingAlias = tk(i + 1).text;
      }
      if (isPunct(i, ";")) pendingAlias.clear();
      if (t.kind != Tok::Ident || kUnordered.count(t.text) == 0) continue;
      emit(t.line, kRuleUnordered);
      if (!pendingAlias.empty()) names.insert(pendingAlias);
      const std::size_t after = skipAngles(i + 1);
      if (tk(after).kind == Tok::Ident) names.insert(tk(after).text);
    }
    // Pass 2: iteration over a watched name (range-for or manual iterators).
    for (std::size_t i = 0; i < sf.tokens.size(); ++i) {
      const Token& t = sf.tokens[i];
      if (t.kind != Tok::Ident || t.preproc || names.count(t.text) == 0) continue;
      const bool rangeFor = isPunct(i - 1, ":");
      const bool iterWalk =
          (isPunct(i + 1, ".") || isPunct(i + 1, "->")) &&
          (isIdent(i + 2, "begin") || isIdent(i + 2, "cbegin") ||
           isIdent(i + 2, "rbegin")) &&
          isPunct(i + 3, "(");
      if (rangeFor || iterWalk) emit(t.line, kRuleUnordered);
    }
  }

  void ruleRandomness() {
    for (std::size_t i = 0; i < sf.tokens.size(); ++i) {
      const Token& t = sf.tokens[i];
      if (t.kind != Tok::Ident || t.preproc) continue;
      if (t.text == "random_device") {
        emit(t.line, kRuleRandom);
        continue;
      }
      const bool seedCall = t.text == "srand" || t.text == "drand48" ||
                            t.text == "lrand48" || t.text == "mrand48";
      if (seedCall && isPunct(i + 1, "(")) {
        emit(t.line, kRuleRandom);
        continue;
      }
      if (t.text == "rand" && isFreeCall(i)) emit(t.line, kRuleRandom);
    }
  }

  void rulePointerOrder() {
    if (zone != Zone::Deterministic) return;
    static const std::set<std::string_view> kPtrWords = {"uintptr_t",
                                                         "intptr_t"};
    for (std::size_t i = 0; i < sf.tokens.size(); ++i) {
      const Token& t = sf.tokens[i];
      if (t.kind != Tok::Ident || t.preproc) continue;
      if ((t.text == "hash" || t.text == "less" || t.text == "greater" ||
           t.text == "owner_less") &&
          isPunct(i - 1, "::") && isIdent(i - 2, "std") && isPunct(i + 1, "<")) {
        bool sawStar = false;
        skipAngles(i + 1, &sawStar);
        if (sawStar) emit(t.line, kRulePtrOrder);
      }
      if (t.text == "reinterpret_cast" && isPunct(i + 1, "<")) {
        bool sawPtrWord = false;
        skipAngles(i + 1, nullptr, &kPtrWords, &sawPtrWord);
        if (sawPtrWord) emit(t.line, kRulePtrOrder);
      }
    }
  }

  void ruleStatPath() {
    static const std::set<std::string_view> kRegisterFns = {"counter", "histogram"};
    for (std::size_t i = 0; i + 2 < sf.tokens.size(); ++i) {
      if (!isPunct(i, ".") && !isPunct(i, "->")) continue;
      const Token& fn = tk(i + 1);
      if (fn.kind != Tok::Ident || kRegisterFns.count(fn.text) == 0) continue;
      if (!isPunct(i + 2, "(")) continue;
      std::size_t a = i + 3;
      if (tk(a).kind == Tok::Str) {
        // Adjacent literals concatenate; the argument must then end.
        while (tk(a).kind == Tok::Str) ++a;
        if (isPunct(a, ",") || isPunct(a, ")")) continue;
      } else {
        // A documented builder call: [ns::]*statPath(...).
        std::size_t j = a;
        while (tk(j).kind == Tok::Ident && isPunct(j + 1, "::")) j += 2;
        if (isIdent(j, "statPath") && isPunct(j + 1, "(")) continue;
      }
      emit(fn.line, kRuleStatPath);
    }
  }

  void ruleSuppressionHygiene() {
    for (const Suppression& s : sf.suppressions) {
      bool valid = !s.rules.empty() && !s.reason.empty();
      for (const std::string& r : s.rules) valid = valid && isRule(r);
      if (!valid) emit(s.firstLine, kRuleSuppression);
    }
  }

  // ------------------------------------------------------------ driver

  std::vector<Finding> run() {
    ruleWallClock();
    ruleUnordered();
    ruleRandomness();
    rulePointerOrder();
    ruleStatPath();
    ruleSuppressionHygiene();

    // Apply suppressions: a valid allow() covers its comment's span plus the
    // next line, so it works same-line and on the line above. The hygiene
    // rule itself is not suppressible — a reasonless allow() must surface.
    for (Finding& f : findings) {
      if (f.rule == kRuleSuppression) continue;
      for (const Suppression& s : sf.suppressions) {
        if (s.rules.empty() || s.reason.empty()) continue;
        bool known = true;
        for (const std::string& r : s.rules) known = known && isRule(r);
        if (!known) continue;
        if (f.line < s.firstLine || f.line > s.lastLine + 1) continue;
        if (std::find(s.rules.begin(), s.rules.end(), f.rule) == s.rules.end()) {
          continue;
        }
        f.suppressed = true;
        f.reason = s.reason;
        break;
      }
    }
    std::sort(findings.begin(), findings.end(),
              [](const Finding& a, const Finding& b) {
                if (a.line != b.line) return a.line < b.line;
                return a.rule < b.rule;
              });
    return std::move(findings);
  }
};

}  // namespace

const char* toString(Zone z) {
  return z == Zone::Deterministic ? "deterministic" : "host";
}

Zone zoneForPath(const std::string& relPath) {
  for (const std::string_view p : kDeterministicPrefixes) {
    if (relPath.size() > p.size() &&
        std::string_view(relPath).substr(0, p.size()) == p) {
      return Zone::Deterministic;
    }
  }
  return Zone::Host;
}

const std::vector<std::string>& allRules() {
  static const std::vector<std::string> kRules = {
      kRulePtrOrder,  kRuleUnordered, kRuleRandom,
      kRuleWallClock, kRuleStatPath,  kRuleSuppression};
  return kRules;
}

bool isRule(const std::string& name) {
  const auto& rules = allRules();
  return std::find(rules.begin(), rules.end(), name) != rules.end();
}

std::vector<Finding> lintSource(const std::string& relPath,
                                const std::string& src) {
  const SourceFile sf = lexFile(src);
  FileLinter linter{relPath, sf, zoneForPath(relPath), {}, {}};
  return linter.run();
}

std::size_t LintRun::suppressedCount() const {
  std::size_t n = 0;
  for (const Finding& f : findings) n += f.suppressed ? 1 : 0;
  return n;
}

std::size_t LintRun::unsuppressedCount() const {
  return findings.size() - suppressedCount();
}

}  // namespace lktm::lint
