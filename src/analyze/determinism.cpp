#include "analyze/determinism.hpp"

#include <algorithm>
#include <set>

namespace flotilla::analyze {

namespace {

struct TokenRule {
  const char* rule;
  const char* token;
  bool call_only;  // require '(' after, and reject member calls
  const char* message;
};

constexpr const char* kWallClockMsg =
    "wall-clock time in simulation code breaks determinism; use "
    "sim::Engine::now()";
constexpr const char* kRandomMsg =
    "nondeterministic randomness in simulation code; draw from a seeded "
    "sim::RngStream";
constexpr const char* kSleepMsg =
    "real sleeping in simulation code; model delays as simulated events";

const TokenRule kTokenRules[] = {
    {"wall-clock", "system_clock", false, kWallClockMsg},
    {"wall-clock", "steady_clock", false, kWallClockMsg},
    {"wall-clock", "high_resolution_clock", false, kWallClockMsg},
    {"wall-clock", "gettimeofday", true, kWallClockMsg},
    {"wall-clock", "clock_gettime", true, kWallClockMsg},
    {"wall-clock", "timespec_get", true, kWallClockMsg},
    {"wall-clock", "time", true, kWallClockMsg},
    {"wall-clock", "localtime", true, kWallClockMsg},
    {"wall-clock", "gmtime", true, kWallClockMsg},
    {"unseeded-random", "random_device", false, kRandomMsg},
    {"unseeded-random", "rand", true, kRandomMsg},
    {"unseeded-random", "srand", true, kRandomMsg},
    {"unseeded-random", "drand48", true, kRandomMsg},
    {"unseeded-random", "lrand48", true, kRandomMsg},
    {"unseeded-random", "srandom", true, kRandomMsg},
    {"hardware-concurrency", "hardware_concurrency", false,
     "host-dependent concurrency breaks reproducibility; take worker "
     "counts from configuration"},
    {"real-sleep", "sleep_for", true, kSleepMsg},
    {"real-sleep", "sleep_until", true, kSleepMsg},
    {"real-sleep", "usleep", true, kSleepMsg},
    {"real-sleep", "nanosleep", true, kSleepMsg},
};

bool is_ident(const Token& t) { return t.kind == TokenKind::kIdentifier; }

// Token-level reimplementation of the legacy call-form check: reject
// member calls (x.time(), x->time()), require a following '('.
bool call_form_ok(const std::vector<Token>& toks, std::size_t i) {
  if (i > 0 && toks[i - 1].kind == TokenKind::kPunct &&
      (toks[i - 1].text == "." || toks[i - 1].text == "->")) {
    return false;
  }
  return i + 1 < toks.size() && toks[i + 1].kind == TokenKind::kPunct &&
         toks[i + 1].text == "(";
}

void run_token_rules(const SourceFile& file, std::vector<Finding>* out) {
  const auto& toks = file.lex.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_ident(toks[i])) continue;
    for (const TokenRule& rule : kTokenRules) {
      if (toks[i].text != rule.token) continue;
      if (rule.call_only && !call_form_ok(toks, i)) continue;
      out->push_back(
          {file.display, toks[i].line, rule.rule, rule.message});
    }
  }
}

// Collects names declared with std::unordered_{map,set,multimap,multiset}
// from a token stream (file body or paired header).
void collect_unordered_decls(const std::vector<Token>& toks,
                             std::set<std::string>* names) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_ident(toks[i])) continue;
    const std::string& t = toks[i].text;
    if (t != "unordered_map" && t != "unordered_set" &&
        t != "unordered_multimap" && t != "unordered_multiset") {
      continue;
    }
    if (i + 1 >= toks.size() || toks[i + 1].text != "<") continue;
    // Balance the template argument list.
    int depth = 0;
    std::size_t j = i + 1;
    for (; j < toks.size(); ++j) {
      if (toks[j].kind != TokenKind::kPunct) continue;
      if (toks[j].text == "<") ++depth;
      if (toks[j].text == ">" && --depth == 0) break;
    }
    if (j >= toks.size()) continue;
    ++j;  // past '>'
    if (j < toks.size() && toks[j].text == "::") continue;  // ::iterator etc.
    while (j < toks.size() &&
           (toks[j].text == "&" || toks[j].text == "*")) {
      ++j;
    }
    if (j >= toks.size() || !is_ident(toks[j])) continue;
    const std::string name = toks[j].text;
    ++j;
    // Declarator endings: member/local (;, =, {), parameter (,, )).
    if (j < toks.size() && toks[j].kind == TokenKind::kPunct &&
        (toks[j].text == ";" || toks[j].text == "=" ||
         toks[j].text == "{" || toks[j].text == "," ||
         toks[j].text == ")")) {
      names->insert(name);
    }
  }
}

void check_unordered_iteration(const SourceFile& file,
                               const std::set<std::string>& unordered_names,
                               std::vector<Finding>* out) {
  const auto& toks = file.lex.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_ident(toks[i]) || toks[i].text != "for") continue;
    if (i + 1 >= toks.size() || toks[i + 1].text != "(") continue;
    // Find the matching ')' and the depth-1 ':' (range-for separator);
    // a depth-1 ';' means a classic for.
    int depth = 0;
    std::size_t colon = 0, close = 0;
    bool classic_for = false, found = false;
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      if (toks[j].kind != TokenKind::kPunct) continue;
      const std::string& t = toks[j].text;
      if (t == "(" || t == "[" || t == "{") ++depth;
      if (t == ")" || t == "]" || t == "}") {
        if (--depth == 0) {
          close = j;
          found = true;
          break;
        }
      }
      if (depth == 1 && colon == 0) {
        if (t == ";") {
          classic_for = true;
          break;
        }
        if (t == ":") colon = j;  // "::" is a single distinct token
      }
    }
    if (classic_for || !found || colon == 0) continue;
    // Range expression tokens: (colon, close).
    std::string victim;
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (is_ident(toks[j]) &&
          toks[j].text.find("unordered_") != std::string::npos) {
        victim = "<unordered container expression>";
        break;
      }
    }
    if (victim.empty() && close > colon + 1 && is_ident(toks[close - 1]) &&
        unordered_names.count(toks[close - 1].text) > 0) {
      victim = toks[close - 1].text;
    }
    if (!victim.empty()) {
      out->push_back(
          {file.display, toks[i].line, "unordered-iteration",
           "iteration over unordered container '" + victim +
               "' can feed event ordering; iterate util::sorted_keys() or "
               "use an ordered container"});
    }
  }
}

}  // namespace

bool determinism_in_scope(const std::string& path) {
  return path.compare(0, 4, "src/") == 0 ||
         path.find("/src/") != std::string::npos;
}

std::vector<std::string> DeterminismPass::rules() const {
  return {"hardware-concurrency", "real-sleep", "unordered-iteration",
          "unseeded-random", "wall-clock"};
}

void DeterminismPass::run(const AnalysisInput& input,
                          std::vector<Finding>* findings) const {
  for (const SourceFile& file : input.files) {
    if (!file.determinism_scope) continue;
    run_token_rules(file, findings);
    std::set<std::string> unordered_names;
    collect_unordered_decls(file.lex.tokens, &unordered_names);
    if (file.paired_header) {
      collect_unordered_decls(file.paired_header->tokens, &unordered_names);
    }
    check_unordered_iteration(file, unordered_names, findings);
  }
}

}  // namespace flotilla::analyze
