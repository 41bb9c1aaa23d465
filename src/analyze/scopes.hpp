// Function/lambda body extraction over the token stream.
//
// Passes that reason about control flow (span balance, the call graph)
// need to know which tokens belong to which callable body — and, crucially,
// that a lambda nested inside a function is a *different* body: code in a
// deferred callback does not execute under the spans lexically
// surrounding its definition. This module classifies every brace pair as
// function body, lambda body, type/namespace scope, control-flow block, or
// braced initializer, and assigns each token to its innermost enclosing
// callable body.
//
// Heuristic (token-level, no semantic analysis), tuned for this codebase's
// style; the known blind spots are documented in docs/correctness.md.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analyze/lexer.hpp"

namespace flotilla::analyze {

struct Body {
  int id = -1;
  int parent = -1;          // enclosing body id, -1 for top-level functions
  bool lambda = false;
  std::string name;         // best-effort function name; "<lambda>" for lambdas
  std::size_t line = 0;     // line of the opening brace
  std::size_t open = 0;     // token index of '{'
  std::size_t close = 0;    // token index of matching '}'
};

struct BodyIndex {
  std::vector<Body> bodies;
  // body_of[i] = id of the innermost callable body owning token i, or -1
  // when token i is outside any function (namespace scope, class member
  // declarations, ...).
  std::vector<int> body_of;
};

BodyIndex build_bodies(const LexedFile& file);

// Token index of the brace matching tokens[open] (an '{' or '(' or '[');
// returns tokens.size() when unbalanced.
std::size_t matching_close(const std::vector<Token>& tokens, std::size_t open);

// Index of the '(' matching a ')' at `close`, scanning backwards; returns
// npos when unbalanced.
std::size_t matching_open(const std::vector<Token>& tokens, std::size_t close);

}  // namespace flotilla::analyze
