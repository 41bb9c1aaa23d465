#include "analyze/lexer.hpp"

#include <cctype>
#include <fstream>
#include <sstream>

namespace flotilla::analyze {

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

namespace {

bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }
bool is_digit(char c) { return std::isdigit(static_cast<unsigned char>(c)) != 0; }

// Phase 1: blank out comments (recording their text per line) while
// leaving string/char literals intact — include paths are quoted, so the
// directive parser still needs them. The state machine must be
// literal-aware: "/*" inside a string is not a comment.
std::string strip_comments(const std::string& src,
                           std::map<std::size_t, std::string>* comments) {
  std::string out = src;
  enum class State { kCode, kLine, kBlock, kString, kChar, kRaw };
  State state = State::kCode;
  std::string raw_delim;
  std::size_t line = 1;
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    if (c == '\n') ++line;
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          out[i] = out[i + 1] = ' ';
          (*comments)[line] += "//";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlock;
          out[i] = out[i + 1] = ' ';
          (*comments)[line] += "/*";
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || !is_ident_char(src[i - 1]))) {
          const std::size_t open = src.find('(', i + 2);
          if (open == std::string::npos) break;
          // Appended char by char and range by range: GCC 12's Release
          // -Wrestrict misreads the replace that operator+ or assign()
          // inlines here.
          raw_delim.clear();
          raw_delim.push_back(')');
          raw_delim.append(src, i + 2, open - i - 2);
          raw_delim.push_back('"');
          for (std::size_t j = i; j <= open; ++j) {
            if (src[j] == '\n') ++line;
          }
          i = open;
          state = State::kRaw;
        } else if (c == '"') {
          state = State::kString;
        } else if (c == '\'' && !(i > 0 && is_digit(src[i - 1]))) {
          // (digit separators like 1'000'000 are not char literals)
          state = State::kChar;
        }
        break;
      case State::kLine:
        if (c == '\n') {
          state = State::kCode;
        } else {
          (*comments)[line] += c;
          out[i] = ' ';
        }
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          out[i] = out[i + 1] = ' ';
          if (next == '\n') ++line;
          state = State::kCode;
          ++i;
        } else if (c != '\n') {
          (*comments)[line] += c;
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\' && i + 1 < src.size()) {
          if (next == '\n') ++line;
          ++i;
        } else if (c == '"') {
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\' && i + 1 < src.size()) {
          if (next == '\n') ++line;
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        }
        break;
      case State::kRaw:
        if (src.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          state = State::kCode;
        }
        break;
    }
  }
  return out;
}

// Trims leading/trailing whitespace in place.
std::string trimmed(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

class Tokenizer {
 public:
  Tokenizer(const std::string& code, LexedFile* out)
      : code_(code), out_(out) {}

  void run() {
    bool line_start = true;
    while (i_ < code_.size()) {
      const char c = code_[i_];
      if (c == '\n') {
        ++line_;
        ++i_;
        line_start = true;
        continue;
      }
      if (is_space(c)) {
        ++i_;
        continue;
      }
      if (line_start && c == '#') {
        directive();
        line_start = true;  // directive consumed its trailing newline
        continue;
      }
      line_start = false;
      if (is_ident_char(c) && !is_digit(c)) {
        identifier_or_literal_prefix();
      } else if (is_digit(c) || (c == '.' && i_ + 1 < code_.size() &&
                                 is_digit(code_[i_ + 1]))) {
        number();
      } else if (c == '"') {
        string_literal();
      } else if (c == '\'') {
        char_literal();
      } else {
        punct();
      }
    }
  }

 private:
  void emit(TokenKind kind, std::string text, std::size_t line) {
    out_->tokens.push_back(Token{kind, std::move(text), line});
  }

  // One logical preprocessor line, honoring backslash continuations.
  void directive() {
    const std::size_t line = line_;
    std::string text;
    ++i_;  // '#'
    while (i_ < code_.size()) {
      const char c = code_[i_];
      if (c == '\\') {
        // Continuation: backslash, optional spaces, newline.
        std::size_t j = i_ + 1;
        while (j < code_.size() && code_[j] != '\n' && is_space(code_[j])) ++j;
        if (j < code_.size() && code_[j] == '\n') {
          ++line_;
          i_ = j + 1;
          text += ' ';
          continue;
        }
      }
      if (c == '\n') {
        ++line_;
        ++i_;
        break;
      }
      text += c;
      ++i_;
    }
    parse_directive(trimmed(text), line);
  }

  void parse_directive(const std::string& text, std::size_t line) {
    std::size_t p = 0;
    while (p < text.size() && is_ident_char(text[p])) ++p;
    const std::string name = text.substr(0, p);
    while (p < text.size() && is_space(text[p])) ++p;
    const std::string rest = text.substr(p);
    if (name == "include") {
      IncludeDirective inc;
      inc.line = line;
      if (!rest.empty() && rest[0] == '"') {
        const std::size_t close = rest.find('"', 1);
        if (close != std::string::npos) {
          inc.path = rest.substr(1, close - 1);
          out_->includes.push_back(std::move(inc));
        }
      } else if (!rest.empty() && rest[0] == '<') {
        const std::size_t close = rest.find('>', 1);
        if (close != std::string::npos) {
          inc.path = rest.substr(1, close - 1);
          inc.system = true;
          out_->includes.push_back(std::move(inc));
        }
      }
    } else if (name == "if" || name == "ifdef" || name == "ifndef" ||
               name == "elif") {
      out_->conditionals.push_back({name, trimmed(rest), line});
    } else if (name == "else" || name == "endif") {
      out_->conditionals.push_back({name, "", line});
    }
  }

  void identifier_or_literal_prefix() {
    const std::size_t line = line_;
    std::size_t begin = i_;
    while (i_ < code_.size() && is_ident_char(code_[i_])) ++i_;
    std::string text = code_.substr(begin, i_ - begin);
    if (i_ < code_.size() && code_[i_] == '"') {
      if (text == "R" || text == "u8R" || text == "uR" || text == "UR" ||
          text == "LR") {
        raw_string_literal(line);
        return;
      }
      if (text == "u8" || text == "u" || text == "U" || text == "L") {
        string_literal();
        return;
      }
    }
    if (i_ < code_.size() && code_[i_] == '\'' &&
        (text == "u8" || text == "u" || text == "U" || text == "L")) {
      char_literal();
      return;
    }
    emit(TokenKind::kIdentifier, std::move(text), line);
  }

  void number() {
    const std::size_t line = line_;
    const std::size_t begin = i_;
    while (i_ < code_.size()) {
      const char c = code_[i_];
      if (is_ident_char(c) || c == '.') {
        ++i_;
      } else if (c == '\'' && i_ + 1 < code_.size() &&
                 is_ident_char(code_[i_ + 1])) {
        i_ += 2;  // digit separator
      } else if ((c == '+' || c == '-') && i_ > begin &&
                 (code_[i_ - 1] == 'e' || code_[i_ - 1] == 'E' ||
                  code_[i_ - 1] == 'p' || code_[i_ - 1] == 'P')) {
        ++i_;  // exponent sign
      } else {
        break;
      }
    }
    emit(TokenKind::kNumber, code_.substr(begin, i_ - begin), line);
  }

  void string_literal() {
    const std::size_t line = line_;
    ++i_;  // opening quote
    while (i_ < code_.size()) {
      const char c = code_[i_];
      if (c == '\\' && i_ + 1 < code_.size()) {
        if (code_[i_ + 1] == '\n') ++line_;
        i_ += 2;
        continue;
      }
      if (c == '\n') ++line_;  // unterminated; keep line counts honest
      ++i_;
      if (c == '"') break;
    }
    emit(TokenKind::kString, "\"\"", line);
  }

  void char_literal() {
    const std::size_t line = line_;
    ++i_;  // opening quote
    while (i_ < code_.size()) {
      const char c = code_[i_];
      if (c == '\\' && i_ + 1 < code_.size()) {
        if (code_[i_ + 1] == '\n') ++line_;
        i_ += 2;
        continue;
      }
      if (c == '\n') ++line_;
      ++i_;
      if (c == '\'') break;
    }
    emit(TokenKind::kChar, "''", line);
  }

  void raw_string_literal(std::size_t line) {
    // At code_[i_] == '"' of R"delim( ... )delim".
    const std::size_t open = code_.find('(', i_ + 1);
    if (open == std::string::npos) {
      i_ = code_.size();
      emit(TokenKind::kString, "\"\"", line);
      return;
    }
    // Appended, not built with operator+ on a temporary (see
    // strip_comments).
    std::string delim = ")";
    delim.append(code_, i_ + 1, open - i_ - 1).append("\"");
    std::size_t end = code_.find(delim, open + 1);
    if (end == std::string::npos) end = code_.size();
    for (std::size_t j = i_; j < end && j < code_.size(); ++j) {
      if (code_[j] == '\n') ++line_;
    }
    i_ = end == code_.size() ? end : end + delim.size();
    emit(TokenKind::kString, "\"\"", line);
  }

  void punct() {
    const std::size_t line = line_;
    // "::" and "->" matter to the passes (qualified names, member calls);
    // everything else is a single-character token.
    if (i_ + 1 < code_.size()) {
      const char a = code_[i_];
      const char b = code_[i_ + 1];
      if ((a == ':' && b == ':') || (a == '-' && b == '>')) {
        emit(TokenKind::kPunct, std::string{a, b}, line);
        i_ += 2;
        return;
      }
    }
    emit(TokenKind::kPunct, std::string(1, code_[i_]), line);
    ++i_;
  }

  const std::string& code_;
  LexedFile* out_;
  std::size_t i_ = 0;
  std::size_t line_ = 1;
};

}  // namespace

LexedFile lex_string(const std::string& path, const std::string& source) {
  LexedFile out;
  out.path = path;
  const std::string code = strip_comments(source, &out.comments);
  Tokenizer(code, &out).run();
  return out;
}

bool lex_file(const std::string& path, LexedFile* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = lex_string(path, buffer.str());
  return true;
}

}  // namespace flotilla::analyze
