#include "lexer.h"

#include <cctype>

namespace wlm::lint {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Two-character punctuators the rules care about. Everything else is
/// emitted one character at a time (so `>>` closing nested templates is
/// two `>` tokens, which keeps template balancing trivial).
bool IsTwoCharPunct(char a, char b) {
  return (a == ':' && b == ':') || (a == '-' && b == '>') ||
         (a == '+' && b == '=') || (a == '-' && b == '=') ||
         (a == '[' && b == '[') || (a == ']' && b == ']');
}

}  // namespace

LexedFile Lex(const std::string& content) {
  LexedFile out;
  const size_t n = content.size();
  size_t i = 0;
  int line = 1;
  bool at_line_start = true;  // only whitespace seen since the last newline

  auto advance = [&](size_t count) {
    for (size_t k = 0; k < count && i < n; ++k, ++i) {
      if (content[i] == '\n') {
        line += 1;
        at_line_start = true;
      }
    }
  };

  while (i < n) {
    char c = content[i];

    if (c == '\n' || std::isspace(static_cast<unsigned char>(c))) {
      advance(1);
      continue;
    }

    // Preprocessor directive: consume the logical line (honouring \-
    // continuations), recording #include paths.
    if (c == '#' && at_line_start) {
      int directive_line = line;
      size_t j = i + 1;
      while (j < n && (content[j] == ' ' || content[j] == '\t')) ++j;
      size_t word_end = j;
      while (word_end < n && IsIdentChar(content[word_end])) ++word_end;
      std::string directive = content.substr(j, word_end - j);
      if (directive == "include") {
        size_t p = word_end;
        while (p < n && (content[p] == ' ' || content[p] == '\t')) ++p;
        if (p < n && (content[p] == '<' || content[p] == '"')) {
          char close = content[p] == '<' ? '>' : '"';
          size_t q = content.find(close, p + 1);
          if (q != std::string::npos) {
            out.includes.push_back({directive_line,
                                    content.substr(p + 1, q - p - 1),
                                    content[p] == '<'});
          }
        }
      }
      // Swallow to end of logical line, but still record a trailing //
      // comment — suppression directives ride on #include lines too.
      while (i < n) {
        if (content[i] == '\\' && i + 1 < n && content[i + 1] == '\n') {
          advance(2);
          continue;
        }
        if (content[i] == '/' && i + 1 < n && content[i + 1] == '/') {
          size_t start = i + 2;
          size_t end = content.find('\n', start);
          if (end == std::string::npos) end = n;
          out.comments.push_back(
              {line, line, content.substr(start, end - start)});
          advance(end - i);
          continue;
        }
        if (content[i] == '\n') break;
        // Names a macro body mentions count as uses (rule T4).
        if (directive == "define" && IsIdentStart(content[i]) &&
            !IsIdentChar(content[i - 1])) {
          size_t end = i;
          while (end < n && IsIdentChar(content[end])) ++end;
          out.macro_idents.push_back(content.substr(i, end - i));
          advance(end - i);
          continue;
        }
        advance(1);
      }
      continue;
    }
    at_line_start = false;

    // Line comment.
    if (c == '/' && i + 1 < n && content[i + 1] == '/') {
      size_t start = i + 2;
      size_t end = content.find('\n', start);
      if (end == std::string::npos) end = n;
      out.comments.push_back({line, line, content.substr(start, end - start)});
      advance(end - i);
      continue;
    }

    // Block comment.
    if (c == '/' && i + 1 < n && content[i + 1] == '*') {
      int start_line = line;
      size_t start = i + 2;
      size_t end = content.find("*/", start);
      size_t stop = end == std::string::npos ? n : end;
      std::string text = content.substr(start, stop - start);
      advance((end == std::string::npos ? n : end + 2) - i);
      out.comments.push_back({start_line, line, std::move(text)});
      continue;
    }

    // Raw string literal: R"delim( ... )delim".
    if (c == 'R' && i + 1 < n && content[i + 1] == '"') {
      size_t p = i + 2;
      std::string delim;
      while (p < n && content[p] != '(') delim += content[p++];
      std::string close = ")" + delim + "\"";
      size_t end = content.find(close, p);
      int tok_line = line;
      std::string value;
      if (p + 1 <= n) {
        size_t body = p + 1;
        size_t stop = end == std::string::npos ? n : end;
        if (stop > body) value = content.substr(body, stop - body);
      }
      advance((end == std::string::npos ? n : end + close.size()) - i);
      out.tokens.push_back({TokKind::kString, "", tok_line, std::move(value)});
      continue;
    }

    // String literal.
    if (c == '"') {
      int tok_line = line;
      advance(1);
      size_t body = i;
      while (i < n && content[i] != '"') {
        advance(content[i] == '\\' ? 2 : 1);
      }
      std::string value = content.substr(body, i - body);
      advance(1);  // closing quote
      out.tokens.push_back({TokKind::kString, "", tok_line, std::move(value)});
      continue;
    }

    // Character literal. Distinguish from digit separators (1'000'000):
    // a ' following a number token is part of the number, handled below.
    if (c == '\'') {
      int tok_line = line;
      advance(1);
      while (i < n && content[i] != '\'') {
        advance(content[i] == '\\' ? 2 : 1);
      }
      advance(1);
      out.tokens.push_back({TokKind::kChar, "", tok_line, ""});
      continue;
    }

    // Number (also covers leading-dot floats when preceded by a digit —
    // `.5` alone lexes as punct + number, good enough for linting).
    if (std::isdigit(static_cast<unsigned char>(c))) {
      int tok_line = line;
      size_t start = i;
      while (i < n) {
        char d = content[i];
        if (IsIdentChar(d) || d == '.' || d == '\'') {
          advance(1);
          continue;
        }
        // Exponent signs: 1e-5, 0x1p+3.
        if ((d == '+' || d == '-') && i > start) {
          char prev = content[i - 1];
          if (prev == 'e' || prev == 'E' || prev == 'p' || prev == 'P') {
            advance(1);
            continue;
          }
        }
        break;
      }
      out.tokens.push_back(
          {TokKind::kNumber, content.substr(start, i - start), tok_line, ""});
      continue;
    }

    // Identifier / keyword.
    if (IsIdentStart(c)) {
      int tok_line = line;
      size_t start = i;
      while (i < n && IsIdentChar(content[i])) advance(1);
      out.tokens.push_back(
          {TokKind::kIdent, content.substr(start, i - start), tok_line, ""});
      continue;
    }

    // Punctuation.
    int tok_line = line;
    if (i + 1 < n && IsTwoCharPunct(c, content[i + 1])) {
      std::string text = content.substr(i, 2);
      advance(2);
      out.tokens.push_back({TokKind::kPunct, std::move(text), tok_line, ""});
    } else {
      advance(1);
      out.tokens.push_back({TokKind::kPunct, std::string(1, c), tok_line, ""});
    }
  }

  return out;
}

}  // namespace wlm::lint
