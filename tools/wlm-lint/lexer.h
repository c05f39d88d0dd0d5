#ifndef WLM_TOOLS_WLM_LINT_LEXER_H_
#define WLM_TOOLS_WLM_LINT_LEXER_H_

#include <string>
#include <vector>

namespace wlm::lint {

enum class TokKind {
  kIdent,   // identifiers and keywords
  kNumber,  // numeric literals
  kString,  // string literals (text not preserved)
  kChar,    // character literals
  kPunct,   // operators and punctuation; multi-char for ::, ->, +=, -=, [[, ]]
};

struct Token {
  TokKind kind;
  std::string text;
  int line = 0;
  /// For kString only: the literal's raw contents (escapes unprocessed).
  /// Kept out of `text` so delimiter matching never sees string innards.
  std::string value;
};

/// A comment with the line span it covers. `text` excludes the delimiters.
struct Comment {
  int line = 0;      // first line
  int end_line = 0;  // last line (== line for // comments)
  std::string text;
};

/// One `#include` directive, in file order.
struct IncludeDirective {
  int line = 0;
  std::string path;    // the include path without quotes/brackets
  bool angled = false; // <...> vs "..."
};

/// Token stream plus the side tables the rules need. Comments and
/// preprocessor lines are not tokens: rules see pure code, suppression
/// directives are read from `comments`, include hygiene from `includes`,
/// and the names macros use from `macro_idents`.
struct LexedFile {
  std::vector<Token> tokens;
  std::vector<Comment> comments;
  std::vector<IncludeDirective> includes;
  /// Identifiers on `#define` lines, macro bodies included.
  std::vector<std::string> macro_idents;
};

/// Tokenizes C++ source. Handles //, /* */, string/char literals with
/// escapes, raw strings R"delim(...)delim", digit separators,
/// line-continued preprocessor directives, and trailing // comments on
/// preprocessor lines (so suppressions on an #include line are seen).
LexedFile Lex(const std::string& content);

}  // namespace wlm::lint

#endif  // WLM_TOOLS_WLM_LINT_LEXER_H_
