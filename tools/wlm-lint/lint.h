#ifndef WLM_TOOLS_WLM_LINT_LINT_H_
#define WLM_TOOLS_WLM_LINT_LINT_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.h"

namespace wlm::lint {

/// One rule violation. `rule` is the short id ("D1", "T2", ...).
struct Finding {
  std::string path;
  int line = 0;
  std::string rule;
  std::string message;

  bool operator==(const Finding&) const = default;
};

/// Rule catalog entry, for --list-rules, SARIF rule metadata and docs.
struct RuleInfo {
  const char* id;
  const char* rationale;
};

/// All rules the linter knows, in id order.
const std::vector<RuleInfo>& Rules();

/// One in-memory translation unit for whole-project analysis.
struct SourceFile {
  std::string path;
  std::string content;
};

/// Whole-project analysis configuration.
struct ProjectConfig {
  /// Module (first directory under src/) -> layer rank, from layers.toml.
  /// A file may only include modules of strictly lower rank (rule T2).
  /// Empty map: the layering check is skipped (cycle detection still runs).
  std::map<std::string, int> layers;
};

/// Parses the `[layers]` table of a layers.toml ("module = rank" lines).
/// On malformed or empty input sets *error and returns an empty map.
std::map<std::string, int> ParseLayersToml(const std::string& content,
                                           std::string* error);

/// Names of variables/members in `file` declared with an unordered
/// container type (`std::unordered_map<...> foo_;`). Exposed so the tree
/// driver can feed a .cc file the members declared in its own header.
std::set<std::string> CollectUnorderedVars(const LexedFile& file);

/// Lints one translation unit with the per-file rules only (no symbol
/// graph — T1-T4 need the whole project; see LintProject). `path` is
/// the repo-relative path (rules D1/D3/H1 are scoped by directory).
/// `extra_unordered_vars` are names known to be unordered containers from
/// elsewhere (the self header).
std::vector<Finding> LintSource(
    const std::string& path, const std::string& content,
    const std::set<std::string>& extra_unordered_vars = {});

/// Whole-project analysis: per-file rules on every file, plus the
/// graph-aware passes — T1 clock/RNG taint propagation over the call
/// graph, T2 layer-DAG + include-cycle enforcement over the include
/// graph, T3 metric/event registry consistency, T4 unused public API.
/// Files under bench/, examples/, perfbench/src/ or tests/ are T4 users:
/// indexed for the names they mention, never linted.
std::vector<Finding> LintProject(const std::vector<SourceFile>& files,
                                 const ProjectConfig& config = {});

/// Lints every .h/.cc under `paths` (files or directories, recursed)
/// through LintProject, resolving self headers for cross-file member
/// types. For a path inside a library src/ directory, the rest of that
/// src/ and its sibling bench/, examples/, perfbench/src/ and tests/ are
/// read as T4 users. Paths are processed in sorted order so output is
/// deterministic. Unreadable paths produce a finding under rule "IO".
std::vector<Finding> LintPaths(const std::vector<std::string>& paths,
                               const ProjectConfig& config = {});

/// Reads a whole file into *content; false when it cannot be opened.
bool ReadFile(const std::string& path, std::string* content);

/// Formats a finding as "path:line: [RULE] message".
std::string FormatFinding(const Finding& finding);

/// Serializes findings as a SARIF 2.1.0 log (static analysis results
/// interchange format, consumed by GitHub code scanning). Byte-stable:
/// the same findings always serialize to the same bytes.
std::string ToSarif(const std::vector<Finding>& findings);

/// Baseline file: header comment plus one `rule<TAB>path<TAB>message`
/// line per finding (line numbers intentionally omitted so edits above a
/// known finding don't invalidate the baseline).
std::string ToBaseline(const std::vector<Finding>& findings);

/// Removes findings matched by `baseline_content`. Each baseline line
/// absorbs at most one finding with the same rule, path and message, so
/// *new* occurrences of a baselined pattern still fail the build.
std::vector<Finding> ApplyBaseline(const std::vector<Finding>& findings,
                                   const std::string& baseline_content);

}  // namespace wlm::lint

#endif  // WLM_TOOLS_WLM_LINT_LINT_H_
