#ifndef WLM_TOOLS_WLM_LINT_SYMBOL_GRAPH_H_
#define WLM_TOOLS_WLM_LINT_SYMBOL_GRAPH_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.h"

namespace wlm::lint {

// ---------------------------------------------------------------------------
// Token and path helpers shared by the per-file rules and the graph passes.
// ---------------------------------------------------------------------------

bool TextIs(const std::vector<Token>& toks, size_t i, const char* text);
/// Index just past the `>` matching the `<` at `open` (which must be "<").
size_t SkipTemplateArgs(const std::vector<Token>& toks, size_t open);
/// Index of the `)`/`}` matching the opener at `open`.
size_t MatchDelim(const std::vector<Token>& toks, size_t open,
                  const char* open_text, const char* close_text);
/// Path components, split on '/' and '\\'.
std::vector<std::string> Components(const std::string& path);

/// A function declared or defined at namespace or class scope, by token
/// index. `is_public` means a public member, or a namespace-scope
/// function, outside anonymous namespaces. `api` marks a T4 candidate:
/// public, unqualified, and not virtual, override, friend, static at
/// namespace scope, defaulted, deleted, a constructor, a destructor or an
/// operator.
struct Declarator {
  size_t name = 0;   // the name token
  size_t start = 0;  // first token of the declaration
  bool in_class = false;
  bool is_public = false;
  bool api = false;
};

/// Walks the namespace and class scopes of a file and returns every
/// function declarator seen there. Function bodies, initializers and enum
/// bodies are skipped whole: a name inside them is a use.
std::vector<Declarator> ScanDeclarators(const std::vector<Token>& toks);

// ---------------------------------------------------------------------------
// Entropy vocabulary, shared by the per-token rule D1 and the flow-aware
// taint pass T1 so both agree on what counts as a nondeterminism source.
// ---------------------------------------------------------------------------

/// Identifiers banned on any use (entropy/clock types and engines).
const std::set<std::string>& EntropyTypeNames();

/// Identifiers banned when they look like a C-library call.
const std::set<std::string>& EntropyCallNames();

/// Returns the banned entity named by `toks[i]` if it is an entropy/clock
/// use (applying the member-access, foreign-namespace and declaration
/// filters), or "" if the token is innocent.
std::string EntropyUseAt(const std::vector<Token>& toks, size_t i);

// ---------------------------------------------------------------------------
// The project-wide symbol graph: function definitions with their call
// sites, resolved include edges, and the telemetry registry surfaces
// (metric names, event-type enumerators). Built by one lexer pass over
// every translation unit — no libclang, the same token stream the
// per-file rules already see.
// ---------------------------------------------------------------------------

/// One call site (or entropy use) inside a function body.
struct CallSite {
  std::string callee;
  int line = 0;
};

/// One function or method definition (a body was seen, not just a
/// declaration). `name` is the last component of the declarator
/// (`FaultInjector::Begin` indexes as `Begin`).
struct FunctionDef {
  std::string name;
  std::string path;
  int line = 0;
  std::vector<CallSite> calls;         // deduped by callee, first line wins
  std::vector<CallSite> entropy_uses;  // banned clock/RNG uses in the body
};

/// A `wlm_*` metric name appearing as the first string argument of
/// SetHelp (registration) or GetCounter/GetGauge/GetHistogram (emission).
struct MetricRef {
  std::string name;  // may be a prefix when composed: "wlm_requests_"
  std::string path;
  int line = 0;
  bool registered = false;  // SetHelp vs Get*
};

/// One enumerator of `enum class WlmEventType`.
struct EventTypeDecl {
  std::string enumerator;
  std::string path;
  int line = 0;
};

/// One `WlmEventType::kX` mention, with its lexically enclosing function
/// ("" at namespace/class scope — e.g. a member default initializer).
struct EventTypeUse {
  std::string enumerator;
  std::string path;
  int line = 0;
  std::string enclosing_function;
};

/// One public function declared (or defined inline) in a header: a
/// candidate for the unused-API rule T4. Virtual and override methods,
/// constructors, destructors, operators, friends and defaulted or deleted
/// functions are never candidates.
struct ApiDecl {
  std::string name;
  std::string path;
  int line = 0;
};

/// Per-file node of the include graph.
struct ProjectFile {
  std::string path;         // as scanned
  std::string module_path;  // components after the last "src": "core/request.h"
  std::string module;       // first component of module_path ("core")
  std::vector<IncludeDirective> includes;
};

struct SymbolGraph {
  std::vector<FunctionDef> functions;  // (path, line) order after Finalize
  std::map<std::string, std::vector<size_t>> functions_by_name;
  std::vector<ProjectFile> files;  // path order after Finalize
  std::map<std::string, size_t> file_index;  // path -> index in files
  /// Include edges resolved against the scanned set: from-file index ->
  /// (to-file index, include line). Unresolved includes (system headers,
  /// gtest, ...) are simply absent.
  std::map<size_t, std::vector<std::pair<size_t, int>>> resolved_includes;
  std::vector<MetricRef> metric_refs;
  std::vector<EventTypeDecl> event_decls;
  std::vector<EventTypeUse> event_uses;
  std::vector<ApiDecl> public_api;
  /// Every identifier mentioned anywhere, user files included, other than
  /// as the name in a function's own declaration or definition.
  std::set<std::string> used_names;
};

/// Indexes one lexed file into the graph (pre-Finalize).
void IndexFile(const std::string& path, const LexedFile& file,
               SymbolGraph* graph);

/// Records only the names `file` mentions (into `used_names`): how the
/// user files under bench/, examples/, perfbench/src/ and tests/, which
/// are never linted, take part in rule T4.
void IndexUses(const LexedFile& file, SymbolGraph* graph);

/// Sorts everything into deterministic order and resolves include edges.
/// Call once after the last IndexFile.
void FinalizeGraph(SymbolGraph* graph);

}  // namespace wlm::lint

#endif  // WLM_TOOLS_WLM_LINT_SYMBOL_GRAPH_H_
