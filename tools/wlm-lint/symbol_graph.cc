#include "symbol_graph.h"

#include <algorithm>

namespace wlm::lint {

namespace {

/// "…/src/core/request.h" -> "core/request.h"; "" when not under a src/.
std::string ModulePathOf(const std::string& path) {
  std::vector<std::string> parts = Components(path);
  size_t src = parts.size();
  for (size_t i = 0; i + 1 < parts.size(); ++i) {
    if (parts[i] == "src") src = i;
  }
  if (src >= parts.size()) return "";
  std::string out;
  for (size_t i = src + 1; i < parts.size(); ++i) {
    if (!out.empty()) out += '/';
    out += parts[i];
  }
  return out;
}

std::string DirOf(const std::string& path) {
  size_t slash = path.find_last_of("/\\");
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

/// Identifiers that can precede `(` without being a function call or a
/// definable function name: control flow, operators-in-disguise, builtin
/// types (casts), and declaration keywords.
bool IsNonCallName(const std::string& text) {
  static const std::set<std::string> kSet = {
      "if",         "else",        "for",          "while",
      "do",         "switch",      "case",         "return",
      "sizeof",     "alignof",     "alignas",      "decltype",
      "static_assert",             "new",          "delete",
      "throw",      "catch",       "defined",      "operator",
      "void",       "bool",        "char",         "short",
      "int",        "long",        "float",        "double",
      "unsigned",   "signed",      "auto",         "noexcept",
      "typeid",     "template",    "typename",     "using",
      "namespace",  "class",       "struct",       "enum",
      "union",      "public",      "private",      "protected",
      "const_cast", "static_cast", "dynamic_cast", "reinterpret_cast",
  };
  return kSet.count(text) > 0;
}

/// Matches a function/method definition whose name token is at `i`:
/// `name [<targs>] ( params ) [cv/ref/noexcept/override/final]
/// [-> type] [: init-list] {`. Returns the indices of the parameter
/// list's `)` and the body's `{`.
bool MatchFunctionDef(const std::vector<Token>& toks, size_t i,
                      size_t* params_close, size_t* body_open) {
  if (toks[i].kind != TokKind::kIdent || IsNonCallName(toks[i].text)) {
    return false;
  }
  if (i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->")) {
    return false;  // member access, never a definition
  }
  size_t open = i + 1;
  if (TextIs(toks, open, "<")) {
    open = SkipTemplateArgs(toks, open);  // explicit specialization
    if (open >= toks.size()) return false;
  }
  if (!TextIs(toks, open, "(")) return false;
  size_t close = MatchDelim(toks, open, "(", ")");
  if (close >= toks.size()) return false;

  size_t j = close + 1;
  while (j < toks.size()) {
    const std::string& t = toks[j].text;
    if (t == "const" || t == "override" || t == "final" || t == "mutable" ||
        t == "&" || t == "&&") {
      ++j;
      continue;
    }
    if (t == "noexcept") {
      ++j;
      if (TextIs(toks, j, "(")) j = MatchDelim(toks, j, "(", ")") + 1;
      continue;
    }
    if (t == "->") {  // trailing return type
      ++j;
      while (j < toks.size() && toks[j].text != "{" && toks[j].text != ";" &&
             toks[j].text != "=") {
        if (toks[j].text == "<") {
          j = SkipTemplateArgs(toks, j);
          continue;
        }
        ++j;
      }
      continue;
    }
    if (t == ":") {  // constructor initializer list
      ++j;
      while (j < toks.size()) {
        while (j < toks.size() &&
               (toks[j].kind == TokKind::kIdent || toks[j].text == "::")) {
          ++j;
        }
        if (TextIs(toks, j, "<")) j = SkipTemplateArgs(toks, j);
        if (TextIs(toks, j, "(")) {
          j = MatchDelim(toks, j, "(", ")") + 1;
        } else if (TextIs(toks, j, "{")) {
          j = MatchDelim(toks, j, "{", "}") + 1;
        } else {
          return false;
        }
        if (TextIs(toks, j, ",")) {
          ++j;
          continue;
        }
        break;
      }
      continue;
    }
    break;
  }
  if (!TextIs(toks, j, "{")) return false;
  *params_close = close;
  *body_open = j;
  return true;
}

/// Keywords after which `name(` is an expression, never a declarator.
bool IsExpressionKeyword(const std::string& text) {
  return text == "return" || text == "new" || text == "delete" ||
         text == "throw" || text == "case" || text == "else" ||
         text == "co_return" || text == "co_yield" || text == "co_await";
}

/// True when `name(` at `i` declares or defines a function: a return
/// type (identifier, `>`, `*`, `&`), `~` or `operator` precedes it,
/// possibly through a `Class::` qualifier chain. Sets *qualified for
/// `Class::name` (an out-of-line definition).
bool IsDeclaratorName(const std::vector<Token>& toks, size_t i,
                      bool* qualified) {
  size_t k = i;
  while (k >= 2 && toks[k - 1].text == "::" &&
         toks[k - 2].kind == TokKind::kIdent) {
    k -= 2;
  }
  *qualified = k != i;
  if (k == 0) return false;
  const Token& prev = toks[k - 1];
  if (prev.kind == TokKind::kIdent) return !IsExpressionKeyword(prev.text);
  return prev.text == ">" || prev.text == "*" || prev.text == "&" ||
         prev.text == "~";
}

/// Adds every identifier of `file` except its declarator names to
/// graph->used_names.
void RecordUses(const LexedFile& file, const std::vector<Declarator>& decls,
                SymbolGraph* graph) {
  std::vector<bool> declares(file.tokens.size(), false);
  for (const Declarator& d : decls) declares[d.name] = true;
  for (size_t i = 0; i < file.tokens.size(); ++i) {
    if (file.tokens[i].kind == TokKind::kIdent && !declares[i]) {
      graph->used_names.insert(file.tokens[i].text);
    }
  }
  graph->used_names.insert(file.macro_idents.begin(), file.macro_idents.end());
}

void AddCall(FunctionDef* fn, const std::string& callee, int line) {
  for (const CallSite& call : fn->calls) {
    if (call.callee == callee) return;  // dedupe; first line wins
  }
  fn->calls.push_back({callee, line});
}

bool IsMetricSurface(const std::string& text) {
  return text == "SetHelp" || text == "GetCounter" || text == "GetGauge" ||
         text == "GetHistogram";
}

}  // namespace

bool TextIs(const std::vector<Token>& toks, size_t i, const char* text) {
  return i < toks.size() && toks[i].text == text;
}

size_t SkipTemplateArgs(const std::vector<Token>& toks, size_t open) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (toks[i].text == "<") ++depth;
    if (toks[i].text == ">" && --depth == 0) return i + 1;
    if (toks[i].text == ";") break;  // malformed; bail
  }
  return toks.size();
}

size_t MatchDelim(const std::vector<Token>& toks, size_t open,
                  const char* open_text, const char* close_text) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (toks[i].text == open_text) ++depth;
    if (toks[i].text == close_text && --depth == 0) return i;
  }
  return toks.size();
}

std::vector<std::string> Components(const std::string& path) {
  std::vector<std::string> out;
  std::string part;
  for (char c : path) {
    if (c == '/' || c == '\\') {
      if (!part.empty()) out.push_back(part);
      part.clear();
    } else {
      part += c;
    }
  }
  if (!part.empty()) out.push_back(part);
  return out;
}

const std::set<std::string>& EntropyTypeNames() {
  static const std::set<std::string> kSet = {
      "random_device", "system_clock",          "steady_clock",
      "high_resolution_clock", "mt19937",       "mt19937_64",
      "minstd_rand",   "default_random_engine", "knuth_b",
  };
  return kSet;
}

const std::set<std::string>& EntropyCallNames() {
  static const std::set<std::string> kSet = {
      "rand",      "srand",        "time",   "clock",
      "getenv",    "gettimeofday", "localtime", "gmtime",
      "timespec_get",
  };
  return kSet;
}

std::string EntropyUseAt(const std::vector<Token>& toks, size_t i) {
  if (toks[i].kind != TokKind::kIdent) return "";
  const std::string& text = toks[i].text;
  bool any_use = EntropyTypeNames().count(text) > 0;
  bool call = EntropyCallNames().count(text) > 0;
  if (!any_use && !call) return "";
  // Member access (`event.time`, `obj->clock`) is project data, not the
  // C library.
  if (i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->")) {
    return "";
  }
  // Qualified by a namespace other than std/std::chrono: not the banned
  // entity.
  if (i > 1 && toks[i - 1].text == "::") {
    const std::string& ns = toks[i - 2].text;
    if (ns != "std" && ns != "chrono") return "";
  }
  if (call) {
    // Must look like a call, and not a declaration (`double time(` — a
    // preceding type identifier means this *names* something new).
    if (!TextIs(toks, i + 1, "(")) return "";
    if (i > 0 && toks[i - 1].kind == TokKind::kIdent &&
        toks[i - 1].text != "return") {
      return "";
    }
  }
  return text;
}

std::vector<Declarator> ScanDeclarators(const std::vector<Token>& toks) {
  struct Scope {
    size_t close;  // token index of the scope's `}`
    bool visible;  // no anonymous namespace or non-public section above
    bool is_class;
    bool public_section;
    std::string name;  // class name, for constructors
  };
  std::vector<Declarator> out;
  std::vector<Scope> stack;
  auto in_class = [&] { return !stack.empty() && stack.back().is_class; };
  auto visible_here = [&] {
    return stack.empty() ||
           (stack.back().visible && stack.back().public_section);
  };

  size_t i = 0;
  while (i < toks.size()) {
    if (!stack.empty() && i >= stack.back().close) {
      stack.pop_back();
      ++i;
      continue;
    }
    const Token& t = toks[i];
    if (t.text == "{") {  // initializer or other block
      i = MatchDelim(toks, i, "{", "}") + 1;
      continue;
    }
    if (t.kind != TokKind::kIdent) {
      ++i;
      continue;
    }
    if (t.text == "namespace" || t.text == "enum" || t.text == "class" ||
        t.text == "struct" || t.text == "union") {
      // A definition reaches `{` before `;` (or, for a class, before `>`,
      // `(`, `,` or `=`: a template parameter or elaborated type).
      const bool is_class = t.text != "namespace" && t.text != "enum";
      std::string name;
      size_t j = i + 1;
      while (j < toks.size() && toks[j].text != "{" && toks[j].text != ";") {
        const std::string& u = toks[j].text;
        if (is_class && (u == ">" || u == "(" || u == "," || u == "=")) break;
        if (u == "<") {
          j = SkipTemplateArgs(toks, j);
          continue;
        }
        if (name.empty() && toks[j].kind == TokKind::kIdent) name = u;
        ++j;
      }
      if (!TextIs(toks, j, "{") || t.text == "enum") {
        i = TextIs(toks, j, "{") ? MatchDelim(toks, j, "{", "}") + 1 : i + 1;
        continue;
      }
      // An anonymous namespace hides what it holds; a class starts in
      // its default section.
      stack.push_back({MatchDelim(toks, j, "{", "}"),
                       visible_here() && (is_class || !name.empty()),
                       is_class, t.text != "class", name});
      i = j + 1;
      continue;
    }
    if (in_class() && TextIs(toks, i + 1, ":") &&
        (t.text == "public" || t.text == "private" || t.text == "protected")) {
      stack.back().public_section = t.text == "public";
      i += 2;
      continue;
    }
    if (!TextIs(toks, i + 1, "(") || IsNonCallName(t.text) ||
        (i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->"))) {
      ++i;
      continue;
    }

    size_t close = 0;
    size_t end = 0;  // the body's `{`, or a declaration's `;`
    const bool is_def = MatchFunctionDef(toks, i, &close, &end);
    bool qualified = false;
    bool declarator = IsDeclaratorName(toks, i, &qualified);
    bool exempt = false;  // virtual, override, friend, defaulted, ...
    if (!is_def) {  // a declaration ends `;`, `= 0;`, `= default;`, ...
      close = MatchDelim(toks, i + 1, "(", ")");
      end = close + 1;
      while (end < toks.size() && toks[end].text != ";" &&
             toks[end].text != "=" && toks[end].text != "{" &&
             toks[end].text != "}") {
        ++end;
      }
      if (TextIs(toks, end, "=")) {
        exempt = true;
        end += 2;
      }
      declarator = declarator && TextIs(toks, end, ";");
    }
    if (declarator) {
      for (size_t j = close + 1; j < end; ++j) {
        exempt |= toks[j].text == "override" || toks[j].text == "final";
      }
      size_t start = i;
      while (start > 0 && toks[start - 1].text != ";" &&
             toks[start - 1].text != "{" && toks[start - 1].text != "}" &&
             toks[start - 1].text != ":") {
        const std::string& u = toks[--start].text;
        // `static` outside a class: internal linkage.
        exempt |= u == "virtual" || u == "friend" || u == "operator" ||
                  u == "~" || (u == "static" && !in_class());
      }
      const bool ctor = in_class() && stack.back().name == t.text;
      out.push_back({i, start, in_class(), visible_here(),
                     !exempt && !ctor && !qualified && visible_here()});
    }
    i = is_def ? MatchDelim(toks, end, "{", "}") + 1
               : (declarator ? end + 1 : i + 1);
  }
  return out;
}

void IndexFile(const std::string& path, const LexedFile& file,
               SymbolGraph* graph) {
  std::string module_path = ModulePathOf(path);
  std::string module;
  size_t slash = module_path.find('/');
  if (slash != std::string::npos) module = module_path.substr(0, slash);
  graph->files.push_back({path, module_path, module, file.includes});

  const std::vector<Token>& toks = file.tokens;
  struct Region {
    size_t fn;     // index into graph->functions
    size_t close;  // token index of the body's `}`
  };
  std::vector<Region> stack;

  for (size_t i = 0; i < toks.size(); ++i) {
    while (!stack.empty() && i > stack.back().close) stack.pop_back();

    // `enum class WlmEventType { kA, kB = 3, ... }` enumerators.
    if (toks[i].kind == TokKind::kIdent && toks[i].text == "enum" &&
        TextIs(toks, i + 1, "class") && TextIs(toks, i + 2, "WlmEventType")) {
      size_t j = i + 3;
      while (j < toks.size() && toks[j].text != "{" && toks[j].text != ";") {
        ++j;
      }
      if (TextIs(toks, j, "{")) {
        size_t end = MatchDelim(toks, j, "{", "}");
        for (size_t k = j + 1; k < end; ++k) {
          if (toks[k].kind != TokKind::kIdent) continue;
          graph->event_decls.push_back({toks[k].text, path, toks[k].line});
          // Skip `= value` up to the separating comma.
          while (k < end && toks[k].text != ",") ++k;
        }
        i = end;
        continue;
      }
    }

    // `WlmEventType::kX` mentions, with their enclosing function.
    if (toks[i].kind == TokKind::kIdent && toks[i].text == "WlmEventType" &&
        TextIs(toks, i + 1, "::") && i + 2 < toks.size() &&
        toks[i + 2].kind == TokKind::kIdent) {
      std::string enclosing =
          stack.empty() ? std::string()
                        : graph->functions[stack.back().fn].name;
      graph->event_uses.push_back(
          {toks[i + 2].text, path, toks[i + 2].line, enclosing});
    }

    // Metric registration/emission: first `wlm_*` string literal inside
    // the call's parentheses names the series (or its composed prefix).
    if (toks[i].kind == TokKind::kIdent && IsMetricSurface(toks[i].text) &&
        TextIs(toks, i + 1, "(")) {
      size_t close = MatchDelim(toks, i + 1, "(", ")");
      for (size_t k = i + 2; k < close && k < toks.size(); ++k) {
        if (toks[k].kind != TokKind::kString) continue;
        if (toks[k].value.rfind("wlm_", 0) != 0) continue;
        graph->metric_refs.push_back({toks[k].value, path, toks[k].line,
                                      toks[i].text == "SetHelp"});
        break;
      }
    }

    // Function/method definition.
    size_t params_close = 0;
    size_t body_open = 0;
    if (MatchFunctionDef(toks, i, &params_close, &body_open)) {
      size_t body_close = MatchDelim(toks, body_open, "{", "}");
      graph->functions.push_back({toks[i].text, path, toks[i].line, {}, {}});
      stack.push_back({graph->functions.size() - 1, body_close});
      // Resume after the parameter list: decorations and the ctor init
      // list are scanned as part of the new region (member initializers
      // may call helpers), the parameter list itself is not.
      i = params_close;
      continue;
    }

    if (stack.empty()) continue;
    FunctionDef& fn = graph->functions[stack.back().fn];

    std::string entropy = EntropyUseAt(toks, i);
    if (!entropy.empty()) {
      fn.entropy_uses.push_back({entropy, toks[i].line});
    }

    // Call site: `callee(` — or `Type var(args)`, which constructs Type.
    if (toks[i].kind == TokKind::kIdent && TextIs(toks, i + 1, "(") &&
        !IsNonCallName(toks[i].text)) {
      std::string callee = toks[i].text;
      if (i > 0 && toks[i - 1].kind == TokKind::kIdent &&
          toks[i - 1].text != "return") {
        // Declaration `Thing t(args)`: the constructed type is the callee.
        callee = IsNonCallName(toks[i - 1].text) ? std::string()
                                                 : toks[i - 1].text;
      }
      if (!callee.empty()) AddCall(&fn, callee, toks[i].line);
    }
  }

  std::vector<Declarator> decls = ScanDeclarators(toks);
  if (path.ends_with(".h")) {
    for (const Declarator& d : decls) {
      if (d.api) {
        graph->public_api.push_back({toks[d.name].text, path,
                                     toks[d.name].line});
      }
    }
  }
  RecordUses(file, decls, graph);
}

void IndexUses(const LexedFile& file, SymbolGraph* graph) {
  RecordUses(file, ScanDeclarators(file.tokens), graph);
}

void FinalizeGraph(SymbolGraph* graph) {
  std::sort(graph->functions.begin(), graph->functions.end(),
            [](const FunctionDef& a, const FunctionDef& b) {
              return std::tie(a.path, a.line, a.name) <
                     std::tie(b.path, b.line, b.name);
            });
  std::sort(graph->files.begin(), graph->files.end(),
            [](const ProjectFile& a, const ProjectFile& b) {
              return a.path < b.path;
            });

  graph->functions_by_name.clear();
  for (size_t i = 0; i < graph->functions.size(); ++i) {
    graph->functions_by_name[graph->functions[i].name].push_back(i);
  }

  graph->file_index.clear();
  std::map<std::string, size_t> by_module_path;
  for (size_t i = 0; i < graph->files.size(); ++i) {
    graph->file_index[graph->files[i].path] = i;
    if (!graph->files[i].module_path.empty()) {
      by_module_path[graph->files[i].module_path] = i;
    }
  }

  graph->resolved_includes.clear();
  for (size_t i = 0; i < graph->files.size(); ++i) {
    const ProjectFile& from = graph->files[i];
    for (const IncludeDirective& inc : from.includes) {
      if (inc.angled) continue;
      size_t target = graph->files.size();
      auto exact = graph->file_index.find(inc.path);
      auto modular = by_module_path.find(inc.path);
      if (exact != graph->file_index.end()) {
        target = exact->second;
      } else if (modular != by_module_path.end()) {
        target = modular->second;
      } else {
        std::string dir = DirOf(from.path);
        if (!dir.empty()) {
          auto sibling = graph->file_index.find(dir + "/" + inc.path);
          if (sibling != graph->file_index.end()) target = sibling->second;
        }
      }
      if (target < graph->files.size() && target != i) {
        graph->resolved_includes[i].push_back({target, inc.line});
      }
    }
  }

  std::sort(graph->metric_refs.begin(), graph->metric_refs.end(),
            [](const MetricRef& a, const MetricRef& b) {
              return std::tie(a.name, a.path, a.line) <
                     std::tie(b.name, b.path, b.line);
            });
  std::sort(graph->event_decls.begin(), graph->event_decls.end(),
            [](const EventTypeDecl& a, const EventTypeDecl& b) {
              return std::tie(a.enumerator, a.path, a.line) <
                     std::tie(b.enumerator, b.path, b.line);
            });
  std::sort(graph->public_api.begin(), graph->public_api.end(),
            [](const ApiDecl& a, const ApiDecl& b) {
              return std::tie(a.path, a.line, a.name) <
                     std::tie(b.path, b.line, b.name);
            });
  std::sort(graph->event_uses.begin(), graph->event_uses.end(),
            [](const EventTypeUse& a, const EventTypeUse& b) {
              return std::tie(a.enumerator, a.path, a.line) <
                     std::tie(b.enumerator, b.path, b.line);
            });
}

}  // namespace wlm::lint
