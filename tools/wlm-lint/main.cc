// wlm-lint: enforces the repo's determinism + hygiene contract over C++
// sources. See DESIGN.md "Static analysis architecture" and
// `wlm-lint --list-rules`.
//
// Usage: wlm-lint [options] [path...]   (default path: src)
//   --list-rules            print the rule catalog and exit
//   --layers FILE           layer DAG for rule T2 (default: auto-discover
//                           tools/wlm-lint/layers.toml; T2 layering is
//                           skipped when none is found)
//   --sarif FILE            also write findings as SARIF 2.1.0
//   --baseline FILE         drop findings listed in FILE before reporting
//   --write-baseline FILE   write the current findings as a baseline and
//                           exit 0
// Exit status: 0 when clean, 1 on findings, 2 on usage/config error.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "lint.h"

namespace {

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

/// Finds the checked-in layers.toml when --layers was not given: first
/// relative to the working directory, then relative to each input path
/// (so `wlm-lint /abs/repo/src` still picks up /abs/repo/tools/...).
std::string DiscoverLayers(const std::vector<std::string>& paths) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const std::string rel = "tools/wlm-lint/layers.toml";
  if (fs::exists(rel, ec)) return rel;
  for (const std::string& path : paths) {
    fs::path candidate = fs::path(path).parent_path() / rel;
    if (fs::exists(candidate, ec)) return candidate.string();
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  std::string layers_path;
  std::string sarif_path;
  std::string baseline_path;
  std::string write_baseline_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--list-rules") {
      for (const wlm::lint::RuleInfo& rule : wlm::lint::Rules()) {
        std::printf("%-4s %s\n", rule.id, rule.rationale);
      }
      return 0;
    }
    if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: wlm-lint [--list-rules] [--layers FILE] [--sarif FILE]\n"
          "                [--baseline FILE] [--write-baseline FILE] "
          "[path...]\n");
      return 0;
    }
    auto flag_value = [&](std::string* out) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "wlm-lint: %s needs a file argument\n",
                     arg.c_str());
        return false;
      }
      *out = argv[++i];
      return true;
    };
    if (arg == "--layers") {
      if (!flag_value(&layers_path)) return 2;
      continue;
    }
    if (arg == "--sarif") {
      if (!flag_value(&sarif_path)) return 2;
      continue;
    }
    if (arg == "--baseline") {
      if (!flag_value(&baseline_path)) return 2;
      continue;
    }
    if (arg == "--write-baseline") {
      if (!flag_value(&write_baseline_path)) return 2;
      continue;
    }
    if (arg.starts_with("-")) {
      std::fprintf(stderr, "wlm-lint: unknown flag '%s'\n", arg.c_str());
      return 2;
    }
    paths.push_back(arg);
  }
  if (paths.empty()) paths.push_back("src");

  wlm::lint::ProjectConfig config;
  if (layers_path.empty()) layers_path = DiscoverLayers(paths);
  if (!layers_path.empty()) {
    std::string content;
    if (!wlm::lint::ReadFile(layers_path, &content)) {
      std::fprintf(stderr, "wlm-lint: cannot read layers file '%s'\n",
                   layers_path.c_str());
      return 2;
    }
    std::string error;
    config.layers = wlm::lint::ParseLayersToml(content, &error);
    if (config.layers.empty()) {
      std::fprintf(stderr, "wlm-lint: %s (%s)\n", error.c_str(),
                   layers_path.c_str());
      return 2;
    }
  }

  std::vector<wlm::lint::Finding> findings =
      wlm::lint::LintPaths(paths, config);

  if (!write_baseline_path.empty()) {
    if (!WriteFile(write_baseline_path, wlm::lint::ToBaseline(findings))) {
      std::fprintf(stderr, "wlm-lint: cannot write baseline '%s'\n",
                   write_baseline_path.c_str());
      return 2;
    }
    std::fprintf(stderr, "wlm-lint: wrote %zu finding(s) to baseline %s\n",
                 findings.size(), write_baseline_path.c_str());
    return 0;
  }

  if (!baseline_path.empty()) {
    std::string content;
    if (!wlm::lint::ReadFile(baseline_path, &content)) {
      std::fprintf(stderr, "wlm-lint: cannot read baseline '%s'\n",
                   baseline_path.c_str());
      return 2;
    }
    findings = wlm::lint::ApplyBaseline(findings, content);
  }

  if (!sarif_path.empty() &&
      !WriteFile(sarif_path, wlm::lint::ToSarif(findings))) {
    std::fprintf(stderr, "wlm-lint: cannot write SARIF '%s'\n",
                 sarif_path.c_str());
    return 2;
  }

  for (const wlm::lint::Finding& finding : findings) {
    std::printf("%s\n", wlm::lint::FormatFinding(finding).c_str());
  }
  if (!findings.empty()) {
    std::fprintf(stderr, "wlm-lint: %zu finding(s)\n", findings.size());
    return 1;
  }
  return 0;
}
