// Revision stamps for the tracked BENCH_*.json files, shared by the
// harnesses that write one (bench_engine_hot, bench_sweep_scale,
// bench_search).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>

namespace asyncrv::bench {

/// The first line a shell command prints (line ending stripped), or "" when
/// it cannot run or prints nothing.
inline std::string first_output_line(const char* command) {
  std::string line;
  if (FILE* p = popen(command, "r")) {
    char buf[64] = {0};
    if (fgets(buf, sizeof(buf), p) != nullptr) line.assign(buf);
    pclose(p);
  }
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.pop_back();
  }
  return line;
}

/// The revision a bench file is generated from: $GITHUB_SHA when set, else
/// `git rev-parse --short HEAD` with "-dirty" appended when a tracked file
/// differs from HEAD (numbers measured on uncommitted code must not claim a
/// clean commit), else "unknown".
inline std::string git_rev() {
  if (const char* sha = std::getenv("GITHUB_SHA")) return sha;
  std::string rev = first_output_line("git rev-parse --short HEAD 2>/dev/null");
  if (rev.empty()) return "unknown";
  if (!first_output_line("git status --porcelain --untracked-files=no 2>/dev/null")
           .empty()) {
    rev += "-dirty";
  }
  return rev;
}

/// The git_rev recorded in an existing bench JSON, or "" if the file is
/// absent/unparseable.
inline std::string baseline_rev(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::string key = "\"git_rev\": \"";
  const auto at = text.find(key);
  if (at == std::string::npos) return "";
  const auto end = text.find('"', at + key.size());
  if (end == std::string::npos) return "";
  return text.substr(at + key.size(), end - (at + key.size()));
}

/// Warns on stderr when the bench JSON at `path` was generated at another
/// revision than `rev`: comparing numbers across revisions silently is how
/// stale baselines hide regressions.
inline void warn_if_stale(const std::string& path, const std::string& rev) {
  const std::string prior = baseline_rev(path);
  if (!prior.empty() && prior != rev && rev != "unknown") {
    std::cerr << "warning: " << path << " was generated at git_rev " << prior
              << " but HEAD is " << rev
              << " — regenerate the tracked baseline before comparing\n";
  }
}

}  // namespace asyncrv::bench
