// rill_lint CLI — see lint.hpp for the rules and waiver syntax.
//
// Usage:
//   rill_lint [options] [paths...]
//
//   paths                files or directories to scan, relative to --root
//                        (default: src bench tools)
//   --root DIR           repository root (default: .)
//   --allow PREFIX       extra path prefix exempt from R1 (repeatable)
//   --list               print scanned file paths and exit
//
// Exit codes: 0 clean, 1 findings, 2 usage/IO error.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hpp"

namespace fs = std::filesystem;

namespace {

bool has_source_ext(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".hpp" ||
         ext == ".hh" || ext == ".h";
}

int usage(std::ostream& os, int code) {
  os << "usage: rill_lint [--root DIR] [--allow PREFIX]... [--list]\n"
        "                 [paths...]\n"
        "default paths: src bench tools\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  bool list_only = false;
  rill::lint::Options opts;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "rill_lint: " << flag << " requires a value\n";
        std::exit(usage(std::cerr, 2));
      }
      return argv[++i];
    };
    if (arg == "--root") {
      root = value("--root");
    } else if (arg == "--allow") {
      opts.wallclock_allowlist.push_back(value("--allow"));
    } else if (arg == "--list") {
      list_only = true;
    } else if (arg == "-h" || arg == "--help") {
      return usage(std::cout, 0);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "rill_lint: unknown option '" << arg << "'\n";
      return usage(std::cerr, 2);
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) paths = {"src", "bench", "tools"};

  // Collect the file set (sorted for deterministic output) and read it.
  std::set<std::string> rel_paths;
  for (const std::string& p : paths) {
    const fs::path abs = fs::path(root) / p;
    std::error_code ec;
    if (fs::is_regular_file(abs, ec)) {
      rel_paths.insert(fs::path(p).generic_string());
    } else if (fs::is_directory(abs, ec)) {
      for (const auto& entry : fs::recursive_directory_iterator(abs, ec)) {
        if (entry.is_regular_file() && has_source_ext(entry.path())) {
          rel_paths.insert(
              fs::relative(entry.path(), root, ec).generic_string());
        }
      }
    } else {
      std::cerr << "rill_lint: no such file or directory: " << abs.string()
                << "\n";
      return 2;
    }
  }

  std::vector<rill::lint::SourceFile> files;
  for (const std::string& rel : rel_paths) {
    if (list_only) {
      std::cout << rel << "\n";
      continue;
    }
    std::ifstream in(fs::path(root) / rel, std::ios::binary);
    if (!in) {
      std::cerr << "rill_lint: cannot read " << rel << "\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    files.push_back({rel, buf.str()});
  }
  if (list_only) return 0;

  const std::vector<rill::lint::Finding> findings =
      rill::lint::run(files, opts);
  for (const rill::lint::Finding& f : findings) {
    std::cout << f.file << ":" << f.line << ":" << f.col << ": [" << f.rule
              << "] " << f.message << "\n    hint: " << f.hint << "\n";
  }
  std::cout << "rill_lint: scanned " << files.size() << " file(s), "
            << findings.size() << " finding(s)\n";
  return findings.empty() ? 0 : 1;
}
