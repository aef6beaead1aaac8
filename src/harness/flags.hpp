// lfbst: tiny shared flag parser for the reproduction binaries and
// example applications. No dependency
// beyond the standard library; flags are --name=value or --name value.
//
// A binary that names the flags it reads gets `--help` (print them,
// exit 0) and a check for misspelt flags (print usage to stderr, exit
// 2) before it starts any work:
//
//   const bench::flags flags(argc, argv, {"threads", "millis", "json"});
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <vector>

namespace lfbst::bench {

class flags {
 public:
  flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  /// As above, for a binary that reads exactly the flags in `known`.
  /// `--help` prints them to stdout and exits 0; any other `--name` not
  /// in `known` prints them to stderr and exits 2.
  flags(int argc, char** argv, std::initializer_list<const char*> known)
      : flags(argc, argv) {
    const std::string prog = argc > 0 ? argv[0] : "prog";
    const std::string bad = unknown_flag(known);
    if (bad == "help") {
      std::fputs(usage(prog, known).c_str(), stdout);
      std::exit(0);
    }
    if (!bad.empty()) {
      std::fprintf(stderr, "%s: unknown flag --%s\n%s", prog.c_str(),
                   bad.c_str(), usage(prog, known).c_str());
      std::exit(2);
    }
  }

  /// The first `--name` argument whose name is not in `known` ("help"
  /// when `--help` comes first), or "" when every flag is known.
  [[nodiscard]] std::string unknown_flag(
      std::initializer_list<const char*> known) const {
    for (const std::string& arg : args_) {
      if (arg.size() <= 2 || arg.rfind("--", 0) != 0) continue;
      const std::string name = arg.substr(2, arg.find('=') - 2);
      bool found = false;
      for (const char* k : known) found = found || name == k;
      if (!found) return name;
    }
    return "";
  }

  /// The usage text: one line per flag in `known`, then --help.
  [[nodiscard]] static std::string usage(
      const std::string& prog, std::initializer_list<const char*> known) {
    std::string out =
        "usage: " + prog + " [--flag=value | --flag value]...\nflags:\n";
    bool help_listed = false;
    for (const char* k : known) {
      out += std::string("  --") + k + "\n";
      help_listed = help_listed || std::string(k) == "help";
    }
    if (!help_listed) out += "  --help\n";
    return out;
  }

  [[nodiscard]] bool has(const std::string& name) const {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (args_[i] == "--" + name) return true;
      if (args_[i].rfind("--" + name + "=", 0) == 0) return true;
    }
    return false;
  }

  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const {
    const std::string eq = "--" + name + "=";
    const std::string bare = "--" + name;
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (args_[i].rfind(eq, 0) == 0) return args_[i].substr(eq.size());
      if (args_[i] == bare && i + 1 < args_.size()) return args_[i + 1];
    }
    return fallback;
  }

  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const {
    const std::string v = get(name, "");
    return v.empty() ? fallback : std::strtoll(v.c_str(), nullptr, 10);
  }

  /// Comma-separated integer list flag, e.g. --threads=1,2,4,8.
  [[nodiscard]] std::vector<std::int64_t> get_int_list(
      const std::string& name, std::vector<std::int64_t> fallback) const {
    const std::string v = get(name, "");
    if (v.empty()) return fallback;
    std::vector<std::int64_t> out;
    std::size_t pos = 0;
    while (pos < v.size()) {
      const std::size_t comma = v.find(',', pos);
      const std::string tok = v.substr(pos, comma - pos);
      out.push_back(std::strtoll(tok.c_str(), nullptr, 10));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    return out;
  }

 private:
  std::vector<std::string> args_;
};

}  // namespace lfbst::bench
