// Tiny declarative CLI parser for examples and bench harnesses.
//
//   util::cli cli("table8", "Reproduce Table VIII");
//   cli.flag("verbose", "enable debug logging");
//   cli.opt("scale", "genome scale denominator", "256");
//   cli.positional("input", "cas-offinder input file", /*required=*/false);
//   if (!cli.parse(argc, argv)) return 1;   // prints usage on error/--help
//   u64 scale = cli.get_u64("scale");
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace util {

class cli {
 public:
  cli(std::string prog, std::string description);

  /// Boolean flag: --name (no value).
  void flag(const std::string& name, const std::string& help);
  /// Valued option: --name <value>, with default.
  void opt(const std::string& name, const std::string& help, std::string def);
  /// Repeatable valued option: every --name <value> occurrence accumulates.
  void multi(const std::string& name, const std::string& help);
  /// Positional argument, in declaration order.
  void positional(const std::string& name, const std::string& help, bool required);

  /// Returns false (after printing usage) on parse error or --help.
  bool parse(int argc, const char* const* argv);

  bool get_flag(const std::string& name) const;
  const std::string& get(const std::string& name) const;
  /// Every value a repeatable option collected, in command-line order.
  const std::vector<std::string>& get_multi(const std::string& name) const;
  u64 get_u64(const std::string& name) const;
  double get_double(const std::string& name) const;
  /// Positional by name; empty if absent (only valid for optional ones).
  const std::string& get_positional(const std::string& name) const;

  void print_usage() const;

 private:
  struct opt_spec {
    std::string help;
    std::string value;   // default, then parsed
    bool is_flag = false;
    bool seen = false;
    bool is_multi = false;
    std::vector<std::string> values{};  // multi options accumulate here
  };
  struct pos_spec {
    std::string name;
    std::string help;
    bool required;
    std::string value;
  };

  std::string prog_;
  std::string description_;
  std::map<std::string, opt_spec> opts_;
  std::vector<pos_spec> positionals_;
};

}  // namespace util
