//===- support/CommandLine.h - Tiny option parser ---------------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small command-line option parser for the example and benchmark
/// executables. Supports --name=value, --name value, --flag, and
/// positional arguments, with typed accessors and generated --help text.
/// Integer options carry a range and are checked by parse(), so a
/// malformed or out-of-range value never reaches the program.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_SUPPORT_COMMANDLINE_H
#define ISPROF_SUPPORT_COMMANDLINE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace isp {

/// Parses all of \p Text as a base-10 integer in [\p Min, \p Max].
/// Returns false, leaving \p Out untouched, on empty text, any
/// character that is not part of the number (trailing junk included),
/// or a value outside the range.
bool parseInteger(const std::string &Text, int64_t Min, int64_t Max,
                  int64_t *Out);

/// Declarative option set: register options with defaults, then parse.
class OptionParser {
public:
  explicit OptionParser(std::string ProgramDescription)
      : Description(std::move(ProgramDescription)) {}

  /// Registers an option. \p Name is used as "--Name".
  void addOption(const std::string &Name, const std::string &Default,
                 const std::string &Help);
  /// Registers an integer option whose value must lie in [\p Min,
  /// \p Max]; parse() rejects anything else.
  void addIntOption(const std::string &Name, const std::string &Default,
                    int64_t Min, int64_t Max, const std::string &Help);
  void addFlag(const std::string &Name, const std::string &Help);

  /// Parses argv. Returns false (after printing a diagnostic to stderr)
  /// on unknown options, duplicate options (each may be given at most
  /// once — a silently-overwriting repeat is almost always a typo in a
  /// long benchmark invocation), a missing value, or an integer option
  /// whose value is malformed or out of range; prints help and returns
  /// false for --help.
  bool parse(int Argc, const char *const *Argv);

  std::string getString(const std::string &Name) const;
  /// The value of an option registered with addIntOption.
  int64_t getInt(const std::string &Name) const;
  double getDouble(const std::string &Name) const;
  bool getFlag(const std::string &Name) const;

  const std::vector<std::string> &positional() const { return Positional; }

  std::string helpText() const;

private:
  struct Option {
    std::string Default;
    std::string Help;
    std::string Value;
    bool IsFlag = false;
    bool IsInt = false;
    int64_t Min = 0;
    int64_t Max = 0;
    bool Seen = false;
  };

  std::string Description;
  std::string ProgramName;
  std::map<std::string, Option> Options;
  std::vector<std::string> Positional;
};

} // namespace isp

#endif // ISPROF_SUPPORT_COMMANDLINE_H
