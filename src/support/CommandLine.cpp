//===- support/CommandLine.cpp - Tiny option parser -------------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "support/CommandLine.h"

#include <cassert>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

using namespace isp;

bool isp::parseInteger(const std::string &Text, int64_t Min, int64_t Max,
                       int64_t *Out) {
  // strtoll alone skips leading whitespace and stops at the first
  // non-digit; insist the whole text is one number.
  if (Text.empty() || !(Text[0] == '-' || Text[0] == '+' ||
                        (Text[0] >= '0' && Text[0] <= '9')))
    return false;
  char *End = nullptr;
  errno = 0;
  long long N = std::strtoll(Text.c_str(), &End, 10);
  if (End == Text.c_str() || *End != '\0' || errno == ERANGE || N < Min ||
      N > Max)
    return false;
  *Out = N;
  return true;
}

void OptionParser::addOption(const std::string &Name,
                             const std::string &Default,
                             const std::string &Help) {
  Option Opt;
  Opt.Default = Default;
  Opt.Value = Default;
  Opt.Help = Help;
  Options[Name] = Opt;
}

void OptionParser::addIntOption(const std::string &Name,
                                const std::string &Default, int64_t Min,
                                int64_t Max, const std::string &Help) {
  addOption(Name, Default, Help);
  Option &Opt = Options[Name];
  Opt.IsInt = true;
  Opt.Min = Min;
  Opt.Max = Max;
}

void OptionParser::addFlag(const std::string &Name, const std::string &Help) {
  Option Opt;
  Opt.Default = "false";
  Opt.Value = "false";
  Opt.Help = Help;
  Opt.IsFlag = true;
  Options[Name] = Opt;
}

bool OptionParser::parse(int Argc, const char *const *Argv) {
  ProgramName = Argc > 0 ? Argv[0] : "program";
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      std::fputs(helpText().c_str(), stdout);
      return false;
    }
    if (Arg.rfind("--", 0) != 0) {
      Positional.push_back(Arg);
      continue;
    }
    std::string Name = Arg.substr(2);
    std::string Value;
    bool HasValue = false;
    size_t Eq = Name.find('=');
    if (Eq != std::string::npos) {
      Value = Name.substr(Eq + 1);
      Name = Name.substr(0, Eq);
      HasValue = true;
    }
    auto It = Options.find(Name);
    if (It == Options.end()) {
      std::fprintf(stderr, "%s: unknown option --%s (try --help)\n",
                   ProgramName.c_str(), Name.c_str());
      return false;
    }
    Option &Opt = It->second;
    if (Opt.Seen) {
      std::fprintf(stderr,
                   "%s: duplicate option --%s (already set to '%s'; each "
                   "option may be given at most once)\n",
                   ProgramName.c_str(), Name.c_str(), Opt.Value.c_str());
      return false;
    }
    if (Opt.IsFlag) {
      Opt.Value = HasValue ? Value : "true";
    } else if (HasValue) {
      Opt.Value = Value;
    } else {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "%s: option --%s requires a value\n",
                     ProgramName.c_str(), Name.c_str());
        return false;
      }
      Opt.Value = Argv[++I];
    }
    Opt.Seen = true;
    int64_t Unused;
    if (Opt.IsInt && !parseInteger(Opt.Value, Opt.Min, Opt.Max, &Unused)) {
      std::fprintf(stderr,
                   "%s: invalid --%s value '%s' (expected an integer in "
                   "[%" PRId64 ", %" PRId64 "])\n",
                   ProgramName.c_str(), Name.c_str(), Opt.Value.c_str(),
                   Opt.Min, Opt.Max);
      return false;
    }
  }
  return true;
}

std::string OptionParser::getString(const std::string &Name) const {
  auto It = Options.find(Name);
  assert(It != Options.end() && "querying unregistered option");
  return It->second.Value;
}

int64_t OptionParser::getInt(const std::string &Name) const {
  auto It = Options.find(Name);
  assert(It != Options.end() && It->second.IsInt &&
         "getInt on an option not registered with addIntOption");
  const Option &Opt = It->second;
  int64_t N = 0;
  [[maybe_unused]] bool Ok = parseInteger(Opt.Value, Opt.Min, Opt.Max, &N);
  assert(Ok && "integer option default out of its own range");
  return N;
}

double OptionParser::getDouble(const std::string &Name) const {
  return std::strtod(getString(Name).c_str(), nullptr);
}

bool OptionParser::getFlag(const std::string &Name) const {
  std::string V = getString(Name);
  return V == "true" || V == "1" || V == "yes";
}

std::string OptionParser::helpText() const {
  std::string Out = Description + "\n\nOptions:\n";
  for (const auto &[Name, Opt] : Options) {
    Out += "  --" + Name;
    if (!Opt.IsFlag)
      Out += "=<value> (default: " + Opt.Default + ")";
    Out += "\n      " + Opt.Help + "\n";
  }
  return Out;
}
