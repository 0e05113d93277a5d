//===- bench/bench_scaling.cpp - Reproduces the paper's Figure 14 ----------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Figure 14: average (a) time and (b) space overhead, relative to
// nulgrind, as a function of the number of spawned worker threads
// (1, 2, 4, 8, 16), over a set of OMP2012-like benchmarks.
//
// Expected shape: all tools scale smoothly with thread count; memcheck
// and callgrind space is ~flat (thread-independent analyses) while
// aprof-trms and helgrind grow modestly (per-thread shadow state whose
// total stays sublinear because threads partition the touched memory —
// the paper's three-level-table argument).
//
// Usage: bench_scaling [--size=72] [--benchmarks=md,ilbdc,fma3d,smithwa]
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "support/CommandLine.h"
#include "support/Csv.h"
#include "support/Format.h"
#include "support/Stats.h"
#include "support/Table.h"

#include <cstdio>

using namespace isp;

static std::vector<std::string> splitList(const std::string &Csv) {
  std::vector<std::string> Out;
  size_t Pos = 0;
  while (Pos <= Csv.size()) {
    size_t Comma = Csv.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = Csv.size();
    if (Comma > Pos)
      Out.push_back(Csv.substr(Pos, Comma - Pos));
    Pos = Comma + 1;
  }
  return Out;
}

int main(int Argc, char **Argv) {
  OptionParser Options("Reproduces Figure 14: overhead vs thread count");
  Options.addIntOption("size", "72", 0, INT64_MAX, "problem scale");
  Options.addOption("benchmarks", "md,ilbdc,fma3d,smithwa",
                    "comma-separated workload names");
  if (!Options.parse(Argc, Argv))
    return 1;

  std::vector<std::string> Benchmarks =
      splitList(Options.getString("benchmarks"));
  const unsigned ThreadCounts[] = {1, 2, 4, 8, 16};

  printBanner("Figure 14: overhead vs number of threads (relative to "
              "nulgrind)");

  CsvWriter Csv;
  Csv.addRow({"threads", "tool", "mean_slowdown_vs_nulgrind",
              "mean_space_vs_nulgrind"});

  TextTable TimeTable, SpaceTable;
  std::vector<std::string> Header = {"threads"};
  for (const std::string &ToolName : EvaluatedToolNames)
    if (ToolName != "native" && ToolName != "nulgrind")
      Header.push_back(ToolName);
  TimeTable.setHeader(Header);
  SpaceTable.setHeader(Header);

  for (unsigned Threads : ThreadCounts) {
    WorkloadParams Params;
    Params.Threads = Threads;
    Params.Size = static_cast<uint64_t>(Options.getInt("size"));

    // Per benchmark: nulgrind baseline, then each tool.
    std::map<std::string, std::vector<double>> TimeRatios, SpaceRatios;
    for (const std::string &Benchmark : Benchmarks) {
      const WorkloadInfo *W = findWorkload(Benchmark);
      if (!W) {
        std::fprintf(stderr, "unknown benchmark %s\n", Benchmark.c_str());
        return 1;
      }
      Measurement Nul = measureWorkload(*W, Params, "nulgrind");
      if (!Nul.Ok) {
        std::fprintf(stderr, "%s: %s\n", Benchmark.c_str(),
                     Nul.Error.c_str());
        return 1;
      }
      double NulBytes =
          static_cast<double>(Nul.GuestBytes + Nul.ToolBytes);
      for (const std::string &ToolName : EvaluatedToolNames) {
        if (ToolName == "native" || ToolName == "nulgrind")
          continue;
        Measurement M = measureWorkload(*W, Params, ToolName);
        if (!M.Ok) {
          std::fprintf(stderr, "%s under %s: %s\n", Benchmark.c_str(),
                       ToolName.c_str(), M.Error.c_str());
          return 1;
        }
        TimeRatios[ToolName].push_back(
            Nul.Seconds > 0 ? M.Seconds / Nul.Seconds : 0.0);
        SpaceRatios[ToolName].push_back(
            NulBytes > 0
                ? static_cast<double>(M.GuestBytes + M.ToolBytes) /
                      NulBytes
                : 0.0);
      }
    }

    std::vector<std::string> TimeRow = {std::to_string(Threads)};
    std::vector<std::string> SpaceRow = {std::to_string(Threads)};
    for (const std::string &ToolName : EvaluatedToolNames) {
      if (ToolName == "native" || ToolName == "nulgrind")
        continue;
      double MeanTime = geometricMean(TimeRatios[ToolName]);
      double MeanSpace = geometricMean(SpaceRatios[ToolName]);
      TimeRow.push_back(formatString("%.2f", MeanTime));
      SpaceRow.push_back(formatString("%.2f", MeanSpace));
      Csv.addRow({std::to_string(Threads), ToolName,
                  formatString("%.4f", MeanTime),
                  formatString("%.4f", MeanSpace)});
    }
    TimeTable.addRow(TimeRow);
    SpaceTable.addRow(SpaceRow);
  }

  std::printf("\n(a) mean time overhead vs nulgrind\n%s",
              TimeTable.render().c_str());
  std::printf("\n(b) mean space overhead vs nulgrind\n%s",
              SpaceTable.render().c_str());

  std::string CsvPath = benchOutputPath("figure14.csv");
  if (Csv.writeToFile(CsvPath))
    std::printf("\nraw data written to %s\n", CsvPath.c_str());
  return 0;
}
