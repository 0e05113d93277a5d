//===- bench/bench_table1.cpp - Reproduces the paper's Table 1 -------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Table 1: time slowdown and space overhead of aprof-trms against
// nulgrind, memcheck, callgrind, helgrind, and aprof-rms on the twelve
// OMP2012-like benchmarks at four threads.
//
// Columns mirror the paper: native seconds, then per-tool slowdown
// factors (relative to native); native MB, then per-tool space
// overheads ((guest + tool) / guest). A geometric-mean summary row
// closes each half, as in the paper.
//
// Expected shape (the paper's findings, which hold here):
//   nulgrind < callgrind < memcheck ~ aprof-rms < aprof-trms < helgrind
// for time, and modest (single-digit) space factors with aprof-trms
// slightly above aprof-rms (the extra global wts shadow).
//
// Usage: bench_table1 [--threads=4] [--size=96] [--repeats=1]
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

int main(int Argc, char **Argv) {
  OptionParser Options("Reproduces Table 1: tool comparison on the "
                       "OMP2012-like benchmarks");
  Options.addIntOption("threads", "4", 1, MaxGuestThreads,
                       "OpenMP-style worker threads");
  Options.addIntOption("size", "256", 0, INT64_MAX, "problem scale");
  Options.addIntOption("repeats", "3", 1, INT64_MAX,
                       "timing repetitions (keep fastest)");
  if (!Options.parse(Argc, Argv))
    return 1;

  WorkloadParams Params;
  Params.Threads = static_cast<unsigned>(Options.getInt("threads"));
  Params.Size = static_cast<uint64_t>(Options.getInt("size"));
  unsigned Repeats = static_cast<unsigned>(Options.getInt("repeats"));

  printBanner(formatString("Table 1: tool comparison, %u threads, scale "
                           "%llu",
                           Params.Threads,
                           static_cast<unsigned long long>(Params.Size)));

  std::vector<std::string> Benchmarks = workloadsInSuite("omp2012");
  CsvWriter Csv;
  Csv.addRow({"benchmark", "tool", "seconds", "slowdown", "guest_bytes",
              "tool_bytes", "space_overhead"});

  TextTable TimeTable;
  TextTable SpaceTable;
  std::vector<std::string> TimeHeader = {"benchmark", "native(s)"};
  std::vector<std::string> SpaceHeader = {"benchmark", "native"};
  for (const std::string &ToolName : EvaluatedToolNames) {
    if (ToolName == "native")
      continue;
    TimeHeader.push_back(ToolName);
    SpaceHeader.push_back(ToolName);
  }
  TimeTable.setHeader(TimeHeader);
  SpaceTable.setHeader(SpaceHeader);

  std::map<std::string, std::vector<double>> SlowdownSamples;
  std::map<std::string, std::vector<double>> SpaceSamples;

  for (const std::string &Benchmark : Benchmarks) {
    const WorkloadInfo *W = findWorkload(Benchmark);
    std::vector<std::string> TimeRow = {Benchmark};
    std::vector<std::string> SpaceRow = {Benchmark};
    double NativeSeconds = 0;
    uint64_t GuestBytes = 0;

    for (const std::string &ToolName : EvaluatedToolNames) {
      Measurement M = measureWorkload(*W, Params, ToolName, Repeats);
      if (!M.Ok) {
        std::fprintf(stderr, "%s under %s failed: %s\n", Benchmark.c_str(),
                     ToolName.c_str(), M.Error.c_str());
        return 1;
      }
      if (ToolName == "native") {
        NativeSeconds = M.Seconds;
        GuestBytes = M.GuestBytes;
        TimeRow.push_back(formatString("%.3f", NativeSeconds));
        SpaceRow.push_back(formatBytes(GuestBytes));
        Csv.addRow({Benchmark, ToolName, formatString("%.6f", M.Seconds),
                    "1.0", std::to_string(M.GuestBytes), "0", "1.0"});
        continue;
      }
      double Slowdown =
          NativeSeconds > 0 ? M.Seconds / NativeSeconds : 0.0;
      double SpaceOverhead =
          GuestBytes > 0
              ? static_cast<double>(M.GuestBytes + M.ToolBytes) /
                    static_cast<double>(GuestBytes)
              : 0.0;
      TimeRow.push_back(formatString("%.1f", Slowdown));
      SpaceRow.push_back(formatString("%.1f", SpaceOverhead));
      SlowdownSamples[ToolName].push_back(Slowdown);
      SpaceSamples[ToolName].push_back(SpaceOverhead);
      Csv.addRow({Benchmark, ToolName, formatString("%.6f", M.Seconds),
                  formatString("%.3f", Slowdown),
                  std::to_string(M.GuestBytes),
                  std::to_string(M.ToolBytes),
                  formatString("%.3f", SpaceOverhead)});
    }
    TimeTable.addRow(TimeRow);
    SpaceTable.addRow(SpaceRow);
  }

  std::vector<std::string> TimeMeanRow = {"geometric mean", ""};
  std::vector<std::string> SpaceMeanRow = {"geometric mean", ""};
  for (const std::string &ToolName : EvaluatedToolNames) {
    if (ToolName == "native")
      continue;
    TimeMeanRow.push_back(
        formatString("%.1f", geometricMean(SlowdownSamples[ToolName])));
    SpaceMeanRow.push_back(
        formatString("%.1f", geometricMean(SpaceSamples[ToolName])));
  }
  TimeTable.addSeparator();
  TimeTable.addRow(TimeMeanRow);
  SpaceTable.addSeparator();
  SpaceTable.addRow(SpaceMeanRow);

  std::printf("\nTime: slowdown vs native\n%s", TimeTable.render().c_str());
  std::printf("\nSpace: overhead vs native guest footprint\n%s",
              SpaceTable.render().c_str());

  double TrmsMean = geometricMean(SlowdownSamples["aprof-trms"]);
  double RmsMean = geometricMean(SlowdownSamples["aprof-rms"]);
  double HelMean = geometricMean(SlowdownSamples["helgrind"]);
  std::printf("\nShape checks (paper: aprof-trms ~38%% over aprof-rms; "
              "helgrind slowest):\n");
  std::printf("  aprof-trms / aprof-rms time ratio: %.2f\n",
              RmsMean > 0 ? TrmsMean / RmsMean : 0.0);
  std::printf("  helgrind / aprof-trms time ratio:  %.2f\n",
              TrmsMean > 0 ? HelMean / TrmsMean : 0.0);

  std::string CsvPath = benchOutputPath("table1.csv");
  if (Csv.writeToFile(CsvPath))
    std::printf("\nraw data written to %s\n", CsvPath.c_str());
  return 0;
}
