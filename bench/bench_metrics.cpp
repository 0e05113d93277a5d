//===- bench/bench_metrics.cpp - Reproduces Figures 15-19 ------------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// The trms-vs-rms benefit study over a representative benchmark set:
//   Figure 15: routine profile richness curves ("x% of routines have
//              richness >= y").
//   Figure 16: per-routine input volume curves.
//   Figure 17: benchmark-level induced first-access split (external vs
//              thread-induced, each access counted once), sorted by
//              decreasing thread-induced share.
//   Figure 18: per-routine thread-induced input curves.
//   Figure 19: per-routine external input curves.
//
// Expected shape: richness is >= 0 for almost every routine and very
// large for the I/O / communication routines; ~5-10% of routines carry
// nearly all induced input; the OMP kernels cluster at the
// thread-induced end of Figure 17 while dbserver sits at the external
// end.
//
// Usage: bench_metrics [--threads=4] [--size=80]
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/Metrics.h"
#include "support/CommandLine.h"
#include "support/Csv.h"
#include "support/Format.h"
#include "support/Table.h"

#include <algorithm>
#include <cstdio>

using namespace isp;

namespace {

struct BenchmarkMetrics {
  std::string Name;
  std::vector<RoutineMetrics> Routines;
  RunMetrics Run;
};

/// Prints a compact tail-distribution curve at fixed percentiles.
void printCurve(const std::string &Benchmark,
                const std::vector<std::pair<double, double>> &Points,
                const char *Format) {
  std::printf("  %-16s", Benchmark.c_str());
  const double Percentiles[] = {2, 5, 10, 20, 40, 70, 100};
  for (double Pct : Percentiles) {
    double Value = 0;
    bool Have = false;
    for (const auto &[X, Y] : Points) {
      if (X >= Pct - 1e-9) {
        Value = Y;
        Have = true;
        break;
      }
    }
    if (!Have && !Points.empty()) {
      Value = Points.back().second;
      Have = true;
    }
    if (Have)
      std::printf(Format, Value);
    else
      std::printf("      -");
  }
  std::printf("\n");
}

void printCurveHeader(const char *Metric) {
  std::printf("  %-16s", "x% of routines");
  for (double Pct : {2, 5, 10, 20, 40, 70, 100})
    std::printf("%6.0f%%", Pct);
  std::printf("   (value: %s at that percentile)\n", Metric);
}

} // namespace

int main(int Argc, char **Argv) {
  OptionParser Options("Reproduces Figures 15-19: trms-vs-rms profile "
                       "richness, input volume, induced-input splits");
  Options.addIntOption("threads", "4", 1, MaxGuestThreads, "worker threads");
  Options.addIntOption("size", "80", 0, INT64_MAX, "problem scale");
  if (!Options.parse(Argc, Argv))
    return 1;

  WorkloadParams Params;
  Params.Threads = static_cast<unsigned>(Options.getInt("threads"));
  Params.Size = static_cast<uint64_t>(Options.getInt("size"));

  // A representative mix: compute-bound OMP kernels, pipelines, the
  // server, and the wavefront codes.
  const std::vector<std::string> Benchmarks = {
      "nab",  "smithwa",   "applu331",      "botsalgn", "md",
      "dedup", "vips_pipeline", "fluidanimate", "dbserver"};

  std::vector<BenchmarkMetrics> All;
  CsvWriter Csv;
  Csv.addRow({"benchmark", "routine", "activations", "distinct_trms",
              "distinct_rms", "richness", "input_volume",
              "thread_induced_pct", "external_pct"});

  for (const std::string &Name : Benchmarks) {
    const WorkloadInfo *W = findWorkload(Name);
    Measurement M = measureWorkload(*W, Params, "aprof-trms");
    if (!M.Ok) {
      std::fprintf(stderr, "%s: %s\n", Name.c_str(), M.Error.c_str());
      return 1;
    }
    BenchmarkMetrics B;
    B.Name = Name;
    B.Routines = computeRoutineMetrics(M.Profile);
    B.Run = computeRunMetrics(M.Profile);
    for (const RoutineMetrics &R : B.Routines)
      Csv.addRow({Name, M.Symbols.routineName(R.Rtn),
                  std::to_string(R.Activations),
                  std::to_string(R.DistinctTrms),
                  std::to_string(R.DistinctRms),
                  formatString("%.4f", R.ProfileRichness),
                  formatString("%.4f", R.InputVolume),
                  formatString("%.2f", R.ThreadInducedPct),
                  formatString("%.2f", R.ExternalPct)});
    All.push_back(std::move(B));
  }

  // Figure 15: profile richness tails.
  printBanner("Figure 15: routine profile richness "
              "(|trms|-|rms|)/|rms|");
  printCurveHeader("richness");
  uint64_t NegativeRichness = 0, TotalRoutines = 0;
  for (const BenchmarkMetrics &B : All) {
    std::vector<double> Values;
    for (const RoutineMetrics &R : B.Routines) {
      Values.push_back(R.ProfileRichness);
      ++TotalRoutines;
      if (R.ProfileRichness < 0)
        ++NegativeRichness;
    }
    printCurve(B.Name, tailDistribution(Values), "%7.2f");
  }
  std::printf("  negative-richness routines: %llu of %llu (paper: "
              "statistically intangible)\n",
              static_cast<unsigned long long>(NegativeRichness),
              static_cast<unsigned long long>(TotalRoutines));

  // Figure 16: input volume tails.
  printBanner("Figure 16: routine input volume 1 - sum(rms)/sum(trms)");
  printCurveHeader("input volume");
  for (const BenchmarkMetrics &B : All) {
    std::vector<double> Values;
    for (const RoutineMetrics &R : B.Routines)
      Values.push_back(R.InputVolume);
    printCurve(B.Name, tailDistribution(Values), "%7.3f");
  }

  // Figure 17: benchmark-level split, sorted by thread-induced share.
  printBanner("Figure 17: external vs thread-induced input per benchmark");
  std::vector<const BenchmarkMetrics *> Sorted;
  for (const BenchmarkMetrics &B : All)
    Sorted.push_back(&B);
  std::sort(Sorted.begin(), Sorted.end(),
            [](const BenchmarkMetrics *L, const BenchmarkMetrics *R) {
              return L->Run.ThreadInducedPct > R->Run.ThreadInducedPct;
            });
  TextTable SplitTable;
  SplitTable.setHeader({"benchmark", "thread-induced%", "external%",
                        "induced accesses"});
  for (const BenchmarkMetrics *B : Sorted)
    SplitTable.addRow(
        {B->Name, formatString("%.1f", B->Run.ThreadInducedPct),
         formatString("%.1f", B->Run.ExternalPct),
         formatWithCommas(B->Run.InducedThread + B->Run.InducedExternal)});
  std::printf("%s", SplitTable.render().c_str());

  // Figures 18 and 19: per-routine induced-kind tails.
  printBanner("Figure 18: thread-induced input per routine (% of its "
              "induced accesses)");
  printCurveHeader("thread-induced %");
  for (const BenchmarkMetrics &B : All) {
    std::vector<double> Values;
    for (const RoutineMetrics &R : B.Routines)
      Values.push_back(R.ThreadInducedPct);
    printCurve(B.Name, tailDistribution(Values), "%7.1f");
  }

  printBanner("Figure 19: external input per routine (% of its induced "
              "accesses)");
  printCurveHeader("external %");
  for (const BenchmarkMetrics &B : All) {
    std::vector<double> Values;
    for (const RoutineMetrics &R : B.Routines)
      Values.push_back(R.ExternalPct);
    printCurve(B.Name, tailDistribution(Values), "%7.1f");
  }

  std::string CsvPath = benchOutputPath("figures15_19.csv");
  if (Csv.writeToFile(CsvPath))
    std::printf("\nraw data written to %s\n", CsvPath.c_str());
  return 0;
}
