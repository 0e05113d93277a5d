//===- bench/bench_case_studies.cpp - Reproduces Figures 4-9 ---------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// The Section 3 case studies:
//   Figure 4: mysql_select worst-case plots by rms vs trms — by rms the
//     routine looks superlinear on a handful of points (buffer reuse
//     caps the measured input); by trms it is linear in the true input.
//   Figure 5: im_generate (vips) — same effect, thread-induced.
//   Figure 6: buf_flush_buffered_writes — trms reveals superlinear
//     growth that rms under-measures; standard curve fitting applied.
//   Figure 7: wbuffer_write_thread — profile richness: a couple of rms
//     points vs many trms points once external + thread input counts.
//   Figure 8: Protocol::send_eof workload plots by rms vs trms.
//   Figure 9: per-routine external vs thread-induced characterization
//     for both applications.
//
// Usage: bench_case_studies [--clients=4] [--size=112]
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/Metrics.h"
#include "core/Report.h"
#include "support/CommandLine.h"
#include "support/Csv.h"
#include "support/Gnuplot.h"
#include "support/Format.h"
#include "support/Table.h"

#include <cstdio>

using namespace isp;

namespace {

const RoutineProfile *
profileOf(const std::map<RoutineId, RoutineProfile> &Merged,
          const SymbolTable &Symbols, const char *Name) {
  RoutineId Id = Symbols.lookup(Name);
  auto It = Merged.find(Id);
  return It == Merged.end() ? nullptr : &It->second;
}

void dumpPlots(CsvWriter &Csv, const std::string &Figure,
               const std::string &Routine, const RoutineProfile &Profile) {
  GnuplotFigure Gp(Routine + " worst-case running time", "input size",
                   "cost (basic blocks)");
  for (InputMetric Metric : {InputMetric::Rms, InputMetric::Trms}) {
    const char *MetricName = Metric == InputMetric::Rms ? "rms" : "trms";
    PlotSeries Series;
    Series.Name = std::string("by ") + MetricName;
    for (const FitPoint &P : worstCasePlot(Profile, Metric)) {
      Csv.addRow({Figure, Routine, MetricName, formatString("%.0f", P.N),
                  formatString("%.0f", P.Cost)});
      Series.Points.emplace_back(P.N, P.Cost);
    }
    Gp.addSeries(std::move(Series));
  }
  std::string Base = benchOutputPath(Figure + "_" + Routine);
  if (Gp.write(Base))
    std::printf("  gnuplot: %s.gp\n", Base.c_str());
}

void reportWorstCase(const char *Figure, const char *Claim,
                     const RoutineProfile &Profile) {
  FitResult ByRms = fitWorstCase(Profile, InputMetric::Rms);
  FitResult ByTrms = fitWorstCase(Profile, InputMetric::Trms);
  std::printf("  by rms : %3zu points, fit %-10s (power-law alpha %5.2f)\n",
              Profile.distinctRmsValues(),
              growthModelName(ByRms.best().Model), ByRms.PowerLawAlpha);
  std::printf("  by trms: %3zu points, fit %-10s (power-law alpha %5.2f)\n",
              Profile.distinctTrmsValues(),
              growthModelName(ByTrms.best().Model), ByTrms.PowerLawAlpha);
  std::printf("  paper's claim: %s\n", Claim);
}

void reportFigure9(const char *Title, const ProfileDatabase &Db,
                   const SymbolTable &Symbols) {
  printBanner(Title);
  auto Merged = Db.mergedByRoutine();
  TextTable Table;
  Table.setHeader({"routine", "induced", "external%", "thread-induced%"});
  for (const RoutineMetrics &M : computeRoutineMetrics(Db)) {
    auto It = Merged.find(M.Rtn);
    if (It == Merged.end())
      continue;
    uint64_t Induced =
        It->second.inducedThread() + It->second.inducedExternal();
    if (Induced == 0)
      continue;
    Table.addRow({Symbols.routineName(M.Rtn), formatWithCommas(Induced),
                  formatString("%.1f", M.ExternalPct),
                  formatString("%.1f", M.ThreadInducedPct)});
  }
  std::printf("%s", Table.render().c_str());
  RunMetrics Run = computeRunMetrics(Db);
  std::printf("run-level split: %.1f%% thread-induced / %.1f%% external\n",
              Run.ThreadInducedPct, Run.ExternalPct);
}

} // namespace

int main(int Argc, char **Argv) {
  OptionParser Options("Reproduces the Section 3 case studies "
                       "(Figures 4-9)");
  Options.addIntOption("clients", "4", 1, MaxGuestThreads,
                       "dbserver client threads / vips workers");
  Options.addIntOption("size", "112", 0, INT64_MAX, "workload scale");
  if (!Options.parse(Argc, Argv))
    return 1;

  WorkloadParams Params;
  Params.Threads = static_cast<unsigned>(Options.getInt("clients"));
  Params.Size = static_cast<uint64_t>(Options.getInt("size"));

  CsvWriter Csv;
  Csv.addRow({"figure", "routine", "metric", "input_size", "max_cost"});

  // --- MySQL-like case study. ---
  Measurement Db = measureWorkload(*findWorkload("dbserver"), Params,
                                   "aprof-trms");
  if (!Db.Ok) {
    std::fprintf(stderr, "dbserver: %s\n", Db.Error.c_str());
    return 1;
  }
  auto DbMerged = Db.Profile.mergedByRoutine();

  if (const RoutineProfile *Select =
          profileOf(DbMerged, Db.Symbols, "mysql_select")) {
    printBanner("Figure 4: mysql_select worst-case running time");
    reportWorstCase("4",
                    "rms collapses to few points / inflated growth; trms "
                    "is linear in the scanned table",
                    *Select);
    dumpPlots(Csv, "fig4", "mysql_select", *Select);
  }

  if (const RoutineProfile *Flush =
          profileOf(DbMerged, Db.Symbols, "buf_flush_buffered_writes")) {
    printBanner("Figure 6: buf_flush_buffered_writes with curve fitting");
    reportWorstCase("6",
                    "trms shows clearly superlinear growth (alpha > 1.3, "
                    "superlinear model) from the drain-and-sort pass, "
                    "while the rms axis is capped at the ring size and "
                    "cannot expose the batch-size dependence",
                    *Flush);
    dumpPlots(Csv, "fig6", "buf_flush_buffered_writes", *Flush);
  }

  if (const RoutineProfile *Eof =
          profileOf(DbMerged, Db.Symbols, "protocol_send_eof")) {
    printBanner("Figure 8: Protocol::send_eof workload plots");
    std::printf("  activations per input size (by rms): %zu distinct "
                "sizes\n",
                workloadPlot(*Eof, InputMetric::Rms).size());
    std::printf("  activations per input size (by trms): %zu distinct "
                "sizes\n",
                workloadPlot(*Eof, InputMetric::Trms).size());
    std::printf("%s",
                renderSeries(workloadPlot(*Eof, InputMetric::Trms), "trms",
                             "activations")
                    .c_str());
  }

  reportFigure9("Figure 9a: MySQL-like per-routine induced-input split",
                Db.Profile, Db.Symbols);

  // --- vips-like case study. ---
  Measurement Vips = measureWorkload(*findWorkload("vips_pipeline"),
                                     Params, "aprof-trms");
  if (!Vips.Ok) {
    std::fprintf(stderr, "vips: %s\n", Vips.Error.c_str());
    return 1;
  }
  auto VipsMerged = Vips.Profile.mergedByRoutine();

  if (const RoutineProfile *Generate =
          profileOf(VipsMerged, Vips.Symbols, "im_generate")) {
    printBanner("Figure 5: im_generate worst-case running time");
    reportWorstCase("5",
                    "rms misses thread-induced strip refreshes; trms "
                    "restores the linear relation",
                    *Generate);
    dumpPlots(Csv, "fig5", "im_generate", *Generate);
  }

  if (const RoutineProfile *Writer =
          profileOf(VipsMerged, Vips.Symbols, "wbuffer_write_thread")) {
    printBanner("Figure 7: wbuffer_write_thread profile richness");
    uint64_t Induced =
        Writer->inducedThread() + Writer->inducedExternal();
    std::printf("  (a) by rms:  %zu distinct input values over %llu "
                "activations\n",
                Writer->distinctRmsValues(),
                static_cast<unsigned long long>(Writer->activations()));
    std::printf("  (b,c) by trms: %zu distinct input values\n",
                Writer->distinctTrmsValues());
    std::printf("  induced share of its input: %.1f%% (%llu thread, %llu "
                "external; paper reports 99.9%%)\n",
                Writer->sumTrms()
                    ? 100.0 * static_cast<double>(Induced) /
                          static_cast<double>(Writer->sumTrms())
                    : 0.0,
                static_cast<unsigned long long>(Writer->inducedThread()),
                static_cast<unsigned long long>(Writer->inducedExternal()));
    dumpPlots(Csv, "fig7", "wbuffer_write_thread", *Writer);
  }

  reportFigure9("Figure 9b: vips-like per-routine induced-input split",
                Vips.Profile, Vips.Symbols);

  std::string CsvPath = benchOutputPath("figures4_9.csv");
  if (Csv.writeToFile(CsvPath))
    std::printf("\nraw plot data written to %s\n", CsvPath.c_str());
  return 0;
}
