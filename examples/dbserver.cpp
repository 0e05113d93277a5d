//===- examples/dbserver.cpp - The MySQL case study -----------------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// The paper's MySQL case study (Section 3) on the dbserver workload:
// profiles a table server under concurrent clients and prints, for the
// case-study routines,
//   - mysql_select:             worst-case plots by rms vs trms (Fig. 4),
//   - buf_flush_buffered_writes: fitted growth by rms vs trms (Fig. 6),
//   - protocol_send_eof:        workload plots (Fig. 8),
// plus the per-routine external/thread-induced split (Fig. 9a).
//
// Usage: ./build/examples/dbserver [--clients=N] [--size=N]
//
//===----------------------------------------------------------------------===//

#include "core/Metrics.h"
#include "core/Report.h"
#include "support/CommandLine.h"
#include "support/Format.h"
#include "support/Table.h"
#include "workloads/Runner.h"

#include <cstdio>

using namespace isp;

static const RoutineProfile *
lookupProfile(const std::map<RoutineId, RoutineProfile> &Merged,
              const SymbolTable &Symbols, const char *Name) {
  RoutineId Id = Symbols.lookup(Name);
  auto It = Merged.find(Id);
  return It == Merged.end() ? nullptr : &It->second;
}

int main(int Argc, char **Argv) {
  OptionParser Options("MySQL-like case study: input-sensitive profiles "
                       "of a table server under concurrent clients");
  Options.addIntOption("clients", "4", 1, MaxGuestThreads,
                       "concurrent client threads");
  Options.addIntOption("size", "96", 0, INT64_MAX,
                       "workload scale (table sizes, queries)");
  if (!Options.parse(Argc, Argv))
    return 1;

  const WorkloadInfo *Server = findWorkload("dbserver");
  WorkloadParams Params;
  Params.Threads = static_cast<unsigned>(Options.getInt("clients"));
  Params.Size = static_cast<uint64_t>(Options.getInt("size"));

  std::printf("profiling dbserver with %u clients, scale %llu...\n\n",
              Params.Threads,
              static_cast<unsigned long long>(Params.Size));
  ProfiledRun Run = profileWorkload(*Server, Params);
  if (!Run.Run.Ok) {
    std::fprintf(stderr, "%s\n", Run.Run.Error.c_str());
    return 1;
  }

  auto Merged = Run.Profile.mergedByRoutine();

  // Figure 4: the select scan, by rms and by trms.
  if (const RoutineProfile *Select =
          lookupProfile(Merged, Run.Symbols, "mysql_select")) {
    std::printf("== mysql_select (Figure 4) ==\n");
    FitResult ByRms = fitWorstCase(*Select, InputMetric::Rms);
    FitResult ByTrms = fitWorstCase(*Select, InputMetric::Trms);
    std::printf("  by rms : %zu plot points, fit %s\n",
                Select->distinctRmsValues(),
                formatFit(ByRms.best()).c_str());
    std::printf("  by trms: %zu plot points, fit %s\n",
                Select->distinctTrmsValues(),
                formatFit(ByTrms.best()).c_str());
    std::printf("  (buffer reuse caps the rms at the page-buffer size; "
                "the trms tracks the true table input)\n\n");
  }

  // Figure 6: the flush routine's superlinear ordering pass.
  if (const RoutineProfile *Flush = lookupProfile(
          Merged, Run.Symbols, "buf_flush_buffered_writes")) {
    std::printf("== buf_flush_buffered_writes (Figure 6) ==\n");
    FitResult ByRms = fitWorstCase(*Flush, InputMetric::Rms);
    FitResult ByTrms = fitWorstCase(*Flush, InputMetric::Trms);
    std::printf("  by rms : %s (alpha %.2f)\n",
                growthModelName(ByRms.best().Model), ByRms.PowerLawAlpha);
    std::printf("  by trms: %s (alpha %.2f)\n\n",
                growthModelName(ByTrms.best().Model), ByTrms.PowerLawAlpha);
  }

  // Figure 8: workload characterization of the protocol routine.
  if (const RoutineProfile *Eof =
          lookupProfile(Merged, Run.Symbols, "protocol_send_eof")) {
    std::printf("== protocol_send_eof workload plot (Figure 8) ==\n");
    std::printf("%s\n",
                renderSeries(workloadPlot(*Eof, InputMetric::Trms), "trms",
                             "activations")
                    .c_str());
  }

  // Figure 9a: per-routine external vs thread-induced split.
  std::printf("== external vs thread-induced input per routine "
              "(Figure 9a) ==\n");
  TextTable Table;
  Table.setHeader({"routine", "induced", "external%", "thread%"});
  for (const RoutineMetrics &M : computeRoutineMetrics(Run.Profile)) {
    uint64_t Induced = 0;
    auto It = Merged.find(M.Rtn);
    if (It != Merged.end())
      Induced = It->second.inducedThread() + It->second.inducedExternal();
    if (Induced == 0)
      continue;
    Table.addRow({Run.Symbols.routineName(M.Rtn),
                  formatWithCommas(Induced),
                  formatString("%.1f", M.ExternalPct),
                  formatString("%.1f", M.ThreadInducedPct)});
  }
  std::printf("%s\n", Table.render().c_str());

  std::printf("%s\n", renderRunSummary(Run.Profile, &Run.Symbols).c_str());
  return 0;
}
