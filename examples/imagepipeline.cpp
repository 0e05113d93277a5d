//===- examples/imagepipeline.cpp - The vips case study --------------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// The paper's vips case study (Section 3) on the vips_pipeline workload:
// a data-parallel image pipeline whose workers consume strips rewritten
// by a loader thread, with a write-behind output thread. Prints:
//   - im_generate's plots by rms vs trms (Figure 5),
//   - wbuffer_write_thread's profile richness and induced share
//     (Figure 7: two rms points vs many trms points, ~all induced),
//   - the per-routine induced split (Figure 9b).
//
// Usage: ./build/examples/imagepipeline [--workers=N] [--size=N]
//
//===----------------------------------------------------------------------===//

#include "core/Metrics.h"
#include "core/Report.h"
#include "support/CommandLine.h"
#include "workloads/Runner.h"

#include <cstdio>

using namespace isp;

int main(int Argc, char **Argv) {
  OptionParser Options("vips-like case study: image pipeline with "
                       "write-behind thread");
  Options.addIntOption("workers", "4", 1, MaxGuestThreads,
                       "pipeline worker threads");
  Options.addIntOption("size", "96", 0, INT64_MAX,
                       "workload scale (bands, tiles)");
  if (!Options.parse(Argc, Argv))
    return 1;

  const WorkloadInfo *Vips = findWorkload("vips_pipeline");
  WorkloadParams Params;
  Params.Threads = static_cast<unsigned>(Options.getInt("workers"));
  Params.Size = static_cast<uint64_t>(Options.getInt("size"));

  std::printf("profiling vips_pipeline with %u workers, scale %llu...\n\n",
              Params.Threads,
              static_cast<unsigned long long>(Params.Size));
  ProfiledRun Run = profileWorkload(*Vips, Params);
  if (!Run.Run.Ok) {
    std::fprintf(stderr, "%s\n", Run.Run.Error.c_str());
    return 1;
  }
  auto Merged = Run.Profile.mergedByRoutine();

  RoutineId Generate = Run.Symbols.lookup("im_generate");
  if (Merged.count(Generate)) {
    const RoutineProfile &Profile = Merged.at(Generate);
    std::printf("== im_generate (Figure 5) ==\n");
    std::printf("  by rms : %zu points, fit %s\n",
                Profile.distinctRmsValues(),
                formatFit(fitWorstCase(Profile, InputMetric::Rms).best())
                    .c_str());
    std::printf("  by trms: %zu points, fit %s\n",
                Profile.distinctTrmsValues(),
                formatFit(fitWorstCase(Profile, InputMetric::Trms).best())
                    .c_str());
    std::printf("  (the strip it convolves is rewritten by the loader "
                "thread: its real input is thread-induced)\n\n");
  }

  RoutineId Writer = Run.Symbols.lookup("wbuffer_write_thread");
  if (Merged.count(Writer)) {
    const RoutineProfile &Profile = Merged.at(Writer);
    uint64_t Induced = Profile.inducedThread() + Profile.inducedExternal();
    double InducedShare =
        Profile.sumTrms()
            ? 100.0 * static_cast<double>(Induced) /
                  static_cast<double>(Profile.sumTrms())
            : 0.0;
    std::printf("== wbuffer_write_thread (Figure 7) ==\n");
    std::printf("  activations: %llu\n",
                static_cast<unsigned long long>(Profile.activations()));
    std::printf("  distinct rms values : %zu\n",
                Profile.distinctRmsValues());
    std::printf("  distinct trms values: %zu\n",
                Profile.distinctTrmsValues());
    std::printf("  induced share of input: %.1f%% (%llu thread-induced, "
                "%llu external)\n\n",
                InducedShare,
                static_cast<unsigned long long>(Profile.inducedThread()),
                static_cast<unsigned long long>(Profile.inducedExternal()));
  }

  std::printf("== per-routine induced split (Figure 9b) ==\n");
  for (const RoutineMetrics &M : computeRoutineMetrics(Run.Profile)) {
    auto It = Merged.find(M.Rtn);
    if (It == Merged.end() ||
        It->second.inducedThread() + It->second.inducedExternal() == 0)
      continue;
    std::printf("  %-24s thread %.1f%%  external %.1f%%  (%.1f%% of its "
                "input is induced)\n",
                Run.Symbols.routineName(M.Rtn).c_str(), M.ThreadInducedPct,
                M.ExternalPct, M.InducedShareOfInputPct);
  }

  std::printf("\n%s\n", renderRunSummary(Run.Profile, &Run.Symbols).c_str());
  return 0;
}
