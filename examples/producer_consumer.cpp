//===- examples/producer_consumer.cpp - The paper's Section 2 examples ----------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Reproduces the paper's two didactic cases live:
//   Figure 2: producer-consumer over one shared cell — the consumer's
//     rms stays O(1) while its trms counts every value produced.
//   Figure 3: buffered kernel reads where only half the delivered data
//     is consumed — trms counts exactly the consumed half, all external.
//
// Usage: ./build/examples/producer_consumer [--items=N]
//
//===----------------------------------------------------------------------===//

#include "core/TrmsProfiler.h"
#include "instr/Dispatcher.h"
#include "support/CommandLine.h"
#include "workloads/Runner.h"

#include <cstdio>

using namespace isp;

static void report(const char *Title, const ProfiledRun &Run,
                   const char *RoutineName) {
  auto Merged = Run.Profile.mergedByRoutine();
  RoutineId Id = Run.Symbols.lookup(RoutineName);
  if (Id == ~0u || !Merged.count(Id)) {
    std::fprintf(stderr, "routine %s not found\n", RoutineName);
    return;
  }
  const RoutineProfile &Profile = Merged.at(Id);
  std::printf("%s\n  routine %-14s rms(sum)=%-6llu trms(sum)=%-6llu "
              "thread-induced=%-6llu external=%llu\n",
              Title, RoutineName,
              static_cast<unsigned long long>(Profile.sumRms()),
              static_cast<unsigned long long>(Profile.sumTrms()),
              static_cast<unsigned long long>(Profile.inducedThread()),
              static_cast<unsigned long long>(Profile.inducedExternal()));
}

int main(int Argc, char **Argv) {
  OptionParser Options("Reproduces the paper's Figure 2 (producer-"
                       "consumer) and Figure 3 (buffered read) examples");
  Options.addIntOption("items", "64", 0, INT64_MAX,
                       "values produced / iterations");
  if (!Options.parse(Argc, Argv))
    return 1;
  WorkloadParams Params;
  Params.Size = static_cast<uint64_t>(Options.getInt("items"));

  const WorkloadInfo *Fig2 = findWorkload("producer_consumer");
  const WorkloadInfo *Fig3 = findWorkload("buffered_read");
  if (!Fig2 || !Fig3) {
    std::fprintf(stderr, "workloads missing from registry\n");
    return 1;
  }

  ProfiledRun Run2 = profileWorkload(*Fig2, Params);
  if (!Run2.Run.Ok) {
    std::fprintf(stderr, "%s\n", Run2.Run.Error.c_str());
    return 1;
  }
  report("Figure 2 - producer/consumer over one cell:", Run2, "consumer");
  std::printf("  -> rms misses the stream entirely; trms grows with the "
              "%lld items.\n\n",
              static_cast<long long>(Params.Size));

  ProfiledRun Run3 = profileWorkload(*Fig3, Params);
  if (!Run3.Run.Ok) {
    std::fprintf(stderr, "%s\n", Run3.Run.Error.c_str());
    return 1;
  }
  report("Figure 3 - buffered reads, half the data consumed:", Run3,
         "externalRead");
  std::printf("  -> the kernel delivered %lld values but only the ~%lld "
              "actually read count as input, all external.\n",
              static_cast<long long>(2 * Params.Size),
              static_cast<long long>(Params.Size));
  return 0;
}
