//===- perfbench/src/Inputs.cpp - Seed -> guest inputs --------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include "support/Random.h"
#include "workloads/Workload.h"

using namespace perfbench;

namespace {

// Guest sizes. Every size is fixed except the fleet's per-stream
// jitter, so the work per operation barely moves with the seed and the
// run-to-run spread measures the program, not the inputs.
constexpr uint64_t MdSize = 256;
constexpr uint64_t DbSize = 512;
constexpr unsigned FleetStreams = 16;
constexpr uint64_t FleetBaseSize = 192;
constexpr uint64_t FleetSizeStep = 16;
constexpr uint64_t FleetJitter = 8;

// md initialises its positions from a fixed formula; the benchmark
// replaces that formula with a seeded one so the seed reaches md's data
// (md reads no device and calls no rand()). The work per operation is
// the same for every seed: only pair_force's operands change.
const char *MdPositionInit = "pos[i] = i * 37 % 1024;";

void fnv(uint64_t &H, const void *Data, size_t Size) {
  const auto *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I != Size; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ULL;
  }
}

GuestInput guest(const std::string &Name, const std::string &Label,
                 uint64_t Size, uint64_t GuestSeed) {
  const isp::WorkloadInfo *W = isp::findWorkload(Name);
  GuestInput G;
  G.Label = Label;
  G.Size = Size;
  isp::WorkloadParams P;
  P.Size = Size;
  G.Source = W ? W->MakeSource(P) : std::string();
  G.Machine.Seed = GuestSeed;
  return G;
}

} // namespace

uint64_t WorkloadInputs::digest() const {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (const GuestInput &G : Guests) {
    fnv(H, G.Source.data(), G.Source.size());
    fnv(H, &G.Size, sizeof(G.Size));
    fnv(H, &G.Machine.Seed, sizeof(G.Machine.Seed));
  }
  return H;
}

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = {"live-md", "replay-dbserver",
                                                 "fleet-vips"};
  return Names;
}

bool perfbench::makeInputs(const std::string &Workload, uint64_t Seed,
                           WorkloadInputs &Out, std::string &Error) {
  Out = WorkloadInputs();
  Out.Workload = Workload;
  Out.Seed = Seed;
  isp::Rng R(Seed);
  if (Workload == "live-md") {
    GuestInput G = guest("md", "md", MdSize, R.next());
    size_t At = G.Source.find(MdPositionInit);
    if (At == std::string::npos) {
      Error = "md template no longer initialises pos[] as '" +
              std::string(MdPositionInit) + "'";
      return false;
    }
    uint64_t Mul = 2 * R.nextBelow(511) + 3, Add = R.nextBelow(1024);
    G.Source.replace(At, std::string(MdPositionInit).size(),
                     "pos[i] = (i * " + std::to_string(Mul) + " + " +
                         std::to_string(Add) + ") % 1024;");
    Out.Guests.push_back(std::move(G));
    Out.FilterRoutine = "md_slice";
  } else if (Workload == "replay-dbserver") {
    Out.Guests.push_back(guest("dbserver", "dbserver", DbSize, R.next()));
    Out.FilterRoutine = "buf_flush_buffered_writes";
  } else if (Workload == "fleet-vips") {
    // A fixed ladder of sizes; the seed moves each pair (i, N-1-i) by
    // +d and -d, so the fleet's total size stays nearly constant.
    std::vector<uint64_t> Sizes(FleetStreams);
    for (unsigned I = 0; I != FleetStreams; ++I)
      Sizes[I] = FleetBaseSize + FleetSizeStep * I;
    for (unsigned I = 0; I != FleetStreams / 2; ++I) {
      int64_t D = static_cast<int64_t>(R.nextBelow(2 * FleetJitter + 1)) -
                  static_cast<int64_t>(FleetJitter);
      Sizes[I] += D;
      Sizes[FleetStreams - 1 - I] -= D;
    }
    for (unsigned I = 0; I != FleetStreams; ++I)
      Out.Guests.push_back(guest("vips_pipeline",
                                 "vips-" + std::to_string(I), Sizes[I],
                                 R.next()));
    Out.FilterRoutine = "region_tiles";
  } else {
    Error = "unknown workload '" + Workload + "'";
    return false;
  }
  for (const GuestInput &G : Out.Guests)
    if (G.Source.empty()) {
      Error = "guest workload for '" + G.Label + "' is not registered";
      return false;
    }
  return true;
}
