//===- perfbench/src/Inputs.h - Seed -> guest inputs ------------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark seed is its only input. From it each workload derives
/// the guest programs and guest seeds isprof receives; nothing else
/// reaches the program under test.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include "vm/Machine.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One guest run: its source, and the machine options (guest seed) it
/// runs under.
struct GuestInput {
  std::string Label;
  uint64_t Size = 0;
  std::string Source;
  isp::MachineOptions Machine;
};

struct WorkloadInputs {
  std::string Workload;
  uint64_t Seed = 0;
  std::vector<GuestInput> Guests;
  /// One routine for the filtered-ingest measurement.
  std::string FilterRoutine;

  /// FNV-1a over every guest source, size and guest seed: equal digests
  /// mean isprof received the same inputs.
  uint64_t digest() const;
};

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string> &workloadNames();

/// Generates \p Workload's inputs from \p Seed. Returns false with
/// \p Error set for an unknown workload or a guest template the
/// generator no longer recognises.
bool makeInputs(const std::string &Workload, uint64_t Seed,
                WorkloadInputs &Out, std::string &Error);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
