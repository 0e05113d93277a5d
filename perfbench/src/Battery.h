//===- perfbench/src/Battery.h - Per-layer measurements ---------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run. It times each isprof layer through the benchmark's
/// calls into its public functions, on the workload's own guests and
/// streams, and attributes a traced operation's time to the spans
/// around those calls (self time = span minus child spans).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BATTERY_H
#define PERFBENCH_BATTERY_H

#include "Workloads.h"

namespace perfbench {

/// Emits every per-layer metric for \p W, whose set-up and oracle are
/// done. Operations run while measuring emit "op" records, so they count
/// toward attempted/failed like the untraced run's. \p Seconds bounds
/// the traced/untraced operation pairs.
void measureLayers(BenchWorkload &W, double Seconds);

} // namespace perfbench

#endif // PERFBENCH_BATTERY_H
