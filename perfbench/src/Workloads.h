//===- perfbench/src/Workloads.h - The benchmark workloads ------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One workload per real profiling path, all under aprof-trms:
///   live-md          guest -> Machine + EventDispatcher + TrmsProfiler
///                    -> report;
///   replay-dbserver  guest -> TraceStreamWriter file -> replayTraceStream
///                    -> TrmsProfiler -> report;
///   fleet-vips       spool of streams -> Collector -> FleetStore ->
///                    rollup.
/// Set-up compiles and optimizes every guest (and records the fleet's
/// spool); an operation is one pass down the path, checked afterwards
/// against the naive oracle.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Harness.h"
#include "Inputs.h"

#include "instr/Dispatcher.h"
#include "vm/Bytecode.h"

#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Routines shown in a rendered fleet rollup (the `isprof collect`
/// default).
constexpr unsigned RollupTopN = 10;

/// What a traced operation learned about the profiler it ran.
struct OpTally {
  uint64_t Activations = 0;
  uint64_t FootprintBytes = 0;
};

class BenchWorkload {
public:
  BenchWorkload(WorkloadInputs In, std::string WorkDir)
      : In(std::move(In)), WorkDir(std::move(WorkDir)) {}
  virtual ~BenchWorkload() = default;
  BenchWorkload(const BenchWorkload &) = delete;
  BenchWorkload &operator=(const BenchWorkload &) = delete;

  const WorkloadInputs &inputs() const { return In; }
  const std::vector<isp::Program> &programs() const { return Programs; }
  const std::string &workDir() const { return WorkDir; }

  /// Program set-up: compile + optimize every guest, plus the workload's
  /// own preparation. Returns the seconds spent inside isprof's set-up
  /// calls, or a negative value with \p Error set. \p T, when non-null,
  /// receives the compileProgram / optimizeProgram spans (and the
  /// recording spans of the fleet's spool).
  double setup(Tracer *T, std::string &Error);
  /// Computes the reference the operations are checked against.
  virtual bool buildOracle(std::string &Error) = 0;
  /// One operation. \p T non-null only in the traced run.
  virtual void run(Tracer *T) = 0;
  /// Checks the last operation's output: empty when it matches the
  /// oracle, else the reason.
  virtual std::string check() = 0;
  /// Bytes of the event stream an operation produces: the recorded
  /// stream or spool on disk, or on live-md the 16-byte event words the
  /// dispatcher delivers.
  virtual double streamBytes() = 0;
  /// True when an operation runs on the calling thread alone, so it can
  /// be pinned to one core (see pinToNextCpu).
  virtual bool singleThreaded() const { return true; }
  /// Operations per op_ms sample, about 1 s of them. On a shared host
  /// an operation runs either at full speed or up to ~1.7x slower, most
  /// likely while a neighbour holds the core's sibling thread; a sample
  /// of consecutive operations averages that mixture, where the median
  /// of single operations would jump between the two modes.
  virtual unsigned opsPerSample() const { return 1; }
  /// Counts from the last traced operation.
  const OpTally &tally() const { return Tally; }

protected:
  /// Set-up after compiling; the fleet records its spool here.
  virtual bool prepare(Tracer *T, std::string &Error) { return true; }

  WorkloadInputs In;
  std::string WorkDir;
  std::vector<isp::Program> Programs;
  OpTally Tally;
};

std::unique_ptr<BenchWorkload> makeWorkload(const WorkloadInputs &In,
                                            const std::string &WorkDir);

/// Runs one operation, times it, checks it against the oracle and emits
/// an "op" record tagged \p Tag. Returns the operation's wall ms.
double runOp(BenchWorkload &W, Tracer *T, const std::string &Tag);

/// Statistics of one stream recording.
struct RecordStats {
  uint64_t Events = 0;
  uint64_t Chunks = 0;
  uint64_t Bytes = 0;
};

/// Records \p Prog's run under \p Opts into the stream file \p Path with
/// no tool attached. With \p T set, the encode time is added to it as a
/// "trace.encode" aggregate. Returns false with \p Error set on failure.
bool recordGuest(const isp::Program &Prog, const isp::MachineOptions &Opts,
                 const std::string &Path, Tracer *T, RecordStats &Stats,
                 std::string &Error);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
