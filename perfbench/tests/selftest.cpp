//===- perfbench/tests/selftest.cpp - Checks on the benchmark's own logic -===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// perfbench_selftest: checks that the oracle rejects tampered profiles,
// reports and fleet stores, and that the seed alone determines the
// generated inputs. Exits 0 when every check passes. Run by
// perfbench/tests/test_perfbench.py.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Oracle.h"
#include "Workloads.h"

#include "core/TrmsProfiler.h"
#include "instr/Dispatcher.h"
#include "tools/ToolRegistry.h"
#include "vm/Compiler.h"
#include "vm/Diag.h"
#include "vm/Optimizer.h"

#include <cstdio>

using namespace perfbench;

namespace {

int Failures = 0;

void expect(bool Cond, const char *What) {
  std::printf("%s: %s\n", Cond ? "ok  " : "FAIL", What);
  if (!Cond)
    ++Failures;
}

std::optional<isp::Program> compileGuest(const GuestInput &G) {
  isp::DiagnosticEngine Diags;
  std::optional<isp::Program> P = isp::compileProgram(G.Source, Diags);
  if (P)
    isp::optimizeProgram(*P);
  else
    std::printf("compile failed:\n%s", Diags.render().c_str());
  return P;
}

isp::ProfileDatabase trmsProfile(const isp::Program &Prog,
                                 const isp::MachineOptions &Opts, bool KeepLog,
                                 std::string &Report) {
  isp::TrmsProfilerOptions ProfOpts;
  ProfOpts.KeepActivationLog = KeepLog;
  isp::TrmsProfiler Profiler(ProfOpts);
  isp::EventDispatcher Dispatcher;
  Dispatcher.addTool(&Profiler);
  isp::Machine M(Prog, &Dispatcher, Opts);
  M.run();
  Report = isp::renderToolReport(Profiler, &Prog.Symbols);
  return Profiler.takeDatabase();
}

void checkSeeds() {
  for (const std::string &W : workloadNames()) {
    WorkloadInputs A, A2, B;
    std::string Error;
    bool Made = makeInputs(W, 1, A, Error) && makeInputs(W, 1, A2, Error) &&
                makeInputs(W, 2, B, Error);
    expect(Made, ("inputs generate for " + W).c_str());
    expect(A.digest() == A2.digest(),
           ("same seed, same inputs on " + W).c_str());
    expect(A.digest() != B.digest(),
           ("another seed, other inputs on " + W).c_str());
  }
  WorkloadInputs X;
  std::string Error;
  expect(!makeInputs("no-such-workload", 1, X, Error),
         "an unknown workload is refused");
}

void checkProfileOracle() {
  WorkloadInputs In;
  std::string Error;
  if (!makeInputs("live-md", 7, In, Error)) {
    expect(false, Error.c_str());
    return;
  }
  std::optional<isp::Program> Prog = compileGuest(In.Guests[0]);
  expect(Prog.has_value(), "md guest compiles");
  if (!Prog)
    return;
  const isp::MachineOptions &Opts = In.Guests[0].Machine;

  ProfileOracle Oracle;
  isp::ProfileDatabase NaiveDb;
  expect(naiveProfile(*Prog, Opts, false, NaiveDb, Oracle.Report, Error),
         "naive oracle runs");
  Oracle.Digest = profileDigest(NaiveDb);

  std::string Report;
  isp::ProfileDatabase Db = trmsProfile(*Prog, Opts, false, Report);
  expect(checkProfile(Oracle, Db, Report).empty(),
         "trms profile matches the naive oracle");

  isp::ActivationRecord Extra;
  Extra.Rtn = 1;
  Extra.Rms = Extra.Trms = 3;
  Extra.Cost = 5;
  isp::ProfileDatabase Tampered = Db;
  Tampered.recordActivation(Extra);
  expect(!checkProfile(Oracle, Tampered, Report).empty(),
         "oracle rejects a profile with an extra activation");

  Tampered = Db;
  Tampered.GlobalInducedThread += 1;
  expect(!checkProfile(Oracle, Tampered, Report).empty(),
         "oracle rejects a profile with a shifted induced-access count");

  expect(!checkProfile(Oracle, Db, Report + " ").empty(),
         "oracle rejects a tampered report");
}

void checkFleetOracle() {
  WorkloadInputs In;
  std::string Error;
  if (!makeInputs("fleet-vips", 7, In, Error)) {
    expect(false, Error.c_str());
    return;
  }
  FleetOracle Oracle;
  isp::collect::FleetStore Store;
  // Two streams are enough to exercise the fold.
  for (size_t I = 0; I != 2; ++I) {
    std::optional<isp::Program> Prog = compileGuest(In.Guests[I]);
    if (!Prog) {
      expect(false, "vips guest compiles");
      return;
    }
    isp::ProfileDatabase NaiveDb;
    std::string Report;
    naiveProfile(*Prog, In.Guests[I].Machine, true, NaiveDb, Report, Error);
    Oracle.Store.mergeDatabase("vips_pipeline", NaiveDb, Prog->Symbols);
    isp::ProfileDatabase Db =
        trmsProfile(*Prog, In.Guests[I].Machine, true, Report);
    Store.mergeDatabase("vips_pipeline", Db, Prog->Symbols);
  }
  Oracle.Rollup = Oracle.Store.renderRollup(RollupTopN);
  std::string Rollup = Store.renderRollup(RollupTopN);
  expect(checkFleet(Oracle, Store, Rollup).empty(),
         "collector-style store matches the naive fold");

  isp::ProfileDatabase One;
  One.setKeepLog(true);
  isp::ActivationRecord R;
  R.Rtn = 0;
  R.Rms = R.Trms = 1;
  R.Cost = 1;
  One.recordActivation(R);
  isp::SymbolTable Symbols;
  Symbols.intern("main");
  isp::collect::FleetStore Tampered = Store;
  Tampered.mergeDatabase("vips_pipeline", One, Symbols);
  expect(
      !checkFleet(Oracle, Tampered, Tampered.renderRollup(RollupTopN)).empty(),
      "oracle rejects a store with an extra activation");
  expect(!checkFleet(Oracle, Store, Rollup + "x").empty(),
         "oracle rejects a tampered rollup");
}

} // namespace

int main() {
  checkSeeds();
  checkProfileOracle();
  checkFleetOracle();
  std::printf("%d failure(s)\n", Failures);
  return Failures == 0 ? 0 : 1;
}
