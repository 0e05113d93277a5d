//===- perfbench/src/Oracle.cpp - Reference profiles for checking ops -----===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "Oracle.h"

#include "core/NaiveProfiler.h"
#include "instr/Dispatcher.h"
#include "tools/ToolRegistry.h"

#include <cstdio>

using namespace perfbench;

namespace {

void appendCells(std::string &Out, const char *Tag,
                 const std::map<uint64_t, isp::CostStats> &Cells) {
  char Buf[160];
  for (const auto &[Size, S] : Cells) {
    std::snprintf(Buf, sizeof(Buf), " %s%llu:%llu/%llu/%llu/%.17g", Tag,
                  static_cast<unsigned long long>(Size),
                  static_cast<unsigned long long>(S.Count),
                  static_cast<unsigned long long>(S.MinCost),
                  static_cast<unsigned long long>(S.MaxCost), S.SumCost);
    Out += Buf;
  }
}

} // namespace

std::string perfbench::profileDigest(const isp::ProfileDatabase &Db) {
  std::string Out;
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "activations %llu induced %llu/%llu plain %llu reads %llu\n",
                static_cast<unsigned long long>(Db.totalActivations()),
                static_cast<unsigned long long>(Db.GlobalInducedThread),
                static_cast<unsigned long long>(Db.GlobalInducedExternal),
                static_cast<unsigned long long>(Db.GlobalPlainFirstAccesses),
                static_cast<unsigned long long>(Db.GlobalReads));
  Out += Buf;
  for (const auto &[Key, P] : Db.threadRoutineProfiles()) {
    std::snprintf(Buf, sizeof(Buf),
                  "t%u r%u n%llu rms%llu trms%llu it%llu ie%llu c%llu",
                  static_cast<unsigned>(Key.Tid),
                  static_cast<unsigned>(Key.Rtn),
                  static_cast<unsigned long long>(P.activations()),
                  static_cast<unsigned long long>(P.sumRms()),
                  static_cast<unsigned long long>(P.sumTrms()),
                  static_cast<unsigned long long>(P.inducedThread()),
                  static_cast<unsigned long long>(P.inducedExternal()),
                  static_cast<unsigned long long>(P.totalCost()));
    Out += Buf;
    appendCells(Out, "T", P.costByTrms());
    appendCells(Out, "R", P.costByRms());
    Out += '\n';
  }
  return Out;
}

bool perfbench::naiveProfile(const isp::Program &Prog,
                             const isp::MachineOptions &Opts, bool KeepLog,
                             isp::ProfileDatabase &Out, std::string &Report,
                             std::string &Error) {
  isp::NaiveProfilerOptions NaiveOpts;
  NaiveOpts.KeepActivationLog = KeepLog;
  isp::NaiveTrmsProfiler Naive(NaiveOpts);
  isp::EventDispatcher Dispatcher;
  Dispatcher.addTool(&Naive);
  isp::Machine M(Prog, &Dispatcher, Opts);
  isp::RunResult R = M.run();
  if (!R.Ok) {
    Error = "naive oracle run failed: " + R.Error;
    return false;
  }
  Report = isp::renderToolReport(Naive, &Prog.Symbols);
  Out = Naive.takeDatabase();
  return true;
}

std::string perfbench::checkProfile(const ProfileOracle &Oracle,
                                    const isp::ProfileDatabase &Db,
                                    const std::string &Report) {
  if (profileDigest(Db) != Oracle.Digest)
    return "profile differs from the aprof-trms-naive oracle";
  if (Report != Oracle.Report)
    return "report differs from the oracle's report";
  return "";
}

std::string perfbench::checkFleet(const FleetOracle &Oracle,
                                  const isp::collect::FleetStore &Store,
                                  const std::string &Rollup) {
  if (!(Store == Oracle.Store))
    return "fleet store differs from the serially folded naive store";
  if (Rollup != Oracle.Rollup)
    return "rollup differs from the oracle's rollup";
  return "";
}
