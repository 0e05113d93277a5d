//===- perfbench/src/Workloads.cpp - The three benchmark workloads --------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Layers.h"
#include "Oracle.h"

#include "collect/Collector.h"
#include "core/TrmsProfiler.h"
#include "instr/SymbolTable.h"
#include "tools/ToolRegistry.h"
#include "trace/TraceStream.h"
#include "vm/Compiler.h"
#include "vm/Diag.h"
#include "vm/Machine.h"
#include "vm/Optimizer.h"

#include <exception>
#include <filesystem>

using namespace perfbench;

namespace {

double secondsSince(uint64_t StartNs) {
  return static_cast<double>(nowNs() - StartNs) / 1e9;
}

/// Every stream of the fleet is labelled with one program name so the
/// streams merge into one program's rollup.
const char *FleetLabel = "vips_pipeline";

/// A workload whose operation profiles its one guest under aprof-trms and
/// renders the report; checked against the guest's naive profile.
class SingleGuest : public BenchWorkload {
public:
  using BenchWorkload::BenchWorkload;

  bool buildOracle(std::string &Error) override {
    isp::ProfileDatabase NaiveDb;
    if (!naiveProfile(Programs[0], In.Guests[0].Machine, /*KeepLog=*/false,
                      NaiveDb, Oracle.Report, Error))
      return false;
    Oracle.Digest = profileDigest(NaiveDb);
    return true;
  }

  std::string check() override {
    std::string Out = Why.empty() ? checkProfile(Oracle, Db, Report) : Why;
    Why.clear();
    Db = isp::ProfileDatabase();
    Report.clear();
    return Out;
  }

protected:
  /// Renders \p Profiler's report and keeps its results for check().
  void finish(Tracer *T, isp::TrmsProfiler &Profiler,
              const isp::SymbolTable &Symbols) {
    {
      Span S(T, "renderToolReport");
      Report = isp::renderToolReport(Profiler, &Symbols);
    }
    Tally = {Profiler.database().totalActivations(),
             Profiler.memoryFootprintBytes()};
    Db = Profiler.takeDatabase();
  }

  /// Why the last operation failed before producing a profile.
  std::string Why;

private:
  ProfileOracle Oracle;
  isp::ProfileDatabase Db;
  std::string Report;
};

// --- live-md -------------------------------------------------------------

class LiveMd : public SingleGuest {
public:
  using SingleGuest::SingleGuest;

  void run(Tracer *T) override {
    Span Op(T, "op");
    isp::TrmsProfiler Profiler;
    TimedTool Timed(Profiler);
    isp::EventDispatcher Dispatcher;
    Dispatcher.addTool(T ? static_cast<isp::Tool *>(&Timed) : &Profiler);
    {
      Span S(T, "Machine::run");
      isp::Machine M(Programs[0], &Dispatcher, In.Guests[0].Machine);
      isp::RunResult Result = M.run();
      if (T)
        T->addAggregate("TrmsProfiler", Timed.ns());
      if (!Result.Ok)
        Why = "guest failed: " + Result.Error;
    }
    finish(T, Profiler, Programs[0].Symbols);
  }

  unsigned opsPerSample() const override { return 16; }

  double streamBytes() override {
    CountingSink Counter;
    isp::EventDispatcher Dispatcher;
    Dispatcher.setRecordSink(&Counter);
    isp::Machine M(Programs[0], &Dispatcher, In.Guests[0].Machine);
    M.run();
    return static_cast<double>(Counter.bytes());
  }
};

// --- replay-dbserver -----------------------------------------------------

class ReplayDbServer : public SingleGuest {
public:
  using SingleGuest::SingleGuest;

  void run(Tracer *T) override {
    Span Op(T, "op");
    if (!recordGuest(Programs[0], In.Guests[0].Machine, streamPath(), T,
                     Recorded, Why))
      return;
    isp::TrmsProfiler Profiler;
    isp::SymbolTable Symbols;
    {
      Span S(T, "replayTraceStream");
      isp::TraceStreamReader Reader;
      if (!Reader.open(streamPath())) {
        Why = "cannot read stream: " + Reader.error();
        return;
      }
      for (const auto &[Id, Name] : Reader.routines())
        Symbols.intern(Name);
      TimedTool Timed(Profiler);
      bool Ok = isp::replayTraceStream(
          Reader, T ? static_cast<isp::Tool &>(Timed) : Profiler, &Symbols);
      if (T)
        T->addAggregate("TrmsProfiler", Timed.ns());
      if (!Ok) {
        Why = "replay failed: " + Reader.error();
        return;
      }
    }
    finish(T, Profiler, Symbols);
  }

  unsigned opsPerSample() const override { return 2; }

  double streamBytes() override {
    return static_cast<double>(Recorded.Bytes);
  }

private:
  std::string streamPath() const { return WorkDir + "/dbserver.strm"; }

  RecordStats Recorded;
};

// --- fleet-vips ----------------------------------------------------------

class FleetVips : public BenchWorkload {
public:
  using BenchWorkload::BenchWorkload;

  bool buildOracle(std::string &Error) override {
    Oracle.Store = isp::collect::FleetStore();
    for (size_t I = 0; I != Programs.size(); ++I) {
      isp::ProfileDatabase Db;
      std::string Report;
      if (!naiveProfile(Programs[I], In.Guests[I].Machine, /*KeepLog=*/true,
                        Db, Report, Error))
        return false;
      Oracle.Store.mergeDatabase(FleetLabel, Db, Programs[I].Symbols);
    }
    Oracle.Rollup = Oracle.Store.renderRollup(RollupTopN);
    return true;
  }

  void run(Tracer *T) override {
    Span Op(T, "op");
    isp::collect::CollectorOptions Opts;
    Opts.Workers = benchWorkers();
    Opts.ProgramLabel = FleetLabel;
    isp::collect::Collector C(Opts, Store);
    {
      Span S(T, "Collector::ingestFiles");
      C.ingestFiles(Spool);
    }
    {
      Span S(T, "FleetStore::renderRollup");
      Rollup = Store.renderRollup(RollupTopN);
    }
    Errors = C.errors();
  }

  std::string check() override {
    std::string Why;
    if (!Errors.empty())
      Why = "ingest failed: " + Errors[0].File + ": " + Errors[0].Message;
    else
      Why = checkFleet(Oracle, Store, Rollup);
    Store = isp::collect::FleetStore();
    Rollup.clear();
    Errors.clear();
    return Why;
  }

  double streamBytes() override {
    double Bytes = 0;
    for (const std::string &Path : Spool)
      Bytes += static_cast<double>(std::filesystem::file_size(Path));
    return Bytes;
  }

  bool singleThreaded() const override { return false; }
  unsigned opsPerSample() const override { return 3; }

protected:
  bool prepare(Tracer *T, std::string &Error) override {
    std::filesystem::create_directories(WorkDir + "/spool");
    Spool.clear();
    for (size_t I = 0; I != Programs.size(); ++I) {
      Spool.push_back(WorkDir + "/spool/" + In.Guests[I].Label + ".strm");
      RecordStats Stats;
      if (!recordGuest(Programs[I], In.Guests[I].Machine, Spool.back(), T,
                       Stats, Error))
        return false;
    }
    return true;
  }

private:
  FleetOracle Oracle;
  std::vector<std::string> Spool;
  isp::collect::FleetStore Store;
  std::string Rollup;
  std::vector<isp::collect::StreamIngestError> Errors;
};

} // namespace

double BenchWorkload::setup(Tracer *T, std::string &Error) {
  Programs.clear();
  double Seconds = 0;
  for (const GuestInput &G : In.Guests) {
    isp::DiagnosticEngine Diags;
    std::optional<isp::Program> Prog;
    uint64_t Start = nowNs();
    {
      Span S(T, "compileProgram");
      Prog = isp::compileProgram(G.Source, Diags);
    }
    if (!Prog) {
      Error = G.Label + " failed to compile:\n" + Diags.render();
      return -1;
    }
    {
      Span S(T, "optimizeProgram");
      isp::optimizeProgram(*Prog);
    }
    Seconds += secondsSince(Start);
    Programs.push_back(std::move(*Prog));
  }
  uint64_t Start = nowNs();
  if (!prepare(T, Error))
    return -1;
  return Seconds + secondsSince(Start);
}

bool perfbench::recordGuest(const isp::Program &Prog,
                            const isp::MachineOptions &Opts,
                            const std::string &Path, Tracer *T,
                            RecordStats &Stats, std::string &Error) {
  isp::TraceStreamWriter Writer;
  if (!Writer.open(Path, Prog.Symbols.entries())) {
    Error = "cannot record stream: " + Writer.error();
    return false;
  }
  TimedSink Timed(Writer);
  isp::EventDispatcher Dispatcher;
  Dispatcher.setRecordSink(
      T ? static_cast<isp::EventDispatcher::RecordSink *>(&Timed) : &Writer);
  isp::RunResult Result;
  {
    Span S(T, "Machine::run");
    isp::Machine M(Prog, &Dispatcher, Opts);
    Result = M.run();
    if (T)
      T->addAggregate("TraceStreamWriter", Timed.ns());
  }
  bool Closed;
  {
    Span S(T, "TraceStreamWriter::close");
    Closed = Writer.close();
  }
  if (!Result.Ok) {
    Error = "guest failed while recording: " + Result.Error;
    return false;
  }
  if (!Closed) {
    Error = "cannot finish stream: " + Writer.error();
    return false;
  }
  Stats = {Writer.eventsWritten(), Writer.chunksWritten(),
           Writer.bytesWritten()};
  return true;
}

std::unique_ptr<BenchWorkload>
perfbench::makeWorkload(const WorkloadInputs &In, const std::string &WorkDir) {
  if (In.Workload == "live-md")
    return std::make_unique<LiveMd>(In, WorkDir);
  if (In.Workload == "replay-dbserver")
    return std::make_unique<ReplayDbServer>(In, WorkDir);
  if (In.Workload == "fleet-vips")
    return std::make_unique<FleetVips>(In, WorkDir);
  return nullptr;
}

double perfbench::runOp(BenchWorkload &W, Tracer *T, const std::string &Tag) {
  std::string Why;
  if (W.singleThreaded())
    pinToNextCpu();
  uint64_t Start = nowNs();
  try {
    W.run(T);
  } catch (const std::exception &E) {
    Why = std::string("exception: ") + E.what();
  }
  double Ms = static_cast<double>(nowNs() - Start) / 1e6;
  unpinCpu();
  std::string CheckWhy = W.check();
  if (Why.empty())
    Why = CheckWhy;
  Record("op").str("tag", Tag).num("ms", Ms).boolean("ok", Why.empty())
      .str("why", Why).emit();
  return Ms;
}
