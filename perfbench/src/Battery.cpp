//===- perfbench/src/Battery.cpp - Per-layer measurements (traced run) ----===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "Battery.h"

#include "Layers.h"

#include "collect/Collector.h"
#include "core/TrmsProfiler.h"
#include "instr/SymbolTable.h"
#include "obs/Obs.h"
#include "replay/ParallelReplay.h"
#include "tools/NulTool.h"
#include "tools/ToolRegistry.h"
#include "trace/TraceStream.h"
#include "vm/Machine.h"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <map>
#include <set>

using namespace perfbench;

namespace {

/// Repetitions of each layer measurement; the median is reported.
constexpr unsigned Reps = 3;
/// Operation pairs for the stats-on/off comparison.
constexpr unsigned StatsPairs = 5;
/// Traced/untraced pairs run at least this often, then until the
/// time budget is spent.
constexpr unsigned MinTracePairs = 3;

double ms(uint64_t Ns) { return static_cast<double>(Ns) / 1e6; }

/// Median over Reps runs of \p Body's wall ms.
double medianMs(const std::function<void()> &Body) {
  std::vector<double> V;
  for (unsigned I = 0; I != Reps; ++I) {
    uint64_t Start = nowNs();
    Body();
    V.push_back(ms(nowNs() - Start));
  }
  return median(V);
}

/// A battery-internal correctness check; it counts like an operation.
void emitCheck(const std::string &What, const std::string &Why) {
  Record("op").str("tag", "check:" + What).num("ms", 0)
      .boolean("ok", Why.empty()).str("why", Why).emit();
}

/// Which layer each span name belongs to, for the accounting table.
std::string layerOf(const std::string &Span) {
  static const std::map<std::string, std::string> Layers = {
      {"op", "bench (unattributed)"},
      {"Machine::run", "vm+instr"},
      {"TrmsProfiler", "core+shadow"},
      {"TraceStreamWriter", "trace (encode)"},
      {"TraceStreamWriter::close", "trace (encode)"},
      {"replayTraceStream", "trace+instr (decode, dispatch)"},
      {"renderToolReport", "core (report)"},
      {"Collector::ingestFiles", "collect"},
      {"FleetStore::renderRollup", "collect"},
  };
  auto It = Layers.find(Span);
  return It == Layers.end() ? "?" : It->second;
}

class LayerBattery {
public:
  explicit LayerBattery(BenchWorkload &W) : W(W) {}

  void run(double Seconds) {
    measureGuests();
    recordStreams();
    measureDecode();
    measureReplay();
    measureCollect();
    measureStats();
    measureTracedOps(Seconds);
  }

private:
  const std::vector<isp::Program> &programs() const { return W.programs(); }
  const isp::MachineOptions &machine(size_t I) const {
    return W.inputs().Guests[I].Machine;
  }

  void measureGuests() {
    uint64_t Instructions = 0;
    std::string Why;
    NativeMs = medianMs([&] {
      Instructions = 0;
      for (size_t I = 0; I != programs().size(); ++I) {
        isp::Machine M(programs()[I], /*Events=*/nullptr, machine(I));
        isp::RunResult R = M.run();
        if (!R.Ok)
          Why = "native run failed: " + R.Error;
        Instructions += R.Stats.Instructions;
      }
    });
    uint64_t Enqueued = 0, Delivered = 0, Flushes = 0;
    double NulMs = medianMs([&] {
      Enqueued = Delivered = Flushes = 0;
      for (size_t I = 0; I != programs().size(); ++I) {
        isp::NulTool Nul;
        isp::EventDispatcher Dispatcher;
        Dispatcher.addTool(&Nul);
        isp::Machine M(programs()[I], &Dispatcher, machine(I));
        if (isp::RunResult R = M.run(); !R.Ok)
          Why = "nulgrind run failed: " + R.Error;
        Enqueued += Dispatcher.enqueuedEvents();
        Delivered += Dispatcher.deliveredEvents();
        Flushes += Dispatcher.totalFlushes();
      }
    });
    emitCheck("guest-runs", Why);
    emitMetric("vm.native_ms", NativeMs, "ms");
    emitMetric("vm.instructions", static_cast<double>(Instructions), "count");
    emitMetric("instr.dispatch_ms", NulMs - NativeMs, "ms");
    emitMetric("instr.events_enqueued", static_cast<double>(Enqueued),
               "count");
    emitMetric("instr.events_delivered", static_cast<double>(Delivered),
               "count");
    emitMetric("instr.compaction_ratio",
               Enqueued ? static_cast<double>(Delivered) /
                              static_cast<double>(Enqueued)
                        : 0,
               "ratio");
    emitMetric("instr.flushes", static_cast<double>(Flushes), "count");
  }

  void recordStreams() {
    std::string Dir = W.workDir() + "/battery";
    std::filesystem::create_directories(Dir);
    Streams.clear();
    for (const GuestInput &G : W.inputs().Guests)
      Streams.push_back(Dir + "/" + G.Label + ".strm");
    std::vector<double> EncodeMs;
    RecordStats Total;
    for (unsigned Rep = 0; Rep != Reps; ++Rep) {
      Tracer T;
      Total = RecordStats();
      for (size_t I = 0; I != programs().size(); ++I) {
        RecordStats S;
        std::string Error;
        if (!recordGuest(programs()[I], machine(I), Streams[I], &T, S,
                         Error)) {
          emitCheck("record", Error);
          return;
        }
        Total.Events += S.Events;
        Total.Chunks += S.Chunks;
        Total.Bytes += S.Bytes;
      }
      EncodeMs.push_back(ms(T.totalNs("TraceStreamWriter") +
                            T.totalNs("TraceStreamWriter::close")));
    }
    emitMetric("trace.encode_ms", median(EncodeMs), "ms");
    emitMetric("trace.chunks", static_cast<double>(Total.Chunks), "count");
    emitMetric("trace.bytes_per_event",
               Total.Events ? static_cast<double>(Total.Bytes) /
                                  static_cast<double>(Total.Events)
                            : 0,
               "B");
  }

  void measureDecode() {
    std::string Why;
    double DecodeMs = medianMs([&] {
      std::vector<isp::Event> Chunk;
      for (const std::string &Path : Streams) {
        isp::TraceStreamReader Reader;
        if (!Reader.open(Path)) {
          Why = Reader.error();
          continue;
        }
        while (Reader.nextChunk(Chunk)) {
        }
        if (!Reader.error().empty())
          Why = Reader.error();
      }
    });
    emitCheck("decode", Why);
    emitMetric("trace.decode_ms", DecodeMs, "ms");
  }

  /// Serial replay into TrmsProfiler, and the parallel replay engine on
  /// the same stream (the workload's first); their reports must agree.
  /// The parallel engine runs once: it is several times slower than
  /// serial replay on every stream here.
  void measureReplay() {
    const std::string &Path = Streams[0];
    std::string Why, SerialReport;
    std::vector<double> SerialMs;
    for (unsigned Rep = 0; Rep != Reps; ++Rep) {
      isp::TraceStreamReader Reader;
      isp::SymbolTable Symbols;
      isp::TrmsProfiler Profiler;
      uint64_t Start = nowNs();
      bool Ok = openStream(Reader, Symbols, Path, Why) &&
                isp::replayTraceStream(Reader, Profiler, &Symbols);
      SerialMs.push_back(ms(nowNs() - Start));
      if (!Ok)
        Why = "serial replay failed: " + Reader.error();
      SerialReport = isp::renderToolReport(Profiler, &Symbols);
    }
    emitCheck("serial-replay", Why);

    unsigned Workers = benchWorkers();
    isp::TrmsProfilerOptions ProfOpts;
    // Shard count as `isprof replay --replay-workers` picks it: several
    // shards per worker.
    ProfOpts.ShadowShards = 1;
    while (ProfOpts.ShadowShards < 4 * Workers && ProfOpts.ShadowShards < 64)
      ProfOpts.ShadowShards <<= 1;
    isp::ParallelReplayOptions ReplayOpts;
    ReplayOpts.Workers = Workers;
    Why.clear();
    isp::TraceStreamReader Reader;
    isp::SymbolTable Symbols;
    isp::ParallelReplayProfiler Profiler(ProfOpts);
    uint64_t Start = nowNs();
    bool Ok = openStream(Reader, Symbols, Path, Why) &&
              isp::parallelReplayStream(Reader, Profiler, &Symbols,
                                        ReplayOpts);
    double ParallelMs = ms(nowNs() - Start);
    if (!Ok)
      Why = "parallel replay failed: " + Reader.error();
    else if (isp::renderToolReport(Profiler, &Symbols) != SerialReport)
      Why = "parallel replay report differs from serial replay";
    emitCheck("parallel-replay", Why);
    double Serial = median(SerialMs);
    emitMetric("replay.serial_ms", Serial, "ms");
    emitMetric("replay.parallel_ms", ParallelMs, "ms");
    emitMetric("replay.parallel_speedup",
               ParallelMs > 0 ? Serial / ParallelMs : 0, "x");
  }

  static bool openStream(isp::TraceStreamReader &Reader,
                         isp::SymbolTable &Symbols, const std::string &Path,
                         std::string &Why) {
    if (!Reader.open(Path)) {
      Why = "cannot open " + Path + ": " + Reader.error();
      return false;
    }
    for (const auto &[Id, Name] : Reader.routines())
      Symbols.intern(Name);
    return true;
  }

  /// Collector ingest of the workload's streams. A single stream is
  /// listed once per worker so the worker pool has work to share.
  void measureCollect() {
    unsigned Workers = benchWorkers();
    std::vector<std::string> Files = Streams;
    if (Files.size() == 1)
      Files.assign(Workers, Streams[0]);
    struct Result {
      double IngestMs = 0, MergeMs = 0, RollupMs = 0;
      std::string Rollup;
    };
    auto Ingest = [&](unsigned N) {
      std::vector<double> IngestMs, MergeMs, RollupMs;
      Result R;
      for (unsigned Rep = 0; Rep != Reps; ++Rep) {
        isp::collect::FleetStore Store;
        isp::collect::CollectorOptions Opts;
        Opts.Workers = N;
        Opts.ProgramLabel = W.inputs().Workload;
        isp::collect::Collector C(Opts, Store);
        uint64_t Start = nowNs();
        C.ingestFiles(Files);
        IngestMs.push_back(ms(nowNs() - Start));
        MergeMs.push_back(ms(C.totals().MergeNs));
        Start = nowNs();
        R.Rollup = Store.renderRollup(RollupTopN);
        RollupMs.push_back(ms(nowNs() - Start));
        if (!C.errors().empty())
          emitCheck("collect", C.errors()[0].File + ": " +
                                   C.errors()[0].Message);
      }
      R.IngestMs = median(IngestMs);
      R.MergeMs = median(MergeMs);
      R.RollupMs = median(RollupMs);
      return R;
    };
    Result Parallel = Ingest(Workers);
    Result Serial = Ingest(1);
    emitCheck("collect-workers", Parallel.Rollup == Serial.Rollup
                                     ? ""
                                     : "rollup depends on worker count");
    emitMetric("collect.ingest_ms", Parallel.IngestMs, "ms");
    emitMetric("collect.merge_ms", Parallel.MergeMs, "ms");
    emitMetric("collect.rollup_ms", Parallel.RollupMs, "ms");
    emitMetric("collect.worker_scaling",
               Parallel.IngestMs > 0 ? Serial.IngestMs / Parallel.IngestMs
                                     : 0,
               "x");

    isp::collect::FleetStore Store;
    isp::collect::CollectorOptions Opts;
    Opts.Workers = Workers;
    Opts.RoutineFilter = {W.inputs().FilterRoutine};
    isp::collect::Collector C(Opts, Store);
    C.ingestFiles(Files);
    const isp::collect::CollectorTotals &T = C.totals();
    uint64_t Chunks = T.ChunksRead + T.ChunksSkipped;
    emitMetric("collect.filtered_skip_ratio",
               Chunks ? static_cast<double>(T.ChunksSkipped) /
                            static_cast<double>(Chunks)
                      : 0,
               "ratio");
  }

  /// The operation with obs stats collection on vs off, alternating
  /// which goes first. Overheads here are medians of per-pair ratios:
  /// the two operations of a pair run back to back, so host speed
  /// drift between pairs cancels.
  void measureStats() {
    std::vector<double> Ratios;
    for (unsigned I = 0; I != StatsPairs; ++I) {
      double On = 0, Off = 0;
      for (bool StatsOn : {I % 2 == 0, I % 2 != 0}) {
        isp::obs::setStatsEnabled(StatsOn);
        (StatsOn ? On : Off) =
            runOp(W, nullptr, StatsOn ? "stats-on" : "stats-off");
      }
      Ratios.push_back(On / Off);
    }
    isp::obs::setStatsEnabled(false);
    emitMetric("obs.stats_overhead_pct", (median(Ratios) - 1) * 100, "%");
  }

  /// core.* numbers: the wrapped profiler's time, the report's, and the
  /// profiler's counts.
  struct CoreNumbers {
    double TrmsMs = 0, ReportMs = 0;
    OpTally Tally;
  };

  /// A fleet operation runs the profiler inside Collector's workers,
  /// out of the wrappers' reach; this serial pass replays each stream
  /// into a wrapped TrmsProfiler and merges it as the collector would.
  CoreNumbers serialTracedPass() {
    std::vector<double> Trms, Report;
    CoreNumbers Out;
    for (unsigned Rep = 0; Rep != Reps; ++Rep) {
      Tracer T;
      isp::collect::FleetStore Store;
      Out.Tally = OpTally();
      std::string Why;
      for (const std::string &Path : Streams) {
        isp::TraceStreamReader Reader;
        isp::SymbolTable Symbols;
        isp::TrmsProfilerOptions Opts;
        Opts.KeepActivationLog = true;
        isp::TrmsProfiler Profiler(Opts);
        TimedTool Timed(Profiler);
        if (!openStream(Reader, Symbols, Path, Why) ||
            !isp::replayTraceStream(Reader, Timed, &Symbols))
          Why = "serial traced pass failed: " + Reader.error();
        T.addAggregate("TrmsProfiler", Timed.ns());
        Out.Tally.Activations += Profiler.database().totalActivations();
        Out.Tally.FootprintBytes = std::max(Out.Tally.FootprintBytes,
                                            Profiler.memoryFootprintBytes());
        Store.mergeDatabase(W.inputs().Workload, Profiler.database(),
                            Symbols);
      }
      {
        Span S(&T, "FleetStore::renderRollup");
        Store.renderRollup(RollupTopN);
      }
      emitCheck("serial-traced-pass", Why);
      Trms.push_back(ms(T.totalNs("TrmsProfiler")));
      Report.push_back(ms(T.totalNs("FleetStore::renderRollup")));
    }
    Out.TrmsMs = median(Trms);
    Out.ReportMs = median(Report);
    return Out;
  }

  /// Traced and untraced operations alternate until \p Seconds is spent.
  void measureTracedOps(double Seconds) {
    std::vector<double> Untraced, Ratios, Unattributed;
    std::map<std::string, std::vector<double>> Total, Self;
    CoreNumbers Core;
    uint64_t Deadline = nowNs() + static_cast<uint64_t>(Seconds * 1e9);
    for (unsigned I = 0; I < MinTracePairs || nowNs() < Deadline; ++I) {
      Tracer T;
      double TracedMs = 0, UntracedMs = 0;
      bool TracedFirst = I % 2 == 0;
      for (bool Trace : {TracedFirst, !TracedFirst}) {
        if (Trace)
          TracedMs = runOp(W, &T, "traced");
        else
          UntracedMs = runOp(W, nullptr, "untraced");
      }
      Untraced.push_back(UntracedMs);
      Ratios.push_back(TracedMs / UntracedMs);
      std::set<std::string> Names;
      for (const Tracer::SpanRec &S : T.spans())
        Names.insert(S.Name);
      for (const std::string &Name : Names) {
        Total[Name].push_back(ms(T.totalNs(Name)));
        Self[Name].push_back(ms(T.selfNs(Name)));
      }
      Unattributed.push_back(Self["op"].back() / Total["op"].back() * 100);
      Core.Tally = W.tally();
    }
    double TracedOpMs = median(Total["op"]);
    for (const auto &[Name, V] : Total)
      Record("span")
          .str("name", Name)
          .str("layer", layerOf(Name))
          .num("total_ms", median(V))
          .num("self_ms", median(Self[Name]))
          .num("self_share_pct", median(Self[Name]) / TracedOpMs * 100)
          .num("samples", static_cast<double>(V.size()))
          .emit();

    if (Core.Tally.Activations != 0) {
      Core.TrmsMs = median(Total["TrmsProfiler"]);
      Core.ReportMs = median(Total["renderToolReport"]);
    } else {
      Core = serialTracedPass();
    }
    emitMetric("core.trms_ms", Core.TrmsMs, "ms");
    emitMetric("core.activations", static_cast<double>(Core.Tally.Activations),
               "count");
    emitMetric("core.report_ms", Core.ReportMs, "ms");
    emitMetric("shadow.footprint_kb",
               static_cast<double>(Core.Tally.FootprintBytes) / 1024, "KiB");
    emitMetric("vm.slowdown_x", median(Untraced) / NativeMs, "x");
    emitMetric("bench.trace_overhead_pct", (median(Ratios) - 1) * 100, "%");
    emitMetric("bench.unattributed_pct", median(Unattributed), "%");
  }

  BenchWorkload &W;
  std::vector<std::string> Streams;
  double NativeMs = 0;
};

} // namespace

void perfbench::measureLayers(BenchWorkload &W, double Seconds) {
  LayerBattery(W).run(Seconds);
}
