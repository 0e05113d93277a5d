//===- tests/ParallelReplayTest.cpp - Parallel replay engine tests -----------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Byte-identity of shard-partitioned parallel replay against the serial
// streaming path, across shard and worker counts (on synthetic traces
// and on a recorded guest), under intensive renumbering, and resuming
// from a mid-stream seek; plus error surfacing and the replay
// statistics surface.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "core/TrmsProfiler.h"
#include "instr/Dispatcher.h"
#include "replay/ParallelReplay.h"
#include "tools/ToolRegistry.h"
#include "trace/Synthetic.h"
#include "trace/TraceStream.h"
#include "vm/Machine.h"
#include "workloads/Runner.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace isp;

namespace {

std::string tempPath(const char *Name) {
  return ::testing::TempDir() + Name;
}

std::vector<EventRecord> makeTrace(uint64_t Operations, uint64_t Seed,
                             unsigned Threads = 4) {
  SyntheticTraceOptions Gen;
  Gen.NumThreads = Threads;
  Gen.NumOperations = Operations;
  Gen.Seed = Seed;
  return generateSyntheticTrace(Gen);
}

void writeStream(const std::string &Path, const std::vector<EventRecord> &Events,
                 TraceStreamOptions Opts = TraceStreamOptions()) {
  TraceStreamWriter Writer;
  ASSERT_TRUE(Writer.open(Path, {}, Opts)) << Writer.error();
  for (const EventRecord &E : Events)
    Writer.append(E);
  ASSERT_TRUE(Writer.close()) << Writer.error();
}

/// The serial baseline: the production streaming path (dispatcher-fed).
std::string serialReport(const std::string &Path, TrmsProfilerOptions Opts,
                         size_t SeekChunk = 0) {
  TraceStreamReader Reader;
  EXPECT_TRUE(Reader.open(Path)) << Reader.error();
  TrmsProfiler Profiler(Opts);
  if (SeekChunk == 0) {
    EXPECT_TRUE(replayTraceStream(Reader, Profiler)) << Reader.error();
  } else {
    EventDispatcher Dispatcher;
    Dispatcher.addTool(&Profiler);
    Dispatcher.start(nullptr);
    std::vector<EventRecord> Chunk;
    Reader.seek(SeekChunk);
    while (Reader.nextChunk(Chunk))
      for (const EventRecord &E : Chunk)
        Dispatcher.enqueue(E);
    Dispatcher.finish();
    EXPECT_TRUE(Reader.error().empty()) << Reader.error();
  }
  return renderToolReport(Profiler, nullptr);
}

std::string parallelReport(const std::string &Path, TrmsProfilerOptions Opts,
                           unsigned Workers, size_t SeekChunk = 0,
                           ParallelReplayStats *StatsOut = nullptr,
                           uint64_t *EventsOut = nullptr) {
  TraceStreamReader Reader;
  EXPECT_TRUE(Reader.open(Path)) << Reader.error();
  Reader.seek(SeekChunk);
  ParallelReplayProfiler Profiler(Opts);
  ParallelReplayOptions ReplayOpts;
  ReplayOpts.Workers = Workers;
  EXPECT_TRUE(parallelReplayStream(Reader, Profiler, nullptr, ReplayOpts,
                                   StatsOut, EventsOut))
      << Reader.error();
  return renderToolReport(Profiler, nullptr);
}

TEST(ParallelReplay, MatchesSerialAcrossShardsAndWorkers) {
  std::vector<EventRecord> Events = makeTrace(20000, 21);
  std::string Path = tempPath("isprof_preplay_matrix.strm");
  writeStream(Path, Events);

  TrmsProfilerOptions Opts;
  std::string Expected = serialReport(Path, Opts);
  ASSERT_FALSE(Expected.empty());

  for (unsigned Shards : {1u, 4u, 16u}) {
    for (unsigned Workers : {0u, 1u, 2u, 4u}) {
      TrmsProfilerOptions ParOpts;
      ParOpts.ShadowShards = Shards;
      ParallelReplayStats Stats;
      uint64_t Replayed = 0;
      EXPECT_EQ(parallelReport(Path, ParOpts, Workers, 0, &Stats, &Replayed),
                Expected)
          << "shards=" << Shards << " workers=" << Workers;
      EXPECT_EQ(Replayed, Events.size());
      EXPECT_EQ(Stats.Workers, std::min(Workers, Shards));
    }
  }
  std::remove(Path.c_str());
}

/// Renders aprof-trms over the stream at \p Path with its own routine
/// names: serially through the dispatcher when \p Workers is 0,
/// otherwise through the parallel engine at \p Shards x \p Workers.
std::string namedReport(const std::string &Path, unsigned Shards,
                        unsigned Workers) {
  TraceStreamReader Reader;
  EXPECT_TRUE(Reader.open(Path)) << Reader.error();
  SymbolTable Symbols;
  for (const auto &[Id, Name] : Reader.routines())
    Symbols.intern(Name);
  if (Workers == 0) {
    TrmsProfiler Profiler;
    EXPECT_TRUE(replayTraceStream(Reader, Profiler, &Symbols))
        << Reader.error();
    return renderToolReport(Profiler, &Symbols);
  }
  TrmsProfilerOptions Opts;
  Opts.ShadowShards = Shards;
  ParallelReplayProfiler Profiler(Opts);
  ParallelReplayOptions ReplayOpts;
  ReplayOpts.Workers = Workers;
  EXPECT_TRUE(parallelReplayStream(Reader, Profiler, &Symbols, ReplayOpts))
      << Reader.error();
  return renderToolReport(Profiler, &Symbols);
}

TEST(ParallelReplay, RecordedGuestMatchesSerialAcrossShardsAndWorkers) {
  // A real guest rather than a synthetic trace: md with four guest
  // threads sharing one array, recorded live through the stream writer.
  const WorkloadInfo *W = findWorkload("md");
  ASSERT_NE(W, nullptr);
  WorkloadParams Params;
  Params.Threads = 4;
  Params.Size = 24;
  std::optional<Program> Prog = compileWorkload(*W, Params);
  ASSERT_TRUE(Prog.has_value());
  std::string Path = tempPath("isprof_preplay_md.strm");
  {
    TraceStreamWriter Writer;
    ASSERT_TRUE(Writer.open(Path, Prog->Symbols.entries())) << Writer.error();
    EventDispatcher Dispatcher;
    Dispatcher.setRecordSink(&Writer);
    Machine M(*Prog, &Dispatcher, MachineOptions());
    RunResult R = M.run();
    ASSERT_TRUE(R.Ok) << R.Error;
    ASSERT_TRUE(Writer.close()) << Writer.error();
  }

  std::string Expected = namedReport(Path, 1, 0);
  // Routine names come from the stream, so a broken symbol path shows.
  ASSERT_NE(Expected.find("pair_force"), std::string::npos) << Expected;
  for (unsigned Shards : {1u, 4u, 16u})
    for (unsigned Workers : {1u, 2u, 4u})
      EXPECT_EQ(namedReport(Path, Shards, Workers), Expected)
          << "shards=" << Shards << " workers=" << Workers;
  std::remove(Path.c_str());
}

TEST(ParallelReplay, RenumberingHeavyStaysIdentical) {
  // A tiny counter limit forces a renumbering every few hundred events,
  // exercising the full-barrier path constantly.
  std::vector<EventRecord> Events = makeTrace(12000, 22);
  std::string Path = tempPath("isprof_preplay_renumber.strm");
  writeStream(Path, Events);

  TrmsProfilerOptions Opts;
  Opts.CounterLimit = 512;
  std::string Expected = serialReport(Path, Opts);

  TraceStreamReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  TrmsProfilerOptions ParOpts = Opts;
  ParOpts.ShadowShards = 8;
  ParallelReplayProfiler Profiler(ParOpts);
  ParallelReplayOptions ReplayOpts;
  ReplayOpts.Workers = 4;
  ASSERT_TRUE(parallelReplayStream(Reader, Profiler, nullptr, ReplayOpts))
      << Reader.error();
  EXPECT_GT(Profiler.renumberings(), 0u);
  EXPECT_EQ(renderToolReport(Profiler, nullptr), Expected);
  std::remove(Path.c_str());
}

TEST(ParallelReplay, SeekResumeMatchesSerial) {
  TraceStreamOptions StreamOpts;
  StreamOpts.ChunkBytes = 2048; // many chunks, so mid-stream is real
  std::vector<EventRecord> Events = makeTrace(15000, 23);
  std::string Path = tempPath("isprof_preplay_seek.strm");
  writeStream(Path, Events, StreamOpts);

  TraceStreamReader Probe;
  ASSERT_TRUE(Probe.open(Path)) << Probe.error();
  ASSERT_GT(Probe.chunkCount(), 4u);
  size_t Mid = Probe.chunkCount() / 2;

  TrmsProfilerOptions Opts;
  std::string Expected = serialReport(Path, Opts, Mid);
  for (unsigned Workers : {0u, 2u, 4u}) {
    TrmsProfilerOptions ParOpts;
    ParOpts.ShadowShards = 16;
    EXPECT_EQ(parallelReport(Path, ParOpts, Workers, Mid), Expected)
        << "workers=" << Workers;
  }
  std::remove(Path.c_str());
}

TEST(ParallelReplay, MidStreamErrorSurfacesAndStillFinishes) {
  TraceStreamOptions StreamOpts;
  StreamOpts.ChunkBytes = 256; // small chunks, <128 events each
  std::vector<EventRecord> Events = makeTrace(4000, 24);
  std::string Path = tempPath("isprof_preplay_corrupt.strm");
  writeStream(Path, Events, StreamOpts);

  // Flip a bit in the first payload byte of chunk 1, so the stream fails
  // early with dozens of chunks still to come: chunk 0 replays, chunk 1's
  // payload checksum fails, and nothing after it is replayed.
  std::string Bytes;
  {
    std::ifstream In(Path, std::ios::binary);
    std::ostringstream Buffer;
    Buffer << In.rdbuf();
    Bytes = Buffer.str();
  }
  StreamLayout Layout = streamLayout(Bytes);
  ASSERT_GT(Layout.Chunks.size(), 20u);
  Bytes[Layout.Chunks[1].Payload] ^= 0x01;
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  }

  TraceStreamReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  ParallelReplayProfiler Profiler;
  ParallelReplayOptions ReplayOpts;
  ReplayOpts.Workers = 2;
  uint64_t Replayed = 0;
  EXPECT_FALSE(parallelReplayStream(Reader, Profiler, nullptr, ReplayOpts,
                                    nullptr, &Replayed));
  EXPECT_NE(Reader.error().find("payload checksum mismatch"),
            std::string::npos)
      << Reader.error();
  EXPECT_EQ(Reader.errorChunk(), 1u);
  // Chunk 0 replayed before the failure and the rest never did, and
  // onFinish ran: the partial report renders.
  EXPECT_GT(Replayed, 0u);
  EXPECT_LT(Replayed, Events.size());
  EXPECT_FALSE(renderToolReport(Profiler, nullptr).empty());
  std::remove(Path.c_str());
}

TEST(ParallelReplay, StatsReflectTheRun) {
  std::vector<EventRecord> Events = makeTrace(10000, 25);
  std::string Path = tempPath("isprof_preplay_stats.strm");
  writeStream(Path, Events);

  TrmsProfilerOptions Opts;
  Opts.ShadowShards = 8;
  ParallelReplayStats Stats;
  parallelReport(Path, Opts, 2, 0, &Stats);
  EXPECT_EQ(Stats.Workers, 2u);
  EXPECT_GT(Stats.Epochs, 0u);     // every call/return seals
  EXPECT_GT(Stats.MemOps, 0u);
  EXPECT_GE(Stats.ShardOps, Stats.MemOps);
  EXPECT_GT(Stats.QueueDepthMax, 0u);

  // A worker request beyond the shard count is capped: extra workers
  // would own no shard.
  TrmsProfilerOptions Small;
  Small.ShadowShards = 4;
  ParallelReplayStats Capped;
  parallelReport(Path, Small, 32, 0, &Capped);
  EXPECT_EQ(Capped.Workers, 4u);
  std::remove(Path.c_str());
}

TEST(ParallelReplay, ActivityMasksSkipUntouchedWorkers) {
  // Every memory access lands in shadow chunk key 0 → shard 0 →
  // worker 0; with the chunk masks, workers 1..3 skip every chunk.
  std::vector<EventRecord> Events;
  uint64_t Time = 1;
  Events.push_back(EventRecord::threadStart(0, Time++, 0));
  Events.push_back(EventRecord::call(0, Time++, 1));
  for (unsigned I = 0; I != 4000; ++I) {
    Events.push_back(EventRecord::write(0, Time++, I % 256, 1));
    Events.push_back(EventRecord::read(0, Time++, I % 256, 1));
  }
  Events.push_back(EventRecord::ret(0, Time++, 1, 0));
  Events.push_back(EventRecord::threadEnd(0, Time++));

  std::string Path = tempPath("isprof_preplay_skip.strm");
  TraceStreamOptions StreamOpts;
  StreamOpts.ChunkBytes = 1024;
  writeStream(Path, Events, StreamOpts);

  TraceStreamReader Probe;
  ASSERT_TRUE(Probe.open(Path)) << Probe.error();
  size_t ChunkCount = Probe.chunkCount();
  ASSERT_GT(ChunkCount, 2u);

  TrmsProfilerOptions Opts;
  Opts.ShadowShards = 16;
  ParallelReplayStats Stats;
  std::string Report = parallelReport(Path, Opts, 4, 0, &Stats);
  // Workers 1..3 are provably untouched by every chunk.
  EXPECT_EQ(Stats.ChunksSkipped, 3 * ChunkCount);
  // Skipping is bookkeeping only: the report is the serial one.
  EXPECT_EQ(Report, serialReport(Path, Opts));
  std::remove(Path.c_str());
}

} // namespace
