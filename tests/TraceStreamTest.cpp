//===- tests/TraceStreamTest.cpp - Chunked streaming trace format --------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// The stream format (TraceStream.h) under test:
//
//  - round trip: append + close then chunk-by-chunk read reproduces the
//    event sequence and routine table exactly, across chunk sizes;
//  - chunks decode independently (out-of-order readChunk) — the property
//    chunk-level seek relies on;
//  - the dispatcher RecordSink hook writes exactly the stream the
//    dispatcher delivers, and the workload streams match pinned bytes;
//  - replay straight into a tool, replay through a dispatcher and the
//    live run give the same trms profile, also on a cut or corrupt
//    stream;
//  - writer memory (peakBufferedBytes) is bounded by one chunk no matter
//    how many events stream through;
//  - the prefix policy: every prefix of a stream opens with exactly its
//    complete chunks and reports itself incomplete;
//  - every single-bit flip in a chunk is caught by a checksum and named
//    by chunk, before any event or mask it guards is used;
//  - hand-built hostile chunks with valid checksums — overlong varints
//    (also at the head of a long payload), tags naming a region their
//    kind cannot have, event counts that do not fit, bytes after the end
//    marker, the previous format's magic — are rejected with a
//    diagnostic, never crash, and never allocate beyond what the actual
//    file bytes can back;
//  - the decoded records of the workload streams match a digest pinned
//    apart from the encoding.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "core/TrmsProfiler.h"
#include "trace/Synthetic.h"
#include "tools/ToolRegistry.h"
#include "trace/TraceStream.h"
#include "vm/Compiler.h"
#include "vm/Diag.h"
#include "workloads/Runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace isp;

namespace {

using RoutineTable = std::vector<std::pair<RoutineId, std::string>>;

std::string tempPath(const char *Name) {
  return ::testing::TempDir() + Name;
}

void writeFile(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  ASSERT_TRUE(Out.good());
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

std::vector<EventRecord> makeTrace(uint64_t Operations, uint64_t Seed,
                                   unsigned Threads = 4) {
  SyntheticTraceOptions Gen;
  Gen.NumThreads = Threads;
  Gen.NumOperations = Operations;
  Gen.Seed = Seed;
  return generateSyntheticTrace(Gen);
}

/// Writes \p Events to \p Path as a stream and asserts success.
void writeStream(const std::string &Path,
                 const std::vector<EventRecord> &Events,
                 const RoutineTable &Routines,
                 TraceStreamOptions Opts = TraceStreamOptions()) {
  TraceStreamWriter Writer;
  ASSERT_TRUE(Writer.open(Path, Routines, Opts)) << Writer.error();
  for (const EventRecord &E : Events)
    Writer.append(E);
  ASSERT_TRUE(Writer.close()) << Writer.error();
}

/// Drains every chunk of \p Reader from the start into one vector.
std::vector<EventRecord> readAll(TraceStreamReader &Reader) {
  std::vector<EventRecord> All, Chunk;
  Reader.seek(0);
  while (Reader.nextChunk(Chunk))
    All.insert(All.end(), Chunk.begin(), Chunk.end());
  return All;
}

/// Unsigned LEB128 append, mirroring the writer, for hand-building
/// streams.
void appendVarint(std::string &Out, uint64_t V) {
  while (V >= 0x80) {
    Out.push_back(static_cast<char>((V & 0x7f) | 0x80));
    V >>= 7;
  }
  Out.push_back(static_cast<char>(V));
}

void appendU32(std::string &Out, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

/// The layout of a writer-made stream, checked to end at its end marker.
StreamLayout layoutOf(const std::string &Bytes) {
  StreamLayout L = streamLayout(Bytes);
  EXPECT_EQ(L.EndMarker + 4, Bytes.size()) << "end marker must close the file";
  return L;
}

//===----------------------------------------------------------------------===//
// Round trip and chunk independence
//===----------------------------------------------------------------------===//

/// Bit-at-a-time CRC32C, the definition the sliced table must match.
uint32_t referenceCrc32c(const unsigned char *P, size_t Size) {
  uint32_t C = ~0u;
  for (size_t I = 0; I != Size; ++I) {
    C ^= P[I];
    for (int K = 0; K != 8; ++K)
      C = (C >> 1) ^ (0x82f63b78u & (0u - (C & 1)));
  }
  return ~C;
}

TEST(TraceStream, Crc32cMatchesKnownVectors) {
  EXPECT_EQ(crc32c("", 0), 0u);
  EXPECT_EQ(crc32c("123456789", 9), 0xe3069283u);
  // The sliced path agrees with the definition at every length and
  // alignment.
  unsigned char Bytes[100];
  for (size_t I = 0; I != sizeof(Bytes); ++I)
    Bytes[I] = static_cast<unsigned char>(I * 37 + 11);
  for (size_t Off = 0; Off != 8; ++Off)
    for (size_t Len = 0; Off + Len <= sizeof(Bytes); ++Len)
      ASSERT_EQ(crc32c(Bytes + Off, Len), referenceCrc32c(Bytes + Off, Len))
          << "offset " << Off << " length " << Len;
}

TEST(TraceStream, RoundTripsExactly) {
  std::vector<EventRecord> Events = makeTrace(3000, 7);
  RoutineTable Routines = {{0, "main"}, {1, "worker"}, {9, "long_name_rtn"}};
  std::string Path = tempPath("isprof_stream_roundtrip.strm");
  writeStream(Path, Events, Routines);

  TraceStreamReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  EXPECT_TRUE(Reader.complete());
  EXPECT_EQ(Reader.routines(), Routines);
  EXPECT_EQ(Reader.eventCount(), Events.size());
  EXPECT_EQ(readAll(Reader), Events);
  EXPECT_TRUE(Reader.error().empty()) << Reader.error();
  EXPECT_TRUE(isTraceStreamFile(Path));
  std::remove(Path.c_str());
}

TEST(TraceStream, ExtremeFieldValuesRoundTrip) {
  // Maximal ids, times, addresses and cell counts: varints at their
  // ten-byte limit still round-trip.
  EventRecord E;
  E.Kind = EventKind::Write;
  E.Tid = UINT32_MAX;
  E.Time = UINT64_MAX - 1;
  E.Arg0 = UINT64_MAX;
  E.Arg1 = UINT64_MAX;
  EventRecord E2 = E;
  E2.Kind = EventKind::Read;
  E2.Time = UINT64_MAX;
  E2.Arg0 = 0;
  RoutineTable Routines = {{UINT32_MAX, "edge"}};
  std::string Path = tempPath("isprof_stream_extreme.strm");
  writeStream(Path, {E, E2}, Routines);

  TraceStreamReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  EXPECT_EQ(Reader.routines(), Routines);
  EXPECT_EQ(readAll(Reader), (std::vector<EventRecord>{E, E2}));
  EXPECT_TRUE(Reader.error().empty()) << Reader.error();
  std::remove(Path.c_str());
}

TEST(TraceStream, ChunksDecodeIndependently) {
  // A tiny chunk size forces many chunks; decoding them in reverse must
  // give the same per-chunk events as decoding in order, because each
  // chunk's delta state starts from a clean slate.
  std::vector<EventRecord> Events = makeTrace(2000, 8);
  TraceStreamOptions Opts;
  Opts.ChunkBytes = 256;
  std::string Path = tempPath("isprof_stream_chunks.strm");
  writeStream(Path, Events, {}, Opts);

  TraceStreamReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  ASSERT_GT(Reader.chunkCount(), 4u);

  std::vector<std::vector<EventRecord>> InOrder(Reader.chunkCount());
  uint64_t IndexedEvents = 0;
  for (size_t I = 0; I != Reader.chunkCount(); ++I) {
    ASSERT_TRUE(Reader.readChunk(I, InOrder[I])) << Reader.error();
    EXPECT_EQ(InOrder[I].size(), Reader.chunkEvents(I));
    IndexedEvents += Reader.chunkEvents(I);
  }
  EXPECT_EQ(IndexedEvents, Events.size());

  std::vector<EventRecord> Chunk;
  for (size_t I = Reader.chunkCount(); I-- != 0;) {
    ASSERT_TRUE(Reader.readChunk(I, Chunk)) << Reader.error();
    EXPECT_EQ(Chunk, InOrder[I]) << "chunk " << I;
  }

  std::vector<EventRecord> All;
  for (const auto &C : InOrder)
    All.insert(All.end(), C.begin(), C.end());
  EXPECT_EQ(All, Events);
  std::remove(Path.c_str());
}

TEST(TraceStream, SeekResumesMidStream) {
  std::vector<EventRecord> Events = makeTrace(2000, 9);
  TraceStreamOptions Opts;
  Opts.ChunkBytes = 512;
  std::string Path = tempPath("isprof_stream_seek.strm");
  writeStream(Path, Events, {}, Opts);

  TraceStreamReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  ASSERT_GT(Reader.chunkCount(), 2u);

  // Replay resumed from a mid-stream chunk yields exactly the tail.
  size_t Mid = Reader.chunkCount() / 2;
  uint64_t Skipped = 0;
  for (size_t I = 0; I != Mid; ++I)
    Skipped += Reader.chunkEvents(I);
  Reader.seek(Mid);
  std::vector<EventRecord> Tail, Chunk;
  while (Reader.nextChunk(Chunk))
    Tail.insert(Tail.end(), Chunk.begin(), Chunk.end());
  ASSERT_TRUE(Reader.error().empty()) << Reader.error();
  ASSERT_EQ(Tail.size(), Events.size() - Skipped);
  for (size_t I = 0; I != Tail.size(); ++I)
    EXPECT_EQ(Tail[I], Events[Skipped + I]);
  std::remove(Path.c_str());
}

TEST(TraceStream, EmptyStreamIsValid) {
  RoutineTable Routines = {{3, "only"}};
  std::string Path = tempPath("isprof_stream_empty.strm");
  writeStream(Path, {}, Routines);

  TraceStreamReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  EXPECT_TRUE(Reader.complete());
  EXPECT_EQ(Reader.chunkCount(), 0u);
  EXPECT_EQ(Reader.eventCount(), 0u);
  EXPECT_EQ(Reader.routines(), Routines);
  std::vector<EventRecord> Chunk;
  EXPECT_FALSE(Reader.nextChunk(Chunk));
  EXPECT_TRUE(Reader.error().empty()) << Reader.error();
  std::remove(Path.c_str());
}

TEST(TraceStream, ActivityMasksRoundTrip) {
  // One chunk: routine 3 called, memory confined to shadow-chunk keys
  // 0 and 5. The chunk header's masks must name exactly those.
  std::vector<EventRecord> Events;
  Events.push_back(EventRecord::threadStart(0, 1, 0));
  Events.push_back(EventRecord::call(0, 2, 3));
  Events.push_back(EventRecord::write(0, 3, 16, 4));         // key 0
  Events.push_back(EventRecord::read(0, 4, 5 * 512 + 7, 2)); // key 5
  Events.push_back(EventRecord::ret(0, 5, 3, 0));
  Events.push_back(EventRecord::threadEnd(0, 6));
  std::string Path = tempPath("isprof_stream_masks.strm");
  writeStream(Path, Events, {});

  TraceStreamReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  ASSERT_EQ(Reader.chunkCount(), 1u);
  EXPECT_EQ(Reader.chunkRoutineMask(0), uint64_t(1) << 3);
  const ShardActivityMask &Mask = Reader.chunkShardMask(0);
  EXPECT_EQ(Mask[0], (uint64_t(1) << 0) | (uint64_t(1) << 5));
  EXPECT_EQ(Mask[1], 0u);
  EXPECT_EQ(Mask[2], 0u);
  EXPECT_EQ(Mask[3], 0u);
  // Only the write touches the written mask; the read's key 5 stays out.
  const ShardActivityMask &Written = Reader.chunkWrittenMask(0);
  EXPECT_EQ(Written[0], uint64_t(1) << 0);
  EXPECT_EQ(Written[1], 0u);
  EXPECT_EQ(Written[2], 0u);
  EXPECT_EQ(Written[3], 0u);
  EXPECT_EQ(readAll(Reader), Events);
  std::remove(Path.c_str());
}

TEST(TraceStream, WideRangeSaturatesShardMask) {
  // A single access spanning more shadow chunks than there are mask
  // slots degrades to the all-ones superset rather than wrapping.
  std::vector<EventRecord> Events;
  Events.push_back(EventRecord::threadStart(0, 1, 0));
  Events.push_back(EventRecord::write(0, 2, 0, 300 * 512));
  Events.push_back(EventRecord::threadEnd(0, 3));
  std::string Path = tempPath("isprof_stream_wide.strm");
  writeStream(Path, Events, {});

  TraceStreamReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  const ShardActivityMask &Mask = Reader.chunkShardMask(0);
  for (uint64_t Word : Mask)
    EXPECT_EQ(Word, ~uint64_t(0));
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Dispatcher integration: sink identity, bounded writer memory
//===----------------------------------------------------------------------===//

/// Hands every batch to two sinks.
struct TeeSink : EventDispatcher::RecordSink {
  TeeSink(RecordSink &A, RecordSink &B) : A(A), B(B) {}
  void recordBatch(const Event *Words, size_t Count) override {
    A.recordBatch(Words, Count);
    B.recordBatch(Words, Count);
  }
  RecordSink &A, &B;
};

TEST(TraceStream, SinkWritesExactlyTheDeliveredStream) {
  // Recording into a stream file and reading it back must reproduce,
  // event for event, the compacted stream the dispatcher delivered.
  std::vector<EventRecord> Raw = makeTrace(4000, 10);
  std::string Path = tempPath("isprof_stream_sink.strm");

  TraceStreamWriter Writer;
  ASSERT_TRUE(Writer.open(Path, {}));
  WordSink Delivered;
  TeeSink Tee(Writer, Delivered);
  EventDispatcher Dispatcher;
  Dispatcher.setRecordSink(&Tee);
  Dispatcher.start(nullptr);
  for (const EventRecord &E : Raw)
    Dispatcher.enqueue(E);
  Dispatcher.finish();
  ASSERT_TRUE(Writer.close()) << Writer.error();
  EXPECT_EQ(Writer.eventsWritten(), packedEventCount(Delivered.Words));

  TraceStreamReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  EXPECT_EQ(readAll(Reader), decodeEventStream(Delivered.Words));
  EXPECT_TRUE(Reader.error().empty()) << Reader.error();
  std::remove(Path.c_str());
}

TEST(TraceStream, StreamedReplayMatchesInMemoryProfile) {
  // Profile equivalence end to end: replaying a stream file through
  // replayTraceStream gives the same trms database as batched in-memory
  // replay of the identical event sequence.
  for (uint64_t Seed : {11u, 12u}) {
    std::vector<EventRecord> Events = makeTrace(5000, Seed);
    std::string Path = tempPath("isprof_stream_profile.strm");
    writeStream(Path, Events, {});

    TrmsProfilerOptions ProfOpts;
    ProfOpts.KeepActivationLog = true;
    TrmsProfiler InMemory(ProfOpts);
    replayTraceBatched(Events, InMemory);

    TraceStreamReader Reader;
    ASSERT_TRUE(Reader.open(Path)) << Reader.error();
    TrmsProfiler Streamed(ProfOpts);
    ASSERT_TRUE(replayTraceStream(Reader, Streamed)) << Reader.error();

    const ProfileDatabase &A = InMemory.database();
    const ProfileDatabase &B = Streamed.database();
    ASSERT_EQ(A.log().size(), B.log().size());
    for (size_t I = 0; I != A.log().size(); ++I)
      ASSERT_EQ(A.log()[I], B.log()[I]) << "activation " << I;
    EXPECT_EQ(A.GlobalReads, B.GlobalReads);
    EXPECT_EQ(A.GlobalInducedThread, B.GlobalInducedThread);
    std::remove(Path.c_str());
  }
}

TEST(TraceStream, WriterMemoryIsBoundedByOneChunk) {
  // The bounded-memory claim at unit scale: the writer's only variable
  // memory is the open-chunk buffer, whose high-water mark is one chunk
  // plus at most one encoded event — independent of stream length.
  TraceStreamOptions Opts;
  Opts.ChunkBytes = 1024;
  const uint64_t MaxEncodedEvent = 1 + 4 * 10; // kind byte + four varints
  for (uint64_t Operations : {1000u, 10000u}) {
    std::vector<EventRecord> Events = makeTrace(Operations, 13);
    std::string Path = tempPath("isprof_stream_bounded.strm");
    TraceStreamWriter Writer;
    ASSERT_TRUE(Writer.open(Path, {}, Opts));
    for (const EventRecord &E : Events)
      Writer.append(E);
    EXPECT_LE(Writer.peakBufferedBytes(), Opts.ChunkBytes + MaxEncodedEvent)
        << "at " << Operations << " events";
    ASSERT_TRUE(Writer.close());
    std::remove(Path.c_str());
  }
}

/// The bytes of the stream that \p Workload records at \p Size on two
/// threads in chunks of \p ChunkBytes, written through the dispatcher's
/// record sink as `isprof workload --record-stream` writes it.
std::string recordWorkloadStream(const char *Workload, uint64_t Size,
                                 size_t ChunkBytes) {
  const WorkloadInfo *W = findWorkload(Workload);
  EXPECT_NE(W, nullptr) << Workload;
  if (!W)
    return {};
  WorkloadParams Params;
  Params.Threads = 2;
  Params.Size = Size;
  std::string Error;
  std::optional<Program> Prog = compileWorkload(*W, Params, &Error);
  EXPECT_TRUE(Prog.has_value()) << Error;
  if (!Prog)
    return {};
  std::string Path = tempPath("isprof_stream_golden.strm");
  TraceStreamWriter Writer;
  TraceStreamOptions Opts;
  Opts.ChunkBytes = ChunkBytes;
  EXPECT_TRUE(Writer.open(Path, Prog->Symbols.entries(), Opts))
      << Writer.error();
  EventDispatcher Dispatcher;
  Dispatcher.setRecordSink(&Writer);
  Machine M(*Prog, &Dispatcher, MachineOptions());
  RunResult Result = M.run();
  EXPECT_TRUE(Result.Ok) << Result.Error;
  EXPECT_TRUE(Writer.close()) << Writer.error();
  std::string Bytes = readFile(Path);
  std::remove(Path.c_str());
  return Bytes;
}

TEST(TraceStream, WorkloadStreamsMatchGoldenBytes) {
  // The on-disk format is pinned byte for byte: these lengths and
  // CRC32Cs are of the streams this format's writer recorded, so any
  // writer change that moves a single byte fails here (what the bytes
  // decode to is pinned apart, by WorkloadStreamsDecodeToGoldenRecords).
  // The 1 KiB rows seal dozens of chunks, each resetting the delta
  // state and the activity masks.
  struct Golden {
    const char *Workload;
    size_t ChunkBytes;
    size_t Bytes;
    uint32_t Crc;
  };
  const size_t Default = TraceStreamOptions().ChunkBytes;
  for (const Golden &G : {Golden{"md", Default, 15908, 0x9f614dfe},
                          Golden{"dbserver", Default, 36904, 0x0b485375},
                          Golden{"vips_pipeline", Default, 29954, 0x177b9606},
                          Golden{"md", 1024, 16362, 0x4b7a73dd},
                          Golden{"dbserver", 1024, 38024, 0xefa93edd},
                          Golden{"vips_pipeline", 1024, 30852, 0xda132aae}}) {
    SCOPED_TRACE(std::string(G.Workload) + " in chunks of " +
                 std::to_string(G.ChunkBytes) + " bytes");
    std::string Bytes = recordWorkloadStream(G.Workload, 16, G.ChunkBytes);
    EXPECT_EQ(Bytes.size(), G.Bytes);
    EXPECT_EQ(crc32c(Bytes.data(), Bytes.size()), G.Crc);
  }
}

/// A digest of the records a stream decodes to, whatever their encoding:
/// the event count and a CRC32C over every record's fields in
/// fixed-width little-endian order.
std::pair<uint64_t, uint32_t> decodedRecordDigest(const std::string &Bytes) {
  std::string Path = tempPath("isprof_stream_digest.strm");
  writeFile(Path, Bytes);
  TraceStreamReader Reader;
  EXPECT_TRUE(Reader.open(Path)) << Reader.error();
  std::vector<EventRecord> Records = readAll(Reader);
  EXPECT_TRUE(Reader.error().empty()) << Reader.error();
  std::remove(Path.c_str());
  std::string Fields;
  auto Put = [&Fields](uint64_t V, int Bytes) {
    for (int I = 0; I != Bytes; ++I)
      Fields.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
  };
  for (const EventRecord &E : Records) {
    Put(static_cast<uint64_t>(E.Kind), 1);
    Put(E.Tid, 4);
    Put(E.Time, 8);
    Put(E.Arg0, 8);
    Put(E.Arg1, 8);
  }
  return {Records.size(), crc32c(Fields.data(), Fields.size())};
}

TEST(TraceStream, WorkloadStreamsDecodeToGoldenRecords) {
  // What a stream means, pinned apart from its bytes: these digests are
  // of the records the previous format's writer and reader produced
  // for the same runs, so a codec change that alters any decoded field
  // fails here even where the byte-level golden test is re-pinned. The
  // chunk size changes the bytes, never the records.
  struct Golden {
    const char *Workload;
    uint64_t Events;
    uint32_t Crc;
  };
  const size_t Default = TraceStreamOptions().ChunkBytes;
  for (const Golden &G : {Golden{"md", 4785, 0xc89c25b9},
                          Golden{"dbserver", 11401, 0x50f1a1ce},
                          Golden{"vips_pipeline", 8698, 0x7498a691}})
    for (size_t ChunkBytes : {Default, size_t(1024)}) {
      SCOPED_TRACE(std::string(G.Workload) + " in chunks of " +
                   std::to_string(ChunkBytes) + " bytes");
      std::pair<uint64_t, uint32_t> Digest =
          decodedRecordDigest(recordWorkloadStream(G.Workload, 16, ChunkBytes));
      EXPECT_EQ(Digest.first, G.Events);
      EXPECT_EQ(Digest.second, G.Crc);
    }
}

//===----------------------------------------------------------------------===//
// Replay paths: direct ≡ dispatcher ≡ live
//===----------------------------------------------------------------------===//

/// What a logged TrmsProfiler run leaves behind.
struct TrmsOutcome {
  std::vector<ActivationRecord> Log;
  uint64_t InducedThread = 0, InducedExternal = 0, PlainFirst = 0, Reads = 0;
  std::string Report;
};

TrmsProfilerOptions loggedTrms() {
  TrmsProfilerOptions Opts;
  Opts.KeepActivationLog = true;
  return Opts;
}

TrmsOutcome outcomeOf(TrmsProfiler &P, const SymbolTable &Symbols) {
  const ProfileDatabase &Db = P.database();
  return {Db.log(),          Db.GlobalInducedThread,
          Db.GlobalInducedExternal, Db.GlobalPlainFirstAccesses,
          Db.GlobalReads,    renderToolReport(P, &Symbols)};
}

void expectSameOutcome(const TrmsOutcome &Got, const TrmsOutcome &Want,
                       const char *Path) {
  SCOPED_TRACE(Path);
  ASSERT_EQ(Got.Log.size(), Want.Log.size());
  for (size_t I = 0; I != Want.Log.size(); ++I)
    ASSERT_EQ(Got.Log[I], Want.Log[I]) << "activation " << I;
  EXPECT_EQ(Got.InducedThread, Want.InducedThread);
  EXPECT_EQ(Got.InducedExternal, Want.InducedExternal);
  EXPECT_EQ(Got.PlainFirst, Want.PlainFirst);
  EXPECT_EQ(Got.Reads, Want.Reads);
  EXPECT_EQ(Got.Report, Want.Report);
}

/// Replays the stream in \p Bytes through the direct (Tool) path and the
/// dispatcher path; both must return \p WantOk and reproduce \p Want.
void expectReplayPathsGive(const std::string &Bytes, bool WantOk,
                           const TrmsOutcome &Want) {
  std::string Path = tempPath("isprof_stream_paths.strm");
  writeFile(Path, Bytes);
  {
    TraceStreamReader Reader;
    ASSERT_TRUE(Reader.open(Path)) << Reader.error();
    SymbolTable Symbols;
    for (const auto &[Id, Name] : Reader.routines())
      Symbols.intern(Name);
    TrmsProfiler Direct(loggedTrms());
    EXPECT_EQ(replayTraceStream(Reader, Direct, &Symbols), WantOk)
        << Reader.error();
    expectSameOutcome(outcomeOf(Direct, Symbols), Want, "direct replay");
  }
  {
    TraceStreamReader Reader;
    ASSERT_TRUE(Reader.open(Path)) << Reader.error();
    SymbolTable Symbols;
    for (const auto &[Id, Name] : Reader.routines())
      Symbols.intern(Name);
    TrmsProfiler Batched(loggedTrms());
    EventDispatcher Dispatcher;
    Dispatcher.addTool(&Batched);
    Dispatcher.start(&Symbols);
    EXPECT_EQ(replayTraceStream(Reader, Dispatcher), WantOk) << Reader.error();
    Dispatcher.finish();
    expectSameOutcome(outcomeOf(Batched, Symbols), Want, "dispatcher replay");
  }
  std::remove(Path.c_str());
}

/// The outcome of replaying, event by event with no dispatcher, the
/// records of the first \p Chunks chunks of the stream in \p Bytes.
TrmsOutcome referenceOfPrefix(const std::string &Bytes, size_t Chunks) {
  std::string Path = tempPath("isprof_stream_pathsref.strm");
  writeFile(Path, Bytes);
  TraceStreamReader Reader;
  EXPECT_TRUE(Reader.open(Path)) << Reader.error();
  SymbolTable Symbols;
  for (const auto &[Id, Name] : Reader.routines())
    Symbols.intern(Name);
  std::vector<EventRecord> Events, Chunk;
  for (size_t I = 0; I != Chunks; ++I) {
    EXPECT_TRUE(Reader.readChunk(I, Chunk)) << Reader.error();
    Events.insert(Events.end(), Chunk.begin(), Chunk.end());
  }
  std::remove(Path.c_str());
  TrmsProfiler P(loggedTrms());
  replayTrace(Events, P, &Symbols);
  return outcomeOf(P, Symbols);
}

/// Runs \p Prog live under a logged TrmsProfiler while recording its
/// stream in small chunks; checks that both replay paths reproduce the
/// live outcome on the whole stream, and the outcome of the surviving
/// chunks on a prefix cut inside a middle chunk and on a stream whose
/// middle chunk is corrupt.
void checkReplayPaths(const Program &Prog) {
  std::string Path = tempPath("isprof_stream_live.strm");
  TraceStreamOptions Opts;
  Opts.ChunkBytes = 16; // even the shortest example spans 3+ chunks
  TraceStreamWriter Writer;
  ASSERT_TRUE(Writer.open(Path, Prog.Symbols.entries(), Opts))
      << Writer.error();
  TrmsProfiler Live(loggedTrms());
  EventDispatcher Dispatcher;
  Dispatcher.addTool(&Live);
  Dispatcher.setRecordSink(&Writer);
  Machine M(Prog, &Dispatcher, MachineOptions());
  RunResult Result = M.run();
  ASSERT_TRUE(Result.Ok) << Result.Error;
  ASSERT_TRUE(Writer.close()) << Writer.error();
  std::string Bytes = readFile(Path);
  std::remove(Path.c_str());

  SCOPED_TRACE("whole stream");
  expectReplayPathsGive(Bytes, true, outcomeOf(Live, Prog.Symbols));

  StreamLayout L = layoutOf(Bytes);
  ASSERT_GE(L.Chunks.size(), 3u);
  size_t Mid = L.Chunks.size() / 2;
  TrmsOutcome Survivors = referenceOfPrefix(Bytes, Mid);
  {
    SCOPED_TRACE("prefix cut inside chunk " + std::to_string(Mid));
    expectReplayPathsGive(Bytes.substr(0, L.Chunks[Mid].Payload + 3), true,
                          Survivors);
  }
  {
    SCOPED_TRACE("chunk " + std::to_string(Mid) + " corrupt");
    std::string Corrupt = Bytes;
    Corrupt[L.Chunks[Mid].Payload + 1] ^= 0x10;
    expectReplayPathsGive(Corrupt, false, Survivors);
  }
}

TEST(TraceStreamReplayPaths, ExampleGuestsAgreeOnEveryPath) {
  size_t Guests = 0;
  for (const auto &Entry :
       std::filesystem::directory_iterator(ISPROF_GUEST_DIR)) {
    if (Entry.path().extension() != ".mini")
      continue;
    SCOPED_TRACE(Entry.path().filename().string());
    DiagnosticEngine Diags;
    std::optional<Program> Prog =
        compileProgram(readFile(Entry.path().string()), Diags);
    ASSERT_TRUE(Prog.has_value()) << Diags.render();
    checkReplayPaths(*Prog);
    ++Guests;
  }
  EXPECT_GE(Guests, 9u);
}

TEST(TraceStreamReplayPaths, WorkloadGuestsAgreeOnEveryPath) {
  for (const char *Name : {"md", "dbserver", "vips_pipeline"}) {
    SCOPED_TRACE(Name);
    WorkloadParams Params;
    Params.Size = 16;
    std::string Error;
    std::optional<Program> Prog =
        compileWorkload(*findWorkload(Name), Params, &Error);
    ASSERT_TRUE(Prog.has_value()) << Error;
    checkReplayPaths(*Prog);
  }
}

//===----------------------------------------------------------------------===//
// Prefix policy and checksums
//===----------------------------------------------------------------------===//

TEST(TraceStreamPrefix, EveryPrefixOpensWithExactlyItsCompleteChunks) {
  // A stream cut at any byte — a writer still running, or one that
  // died — opens with the complete chunks before the cut, decodes to
  // exactly their events, and reports itself incomplete. Only the
  // whole file, end marker included, is complete.
  std::vector<EventRecord> Events = makeTrace(400, 15);
  RoutineTable Routines = {{0, "f"}, {1, "g"}};
  TraceStreamOptions Opts;
  Opts.ChunkBytes = 128; // many chunks, so cuts land everywhere
  std::string Path = tempPath("isprof_stream_prefixsrc.strm");
  writeStream(Path, Events, Routines, Opts);
  std::string Bytes = readFile(Path);
  std::remove(Path.c_str());
  StreamLayout L = layoutOf(Bytes);
  ASSERT_GT(L.Chunks.size(), 10u);

  // Events of the first K chunks, for every K.
  std::vector<std::vector<EventRecord>> PrefixEvents(1);
  {
    TraceStreamReader Full;
    writeFile(Path, Bytes);
    ASSERT_TRUE(Full.open(Path)) << Full.error();
    ASSERT_EQ(Full.chunkCount(), L.Chunks.size());
    std::vector<EventRecord> Chunk;
    for (size_t I = 0; I != Full.chunkCount(); ++I) {
      ASSERT_TRUE(Full.readChunk(I, Chunk)) << Full.error();
      PrefixEvents.push_back(PrefixEvents.back());
      PrefixEvents.back().insert(PrefixEvents.back().end(), Chunk.begin(),
                                 Chunk.end());
    }
    ASSERT_EQ(PrefixEvents.back(), Events);
    std::remove(Path.c_str());
  }

  std::string CutPath = tempPath("isprof_stream_prefix.strm");
  for (size_t Len = 0; Len <= Bytes.size(); ++Len) {
    SCOPED_TRACE("prefix of " + std::to_string(Len) + " bytes");
    writeFile(CutPath, Bytes.substr(0, Len));
    size_t Complete = 0;
    while (Complete != L.Chunks.size() && L.Chunks[Complete].End <= Len)
      ++Complete;
    TraceStreamReader Reader;
    ASSERT_TRUE(Reader.open(CutPath)) << Reader.error();
    EXPECT_EQ(Reader.complete(), Len == Bytes.size());
    EXPECT_EQ(Reader.routines(),
              Len >= L.HeaderEnd ? Routines : RoutineTable());
    ASSERT_EQ(Reader.chunkCount(), Complete);
    EXPECT_EQ(Reader.eventCount(), PrefixEvents[Complete].size());
    EXPECT_EQ(readAll(Reader), PrefixEvents[Complete]);
    EXPECT_TRUE(Reader.error().empty()) << Reader.error();
  }
  std::remove(CutPath.c_str());
}

TEST(TraceStreamPrefix, EveryChunkBitFlipIsCaughtAndNamed) {
  // Flip every bit of every chunk — header fields, header CRC, payload,
  // payload CRC. Each flip must make the stream corrupt at exactly that
  // chunk: either open() refuses it (a chunk header), or open() accepts
  // unchanged headers and readChunk() refuses the flipped payload. No
  // flip may change an event, an event count or a mask: those are what
  // replay decodes and what the collector and parallel replay skip on.
  std::vector<EventRecord> Events = makeTrace(150, 16);
  TraceStreamOptions Opts;
  Opts.ChunkBytes = 160;
  std::string Path = tempPath("isprof_stream_flipsrc.strm");
  writeStream(Path, Events, {{0, "main"}}, Opts);
  std::string Bytes = readFile(Path);
  StreamLayout L = layoutOf(Bytes);
  ASSERT_GT(L.Chunks.size(), 3u);

  struct ChunkTruth {
    uint64_t Events, RoutineMask;
    ShardActivityMask Shard, Written;
    std::vector<EventRecord> Decoded;
  };
  std::vector<ChunkTruth> Truth;
  {
    TraceStreamReader Reader;
    ASSERT_TRUE(Reader.open(Path)) << Reader.error();
    for (size_t I = 0; I != Reader.chunkCount(); ++I) {
      ChunkTruth T{Reader.chunkEvents(I), Reader.chunkRoutineMask(I),
                   Reader.chunkShardMask(I), Reader.chunkWrittenMask(I), {}};
      ASSERT_TRUE(Reader.readChunk(I, T.Decoded)) << Reader.error();
      Truth.push_back(T);
    }
  }
  std::remove(Path.c_str());

  std::string MutPath = tempPath("isprof_stream_flip.strm");
  size_t Flips = 0;
  for (size_t K = 0; K != L.Chunks.size(); ++K) {
    std::string Named = "chunk " + std::to_string(K) + ": ";
    for (size_t Pos = L.Chunks[K].Begin; Pos != L.Chunks[K].End; ++Pos) {
      for (int Bit = 0; Bit != 8; ++Bit, ++Flips) {
        SCOPED_TRACE("chunk " + std::to_string(K) + " byte " +
                     std::to_string(Pos) + " bit " + std::to_string(Bit));
        std::string Mutated = Bytes;
        Mutated[Pos] = static_cast<char>(Mutated[Pos] ^ (1 << Bit));
        writeFile(MutPath, Mutated);
        TraceStreamReader Reader;
        if (!Reader.open(MutPath)) {
          EXPECT_EQ(Reader.errorChunk(), K) << Reader.error();
          EXPECT_EQ(Reader.error().rfind(Named, 0), 0u) << Reader.error();
          continue;
        }
        // Accepted headers must be the written ones, all of them.
        ASSERT_TRUE(Reader.complete());
        ASSERT_EQ(Reader.chunkCount(), Truth.size());
        for (size_t I = 0; I != Truth.size(); ++I) {
          ASSERT_EQ(Reader.chunkEvents(I), Truth[I].Events);
          ASSERT_EQ(Reader.chunkRoutineMask(I), Truth[I].RoutineMask);
          ASSERT_EQ(Reader.chunkShardMask(I), Truth[I].Shard);
          ASSERT_EQ(Reader.chunkWrittenMask(I), Truth[I].Written);
        }
        std::vector<EventRecord> Chunk;
        for (size_t I = 0; I != K; ++I) {
          ASSERT_TRUE(Reader.readChunk(I, Chunk)) << Reader.error();
          ASSERT_EQ(Chunk, Truth[I].Decoded);
        }
        EXPECT_FALSE(Reader.readChunk(K, Chunk))
            << "flipped payload decoded silently";
        EXPECT_EQ(Reader.errorChunk(), K);
        EXPECT_EQ(Reader.error().rfind(Named, 0), 0u) << Reader.error();
      }
    }
  }
  EXPECT_GT(Flips, 1000u);
  std::remove(MutPath.c_str());
}

TEST(TraceStreamPrefix, EveryHeaderBitFlipFailsOpen) {
  // The file header is guarded like a chunk: its routine-table length
  // sits under one CRC and the table under another. So a flipped bit
  // anywhere in the header — magic, length, table or either CRC — makes
  // the stream corrupt. It is never read as a torn header (an empty,
  // incomplete stream) and never yields a wrong routine table.
  std::vector<EventRecord> Events = makeTrace(100, 17);
  std::string Path = tempPath("isprof_stream_hdrsrc.strm");
  writeStream(Path, Events, {{0, "main"}, {7, "helper"}});
  std::string Bytes = readFile(Path);
  std::remove(Path.c_str());
  StreamLayout L = layoutOf(Bytes);

  std::string MutPath = tempPath("isprof_stream_hdrflip.strm");
  for (size_t Pos = 0; Pos != L.HeaderEnd; ++Pos) {
    for (int Bit = 0; Bit != 8; ++Bit) {
      SCOPED_TRACE("byte " + std::to_string(Pos) + " bit " +
                   std::to_string(Bit));
      std::string Mutated = Bytes;
      Mutated[Pos] = static_cast<char>(Mutated[Pos] ^ (1 << Bit));
      writeFile(MutPath, Mutated);
      TraceStreamReader Reader;
      EXPECT_FALSE(Reader.open(MutPath));
      EXPECT_NE(Reader.error().find(Pos < 8 ? "bad magic" : "checksum"),
                std::string::npos)
          << Reader.error();
      EXPECT_TRUE(Reader.routines().empty());
      EXPECT_EQ(Reader.chunkCount(), 0u);
    }
  }
  std::remove(MutPath.c_str());
}

//===----------------------------------------------------------------------===//
// Hand-built hostile chunks: valid checksums, malformed contents
//===----------------------------------------------------------------------===//

/// Hand-builds stream files whose checksums are all valid around
/// arbitrary chunk contents, so single fields can be made hostile in
/// isolation.
struct StreamBuilder {
  std::string Bytes;

  /// Starts a stream whose header carries the encoded routine table
  /// \p Table (by default an empty one: a zero count).
  explicit StreamBuilder(const std::string &Table = std::string(1, '\0')) {
    Bytes.assign("ISPSTM05", 8);
    appendU32(Bytes, static_cast<uint32_t>(Table.size()));
    appendU32(Bytes, crc32c(Bytes.data(), Bytes.size()));
    Bytes += Table;
    appendU32(Bytes, crc32c(Table.data(), Table.size()));
  }
  /// Appends a chunk whose header claims \p Events events.
  void addChunk(const std::string &Payload, uint64_t Events) {
    std::string Header;
    appendU32(Header, static_cast<uint32_t>(Payload.size()));
    appendVarint(Header, Events);
    for (int I = 0; I != 9; ++I)
      appendVarint(Header, 0); // routine, shard and written masks
    appendU32(Header, crc32c(Header.data(), Header.size()));
    Bytes += Header + Payload;
    appendU32(Bytes, crc32c(Payload.data(), Payload.size()));
  }
  std::string finish() {
    appendU32(Bytes, 0);
    return Bytes;
  }
};

/// One well-formed encoded event for hand-built payloads, with every
/// field explicit: tag 0 (kind ThreadStart, region 0, no field elided),
/// then the tid, time-delta, arg0-delta and arg1 varints.
void appendEvent(std::string &Out, uint64_t Tid = 0, uint64_t TimeDelta = 1,
                 uint64_t Arg0Zigzag = 0, uint64_t Arg1 = 0) {
  Out.push_back(0);
  appendVarint(Out, Tid);
  appendVarint(Out, TimeDelta);
  appendVarint(Out, Arg0Zigzag);
  appendVarint(Out, Arg1);
}

/// An event whose tag, of kind \p Kind and region \p Region, elides the
/// tid and arg1: the tag, a one-byte time delta and the arg0 delta
/// \p Arg0Zigzag. Three bytes while \p Arg0Zigzag is below 128.
void appendShortEvent(std::string &Out, EventKind Kind = EventKind::ThreadStart,
                      unsigned Region = 0, uint64_t Arg0Zigzag = 0) {
  Out.push_back(static_cast<char>(static_cast<unsigned>(Kind) |
                                  EventTag::DefaultArg1 | EventTag::SameTid |
                                  Region << EventTag::RegionShift));
  appendVarint(Out, 1);
  appendVarint(Out, Arg0Zigzag);
}

/// Opens the stream in \p Bytes and, if that succeeds, reads every
/// chunk. Returns the first diagnostic, or "" when the whole file was
/// accepted. Must never crash, whatever the input.
std::string probeStream(const std::string &Bytes, const char *Name) {
  std::string Path = tempPath(Name);
  writeFile(Path, Bytes);
  TraceStreamReader Reader;
  std::string Diag;
  if (!Reader.open(Path)) {
    Diag = Reader.error();
    EXPECT_FALSE(Diag.empty()) << "rejection must carry a diagnostic";
  } else {
    std::vector<EventRecord> Chunk;
    for (size_t I = 0; I != Reader.chunkCount() && Diag.empty(); ++I)
      if (!Reader.readChunk(I, Chunk))
        Diag = Reader.error();
  }
  std::remove(Path.c_str());
  return Diag;
}

TEST(TraceStreamHardening, BuilderMatchesTheWriter) {
  // The builder's framing and event encoding are the real ones: the
  // writer encodes these two records to exactly the builder's payload —
  // a ThreadStart with every field explicit, then a stack-region Read
  // that repeats the tid, has the default one cell and is coded against
  // the stack predictor — and the built stream reads back to them.
  const std::vector<EventRecord> Records = {
      {EventKind::ThreadStart, 2, 5, 0, 1},
      EventRecord::read(2, 6, StackRegionStart)};
  std::string Payload;
  appendEvent(Payload, 2, 5, 0, 1);
  appendShortEvent(Payload, EventKind::Read, 2, StackRegionStart << 1);
  StreamBuilder B;
  B.addChunk(Payload, Records.size());
  std::string BuiltPath = tempPath("isprof_stream_builder.strm");
  writeFile(BuiltPath, B.finish());
  TraceStreamReader Built;
  ASSERT_TRUE(Built.open(BuiltPath)) << Built.error();
  EXPECT_EQ(readAll(Built), Records);
  EXPECT_TRUE(Built.error().empty()) << Built.error();
  std::remove(BuiltPath.c_str());

  std::string WriterPath = tempPath("isprof_stream_builderwriter.strm");
  writeStream(WriterPath, Records, {});
  std::string Written = readFile(WriterPath);
  std::remove(WriterPath.c_str());
  StreamLayout L = layoutOf(Written);
  ASSERT_EQ(L.Chunks.size(), 1u);
  const StreamLayout::Chunk &C = L.Chunks[0];
  EXPECT_EQ(Written.substr(C.Payload, C.End - 4 - C.Payload), Payload);

  std::string Table;
  appendVarint(Table, 1);
  appendVarint(Table, 300);
  appendVarint(Table, 4);
  Table += "main";
  std::string Path = tempPath("isprof_stream_buildertable.strm");
  writeFile(Path, StreamBuilder(Table).finish());
  TraceStreamReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  EXPECT_TRUE(Reader.complete());
  EXPECT_EQ(Reader.routines(), RoutineTable({{300, "main"}}));
  std::remove(Path.c_str());
}

TEST(TraceStreamHardening, RejectsOverlongVarintInsideChunk) {
  // A time-delta varint with eleven continuation bytes: more than any
  // uint64 can need. The checksums are valid, so only the in-chunk
  // varint decoder can catch it.
  std::string Payload;
  Payload.push_back(0);     // tag: every field explicit
  appendVarint(Payload, 0); // tid
  for (int I = 0; I != 11; ++I)
    Payload.push_back(static_cast<char>(0x81));
  Payload.push_back(0x00);  // the overlong time delta
  appendVarint(Payload, 0); // arg0
  appendVarint(Payload, 0); // arg1
  StreamBuilder B;
  B.addChunk(Payload, 1);
  std::string Diag = probeStream(B.finish(), "isprof_stream_overlong.strm");
  EXPECT_NE(Diag.find("chunk 0: corrupt chunk"), std::string::npos) << Diag;

  // Ten bytes with payload past bit 63 — the wrap-silently classic.
  std::string Wrap;
  Wrap.push_back(0);
  appendVarint(Wrap, 0);
  for (int I = 0; I != 9; ++I)
    Wrap.push_back(static_cast<char>(0x80));
  Wrap.push_back(0x02); // bit 64
  appendVarint(Wrap, 0);
  appendVarint(Wrap, 0);
  StreamBuilder B2;
  B2.addChunk(Wrap, 1);
  Diag = probeStream(B2.finish(), "isprof_stream_overlong2.strm");
  EXPECT_NE(Diag.find("corrupt chunk"), std::string::npos) << Diag;
}

TEST(TraceStreamHardening, RejectsBadFieldsAtTheHeadOfALongPayload) {
  // Each hostile field sits at the head of a payload of well over 256
  // bytes, far from its end: the decoder must catch it from the field
  // itself, not from running out of payload.
  const uint64_t Filler = 60; // five-byte events after the bad one
  auto Probe = [&](const std::string &Head, const char *Name) {
    std::string Payload = Head;
    for (uint64_t I = 0; I != Filler; ++I)
      appendEvent(Payload);
    EXPECT_GE(Payload.size(), 256u);
    StreamBuilder B;
    B.addChunk(Payload, 1 + Filler);
    return probeStream(B.finish(), Name);
  };

  std::string Overlong;
  Overlong.push_back(0);
  appendVarint(Overlong, 0);
  for (int I = 0; I != 10; ++I)
    Overlong.push_back(static_cast<char>(0x81));
  Overlong.push_back(0x00); // an eleven-byte time delta
  appendVarint(Overlong, 0);
  appendVarint(Overlong, 0);
  std::string Diag = Probe(Overlong, "isprof_stream_longoverlong.strm");
  EXPECT_NE(Diag.find("chunk 0: corrupt chunk: bad event varint"),
            std::string::npos)
      << Diag;

  std::string Wrap;
  Wrap.push_back(0);
  appendVarint(Wrap, 0);
  for (int I = 0; I != 9; ++I)
    Wrap.push_back(static_cast<char>(0x80));
  Wrap.push_back(0x02); // a tenth byte carrying bit 64
  appendVarint(Wrap, 0);
  appendVarint(Wrap, 0);
  Diag = Probe(Wrap, "isprof_stream_longwrap.strm");
  EXPECT_NE(Diag.find("chunk 0: corrupt chunk: bad event varint"),
            std::string::npos)
      << Diag;

  std::string BigTid;
  appendEvent(BigTid, uint64_t(UINT32_MAX) + 1);
  Diag = Probe(BigTid, "isprof_stream_longbigtid.strm");
  EXPECT_NE(Diag.find("chunk 0: corrupt chunk: thread id out of range"),
            std::string::npos)
      << Diag;

  // The control: the same long payload with a good head is accepted.
  std::string Good;
  appendEvent(Good);
  EXPECT_EQ(Probe(Good, "isprof_stream_longgood.strm"), "");
}

TEST(TraceStreamHardening, FinalEventNearThePayloadEndIsBoundsChecked) {
  // Less than a worst-case event's worth of payload is left for the
  // final event: one cut short fails cleanly, while one whose four
  // fields are ten-byte varints still decodes.
  // Six-byte events, so the header's count may exceed the payload's.
  std::string Long;
  for (int I = 0; I != 60; ++I)
    appendEvent(Long, 0, 1, 0, 200);
  const uint64_t Events = 60;

  std::string Cut = Long;
  Cut.push_back(0);           // tag: every field explicit
  appendVarint(Cut, 0);       // tid
  Cut.push_back(static_cast<char>(0x81));
  Cut.push_back(static_cast<char>(0x81)); // time delta runs off the end
  StreamBuilder B;
  B.addChunk(Cut, Events + 1);
  std::string Diag = probeStream(B.finish(), "isprof_stream_cutfinal.strm");
  EXPECT_NE(Diag.find("chunk 0: corrupt chunk: bad event varint"),
            std::string::npos)
      << Diag;

  // One event fewer than the header claims: the tag byte is missing.
  StreamBuilder B2;
  B2.addChunk(Long, Events + 1);
  Diag = probeStream(B2.finish(), "isprof_stream_missingfinal.strm");
  EXPECT_NE(Diag.find("chunk 0: corrupt chunk: truncated event"),
            std::string::npos)
      << Diag;

  std::string Widest = Long;
  Widest.push_back(0);
  for (int Field = 0; Field != 4; ++Field)
    appendVarint(Widest, Field == 0 ? UINT32_MAX : UINT64_MAX);
  StreamBuilder B3;
  B3.addChunk(Widest, Events + 1);
  EXPECT_EQ(probeStream(B3.finish(), "isprof_stream_widefinal.strm"), "");
}

TEST(TraceStreamHardening, RejectsOversizedThreadId) {
  std::string Payload;
  appendEvent(Payload, uint64_t(UINT32_MAX) + 1);
  StreamBuilder B;
  B.addChunk(Payload, 1);
  std::string Diag = probeStream(B.finish(), "isprof_stream_bigtid.strm");
  EXPECT_NE(Diag.find("thread id out of range"), std::string::npos) << Diag;
}

TEST(TraceStreamHardening, RejectsEventCountDisagreement) {
  // The header's event count and the payload must agree exactly, in
  // both directions.
  std::string Two;
  appendEvent(Two);
  appendEvent(Two);
  StreamBuilder B;
  B.addChunk(Two, /*Events=*/1);
  std::string Diag = probeStream(B.finish(), "isprof_stream_disagree.strm");
  EXPECT_NE(Diag.find("trailing payload bytes"), std::string::npos) << Diag;

  std::string Padded = Two + std::string(6, '\0');
  StreamBuilder B2;
  B2.addChunk(Padded, /*Events=*/3);
  Diag = probeStream(B2.finish(), "isprof_stream_disagree2.strm");
  EXPECT_NE(Diag.find("corrupt chunk"), std::string::npos) << Diag;
}

TEST(TraceStreamHardening, RejectsRegionBitsOutsideTheMemoryKinds) {
  // Only the six address-carrying kinds have a region, and only regions
  // 0..2 exist. Every other tag is refused by name, even though the
  // chunk's checksums are valid.
  const std::vector<EventKind> MemoryKinds = {
      EventKind::Read,        EventKind::Write, EventKind::KernelRead,
      EventKind::KernelWrite, EventKind::Alloc, EventKind::Free};
  for (unsigned K = 0; K != EventTag::Kinds; ++K) {
    EventKind Kind = static_cast<EventKind>(K);
    bool Memory = std::find(MemoryKinds.begin(), MemoryKinds.end(), Kind) !=
                  MemoryKinds.end();
    for (unsigned Region = 0; Region != 4; ++Region) {
      SCOPED_TRACE(std::string(eventKindName(Kind)) + " in region " +
                   std::to_string(Region));
      std::string Payload;
      appendShortEvent(Payload, Kind, Region);
      StreamBuilder B;
      B.addChunk(Payload, 1);
      std::string Diag = probeStream(B.finish(), "isprof_stream_region.strm");
      if (Region == 0 || (Memory && Region != 3))
        EXPECT_EQ(Diag, "");
      else
        EXPECT_EQ(Diag, "chunk 0: corrupt chunk: invalid event tag");
    }
  }
}

TEST(TraceStreamHardening, RejectsRegionThreeAfterGoodEvents) {
  // Region 3 on a Read, the commonest kind, after well-formed events:
  // the records before it are delivered, then the tag is refused.
  std::string Payload;
  for (int I = 0; I != 4; ++I)
    appendShortEvent(Payload, EventKind::Read, 1);
  appendShortEvent(Payload, EventKind::Read, 3);
  StreamBuilder B;
  B.addChunk(Payload, 5);
  std::string Path = tempPath("isprof_stream_region3.strm");
  writeFile(Path, B.finish());
  TraceStreamReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  uint64_t Delivered = 0;
  EXPECT_FALSE(Reader.forEachEvent(0, [&](const EventRecord &) {
    ++Delivered;
  }));
  EXPECT_EQ(Delivered, 4u);
  EXPECT_EQ(Reader.error(), "chunk 0: corrupt chunk: invalid event tag");
  std::remove(Path.c_str());
}

TEST(TraceStreamHardening, AcceptsThreeByteEvents) {
  // The shortest event is three bytes, so a header may claim one event
  // per three payload bytes — and no more.
  const uint64_t Events = 100;
  std::string Payload;
  for (uint64_t I = 0; I != Events; ++I)
    appendShortEvent(Payload, EventKind::Write, 2);
  ASSERT_EQ(Payload.size(), 3 * Events);
  StreamBuilder B;
  B.addChunk(Payload, Events);
  EXPECT_EQ(probeStream(B.finish(), "isprof_stream_threebyte.strm"), "");

  StreamBuilder B2;
  B2.addChunk(Payload, Events + 1);
  std::string Diag = probeStream(B2.finish(), "isprof_stream_threebyte2.strm");
  EXPECT_NE(Diag.find("chunk 0: corrupt chunk header: event count does not "
                      "fit the payload"),
            std::string::npos)
      << Diag;
}

TEST(TraceStreamHardening, RejectsThePreviousFormat) {
  // A well-formed stream under the previous format's magic is not read
  // as this one: there is one format, and one reader.
  std::string Payload;
  appendEvent(Payload);
  StreamBuilder B;
  B.addChunk(Payload, 1);
  std::string Bytes = B.finish();
  Bytes.replace(0, 8, "ISPSTM04");
  std::string Path = tempPath("isprof_stream_v4.strm");
  writeFile(Path, Bytes);
  TraceStreamReader Reader;
  EXPECT_FALSE(Reader.open(Path));
  EXPECT_EQ(Reader.error(), "not a trace stream: bad magic");
  EXPECT_FALSE(isTraceStreamFile(Path));
  std::remove(Path.c_str());
}

TEST(TraceStreamHardening, RejectsHugeEventCountWithoutAllocating) {
  // A claimed count of 2^60 over a few payload bytes must be refused at
  // open(), before anything reserves room for it. (If the check were
  // missing this test would OOM, not just fail.)
  std::string Payload;
  appendEvent(Payload);
  StreamBuilder B;
  B.addChunk(Payload, uint64_t(1) << 60);
  std::string Diag = probeStream(B.finish(), "isprof_stream_hugecount.strm");
  EXPECT_NE(Diag.find("chunk 0: corrupt chunk header: event count"),
            std::string::npos)
      << Diag;
}

TEST(TraceStreamHardening, RejectsOversizedRoutineId) {
  // Routine ids are 32-bit; a CRC-valid table naming id 2^32 must be
  // refused, not truncated onto routine 0.
  std::string Table;
  appendVarint(Table, 1);
  appendVarint(Table, uint64_t(UINT32_MAX) + 1);
  appendVarint(Table, 1);
  Table += "f";
  std::string Diag =
      probeStream(StreamBuilder(Table).finish(), "isprof_stream_bigrid.strm");
  EXPECT_NE(Diag.find("routine id out of range"), std::string::npos) << Diag;
}

TEST(TraceStreamHardening, RejectsHugeRoutineCountAndLength) {
  // A CRC-valid table claiming 2^50 routines, or a 2^60-byte name, over
  // a few bytes must be refused before anything reserves room for the
  // claim. (If the clamp were missing this test would OOM, not fail.)
  std::string Count;
  appendVarint(Count, uint64_t(1) << 50);
  appendVarint(Count, 0);
  appendVarint(Count, 1);
  Count += "f";
  std::string Diag =
      probeStream(StreamBuilder(Count).finish(), "isprof_stream_hugerc.strm");
  EXPECT_NE(Diag.find("corrupt routine table: bad entry"), std::string::npos)
      << Diag;

  std::string Length;
  appendVarint(Length, 1);
  appendVarint(Length, 0);
  appendVarint(Length, uint64_t(1) << 60);
  Length += "ab";
  Diag = probeStream(StreamBuilder(Length).finish(),
                     "isprof_stream_hugelen.strm");
  EXPECT_NE(Diag.find("corrupt routine table: bad entry"), std::string::npos)
      << Diag;
}

TEST(TraceStreamHardening, RejectsBytesAfterTheEndMarker) {
  std::string Payload;
  appendEvent(Payload);
  StreamBuilder B;
  B.addChunk(Payload, 1);
  std::string Bytes = B.finish() + "x";
  std::string Diag = probeStream(Bytes, "isprof_stream_afterend.strm");
  EXPECT_NE(Diag.find("chunk 1: corrupt stream: bytes after the end marker"),
            std::string::npos)
      << Diag;
}

TEST(TraceStreamHardening, RejectsForeignFilesAndOtherMagics) {
  std::vector<EventRecord> Events = makeTrace(100, 19);
  std::string Path = tempPath("isprof_stream_magic.strm");
  writeStream(Path, Events, {});
  std::string Bytes = readFile(Path);
  Bytes[7] = '9'; // another format's magic
  writeFile(Path, Bytes);
  TraceStreamReader Reader;
  EXPECT_FALSE(Reader.open(Path));
  EXPECT_NE(Reader.error().find("not a trace stream"), std::string::npos)
      << Reader.error();
  EXPECT_FALSE(isTraceStreamFile(Path));

  writeFile(Path, "not a stream at all");
  EXPECT_FALSE(Reader.open(Path));
  EXPECT_FALSE(isTraceStreamFile(Path));
  std::remove(Path.c_str());
  EXPECT_FALSE(Reader.open(Path));
  EXPECT_NE(Reader.error().find("cannot open"), std::string::npos);
}

} // namespace
