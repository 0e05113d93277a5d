//===- trace/TraceStream.h - Chunked streaming trace files ------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one on-disk trace format: a delta/varint event codec on an
/// incremental, chunked file writer, so recording a long run never
/// materializes the whole event vector and replaying one never loads
/// more than a single chunk.
///
/// Stream layout (magic "ISPSTM04"; all integers little-endian, varints
/// unsigned LEB128):
///
///   header  : magic | u32 routine-table length
///             | u32 CRC32C of the magic and length
///             | routine table: varint routine count, then per routine
///               varint id, varint name length, name bytes
///             | u32 CRC32C of the routine table
///   chunk*  : chunk header | payload | u32 CRC32C of the payload
///   chunk header : u32 payload length (never 0) | varint event count
///             | varint routine-activity mask
///             | 4 x varint shard-activity mask words
///             | 4 x varint written-shard mask words
///             | u32 CRC32C of the header fields before it
///   payload : packed events (kind byte, then varint tid, time delta,
///             zigzag arg0 delta per kind, arg1), with the delta state
///             RESET at each chunk start so every chunk decodes
///             independently
///   end     : u32 0, written by close()
///
/// Each chunk describes itself, so the chunk headers are the index:
/// open() walks them, checking each header's CRC and seeking past the
/// payload. The masks a consumer skips on are therefore verified before
/// anything is skipped, and readChunk() checks the payload CRC before it
/// decodes.
///
/// Prefix policy. A stream without the end marker — its writer is still
/// running, or died — opens with its complete chunks and complete()
/// returns false: the last chunk header is torn, or a chunk whose
/// CRC-valid length runs past the end of the file. A file that ends
/// inside the header its length field promises opens with no routines
/// and no chunks. Replaying such a prefix closes every activation still
/// open at the recovered end through the tools' onFinish, exactly as at
/// the end of a complete stream. A CRC mismatch, a malformed header, or
/// bytes after the end marker make the stream corrupt: open() or
/// readChunk() fails, and errorChunk() names the chunk.
///
/// The activity masks are per-chunk Bloom-style summaries. The routine
/// mask sets bit `RoutineId & 63` for every Call in the chunk, and the
/// 256-bit shard mask sets bit `(Addr >> ActivityChunkShift) & 255` for
/// every shadow chunk a memory access touches. The shard geometry
/// mirrors the shadow-memory layout (ThreeLevelShadow::OffsetBits /
/// ShardedShadow::MaxShards) and is stored at maximum resolution, so one
/// recorded mask folds down to any configured shard count. The parallel
/// replay engine (replay/ParallelReplay.h) counts the workers a chunk
/// cannot reach with the shard mask.
///
/// The written-shard mask records the shard slots touched by *mutating*
/// events (Write, KernelWrite, Alloc). The collector's routine-filtered
/// ingest consults it before skipping a chunk: a chunk containing no
/// filtered routine may still *write* memory that a later, matching
/// chunk reads, and dropping that write would undercount trms
/// (collect/Collector.cpp has the suffix-union argument).
///
/// One codec pass each way. The writer encodes each event straight into
/// the open chunk's byte buffer. The reader has one decode loop,
/// TraceStreamReader::forEachEvent, which checks the payload CRC, then
/// decodes the chunk's records one at a time into a consumer:
///
///  - readChunk() appends them to a vector, as packed stream words
///    (trace/Event.h) or as wide records;
///  - replayTraceStream(Reader, Dispatcher) enqueues them, so several
///    tools can share one replay (`isprof replay`);
///  - replayTraceStream(Reader, Tool) hands them to the tool's callbacks
///    with no dispatcher in between. The stream already is a
///    dispatcher's compacted output, so a second compaction pass has
///    nothing to merge that any tool could observe;
///  - the collector (collect/Collector.cpp) filters them into its
///    profiler.
///
/// No decoded chunk is materialized on the replay and collector paths.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_TRACE_TRACESTREAM_H
#define ISPROF_TRACE_TRACESTREAM_H

#include "instr/Dispatcher.h"
#include "trace/Event.h"

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace isp {

class SymbolTable;
class Tool;

/// Shadow-chunk key geometry for the activity masks. A memory address
/// maps to shadow chunk key `Addr >> ActivityChunkShift`; the mask
/// records `key & (ActivityShardSlots - 1)`. These mirror
/// ThreeLevelShadow::OffsetBits and ShardedShadow::MaxShards (statically
/// asserted where both headers meet, in the parallel replay engine).
inline constexpr unsigned ActivityChunkShift = 9;
inline constexpr unsigned ActivityShardSlots = 256;

/// A 256-bit shard-activity bitmap: bit `k` of word `k / 64` is set when
/// the chunk touches some shadow chunk whose key folds to slot `k`.
using ShardActivityMask = std::array<uint64_t, 4>;

/// CRC32C (Castagnoli) of \p Size bytes at \p Data: the checksum that
/// guards the stream header, every chunk header and every payload.
uint32_t crc32c(const void *Data, size_t Size);

struct TraceStreamOptions {
  /// Target chunk payload size. A chunk is sealed when its encoded
  /// payload reaches this many bytes, so writer memory is bounded by
  /// roughly one chunk regardless of trace length. The default keeps
  /// chunks comfortably cache-resident while amortizing per-chunk
  /// overhead (header, two checksums, one flush) over ~10k events.
  size_t ChunkBytes = size_t(1) << 16;
};

/// The largest encoded event: a kind byte and four varints of at most
/// ten bytes each.
inline constexpr size_t MaxEncodedEventBytes = 1 + 4 * 10;

/// Incremental trace writer: events stream to disk chunk by chunk as
/// they arrive, and each sealed chunk is flushed, so a concurrent or
/// later reader sees every chunk sealed so far. Implements
/// EventDispatcher::RecordSink so it can be plugged directly into the
/// dispatcher as the recording sink (see EventDispatcher::setRecordSink).
class TraceStreamWriter : public EventDispatcher::RecordSink {
public:
  TraceStreamWriter() = default;
  ~TraceStreamWriter() override;
  TraceStreamWriter(const TraceStreamWriter &) = delete;
  TraceStreamWriter &operator=(const TraceStreamWriter &) = delete;

  /// Creates \p Path and writes the header. Returns false on I/O
  /// failure (error() explains).
  bool open(const std::string &Path,
            const std::vector<std::pair<RoutineId, std::string>> &Routines,
            TraceStreamOptions Opts = TraceStreamOptions());

  /// Appends one event to the current chunk, sealing it to disk when
  /// the target payload size is reached. I/O errors are sticky: the
  /// writer goes inert and close() reports the failure.
  void append(const EventRecord &E);
  /// Appends a flushed dispatcher batch of packed stream words (the
  /// RecordSink hook); each batch decodes standalone.
  void recordBatch(const Event *Words, size_t Count) override;

  /// Seals the final chunk, writes the end marker, and closes the file.
  /// Returns false if any write (including earlier append I/O) failed.
  /// The writer can be reused via open() after.
  bool close();

  bool isOpen() const { return File != nullptr; }
  const std::string &error() const { return Error; }

  uint64_t eventsWritten() const { return EventsWritten; }
  uint64_t chunksWritten() const { return ChunksWritten; }
  uint64_t bytesWritten() const { return BytesWritten; }
  /// Bytes currently buffered for the open chunk, and the high-water
  /// mark over the stream's lifetime — the writer's whole variable
  /// memory cost, which the bounded-memory benchmarks assert stays flat
  /// as the event count grows.
  uint64_t bufferedBytes() const { return Used; }
  uint64_t peakBufferedBytes() const { return PeakBufferedBytes; }

private:
  void sealChunk();
  void writeRaw(const void *Data, size_t Size);
  void noteActivity(const EventRecord &E);

  std::FILE *File = nullptr;
  TraceStreamOptions Options;
  /// The open chunk's encoded payload: its first Used bytes. A chunk
  /// seals once Used reaches ChunkBytes, so open() sizes the buffer to
  /// ChunkBytes + MaxEncodedEventBytes and every event fits unchecked.
  std::vector<char> Buffer;
  size_t Used = 0;
  std::string Error;
  uint64_t ChunkEvents = 0;
  /// Activity accumulated for the open chunk.
  uint64_t ChunkRoutineMask = 0;
  ShardActivityMask ChunkShardMask = {};
  ShardActivityMask ChunkWrittenMask = {};
  /// Per-chunk delta state (reset when a chunk is sealed).
  uint64_t LastTime = 0;
  uint64_t LastArg0[32] = {};
  uint64_t EventsWritten = 0;
  uint64_t ChunksWritten = 0;
  uint64_t BytesWritten = 0;
  uint64_t PeakBufferedBytes = 0;
  bool Failed = false;
};

/// Incremental trace reader: open() reads the header and walks the
/// chunk headers; chunks are decoded one at a time into a caller-owned
/// reuse buffer, so replay memory is one chunk regardless of trace
/// length.
///
/// Every malformed input — checksum mismatch, overlong varint, bytes
/// after the end marker — is rejected with a diagnostic in error(); no
/// input crashes the reader or makes it allocate beyond what the actual
/// file bytes can back. A truncated stream is not malformed: it opens
/// with its complete chunks (see the prefix policy above).
class TraceStreamReader {
public:
  TraceStreamReader() = default;
  ~TraceStreamReader();
  TraceStreamReader(const TraceStreamReader &) = delete;
  TraceStreamReader &operator=(const TraceStreamReader &) = delete;

  /// Opens \p Path and indexes its complete chunks. Returns false when
  /// the file cannot be read, is not a stream, or is corrupt.
  bool open(const std::string &Path);

  /// The diagnostic of the last failure. Failures inside a chunk start
  /// with "chunk N: ".
  const std::string &error() const { return Error; }
  /// The chunk a chunk-level diagnostic names: the chunk whose header or
  /// payload failed, or the index at which bytes follow the end marker.
  size_t errorChunk() const { return ErrorChunk; }
  /// True when the stream ends with the end marker; false for a prefix
  /// whose writer has not finished (or never will).
  bool complete() const { return Complete; }
  const std::vector<std::pair<RoutineId, std::string>> &routines() const {
    return Routines;
  }
  size_t chunkCount() const { return Chunks.size(); }
  /// Total events across all complete chunks (no decode).
  uint64_t eventCount() const { return TotalEvents; }
  uint64_t chunkEvents(size_t I) const { return Chunks[I].Events; }
  /// Routine-activity mask of chunk \p I: bit `RoutineId & 63` is set
  /// for every Call the chunk contains.
  uint64_t chunkRoutineMask(size_t I) const { return Chunks[I].RoutineMask; }
  /// Shard-activity mask of chunk \p I (see ShardActivityMask).
  const ShardActivityMask &chunkShardMask(size_t I) const {
    return Chunks[I].ShardMask;
  }
  /// Written-shard mask of chunk \p I: shard slots touched by the
  /// chunk's mutating events (Write, KernelWrite, Alloc).
  const ShardActivityMask &chunkWrittenMask(size_t I) const {
    return Chunks[I].WrittenMask;
  }

  /// Decodes chunk \p I, handing each record in stream order to
  /// \p Consume (called as `Consume(const EventRecord &)`). This is the
  /// one decode loop; every other read path is a consumer of it. The
  /// payload's checksum is verified before the first record is handed
  /// out, so a damaged chunk yields no records. A payload that passes
  /// its checksum yet fails to decode (only a hand-built file can) fails
  /// at the bad field, after the records before it. Returns false with
  /// a diagnostic on a corrupt chunk.
  template <typename Consumer> bool forEachEvent(size_t I, Consumer &&Consume);

  /// Decodes chunk \p I into packed stream words (cleared first;
  /// capacity is reused across calls). Each chunk's word run decodes
  /// standalone. Returns false with a diagnostic on a corrupt chunk.
  bool readChunk(size_t I, std::vector<Event> &Out);
  /// Wide-record overload (tests, offline analysis).
  bool readChunk(size_t I, std::vector<EventRecord> &Out);

  /// Sequential cursor: decodes the next unread chunk into \p Out.
  /// Returns false at end of stream (error() empty) or on a corrupt
  /// chunk (error() set). seek() repositions the cursor.
  bool nextChunk(std::vector<Event> &Out);
  bool nextChunk(std::vector<EventRecord> &Out);
  void seek(size_t ChunkIndex) { Cursor = ChunkIndex; }
  size_t cursor() const { return Cursor; }

private:
  struct ChunkMeta {
    uint64_t PayloadOffset = 0;
    uint32_t PayloadBytes = 0;
    uint64_t Events = 0;
    uint64_t RoutineMask = 0;
    ShardActivityMask ShardMask = {};
    ShardActivityMask WrittenMask = {};
  };

  bool fail(const std::string &Message);
  bool failChunk(size_t Chunk, const std::string &Message);
  bool indexChunks(uint64_t Offset, uint64_t FileSize);
  /// Reads chunk \p I's payload into Payload and verifies its checksum.
  bool loadPayload(size_t I);

  std::FILE *File = nullptr;
  std::string Error;
  size_t ErrorChunk = 0;
  bool Complete = false;
  std::vector<std::pair<RoutineId, std::string>> Routines;
  std::vector<ChunkMeta> Chunks;
  uint64_t TotalEvents = 0;
  size_t Cursor = 0;
  /// Reused raw-payload buffer (forEachEvent decodes out of it).
  std::string Payload;
};

/// True when \p Path starts with the stream magic; lets spool scans
/// recognize stream files whatever their extension.
bool isTraceStreamFile(const std::string &Path);

/// Feeds every chunk of \p Reader, from the first, into \p Dispatcher,
/// which the caller has started and will finish: the multi-tool replay
/// path. Returns false on a corrupt chunk (Reader.error() explains); the
/// events before it have been enqueued.
bool replayTraceStream(TraceStreamReader &Reader, EventDispatcher &Dispatcher);

/// Replays \p Reader's stream into \p T, bracketed by onStart and
/// onFinish, with each decoded record going straight to the tool's
/// callbacks (no EventDispatcher). The tool sees onFinish even after a
/// corrupt chunk, so partial results are well-formed.
bool replayTraceStream(TraceStreamReader &Reader, Tool &T,
                       const SymbolTable *Symbols = nullptr);

//===----------------------------------------------------------------------===//
// The decode loop
//===----------------------------------------------------------------------===//

namespace detail {

/// Why a parse stopped: the bytes ran out (a torn prefix, when the file
/// ends there) or they are malformed.
enum class Parse { Ok, Short, Bad };

/// Unsigned LEB128 read from \p P, advancing it, never past \p End. A
/// uint64 needs at most ten bytes, and the tenth may carry only bit 63:
/// a continuation bit or payload bits 64+ there mean the value cannot
/// fit, so it is Bad rather than silently wrapped.
inline Parse readVarint(const unsigned char *&P, const unsigned char *End,
                        uint64_t &V) {
  V = 0;
  for (unsigned Shift = 0; Shift < 64; Shift += 7) {
    if (P == End)
      return Parse::Short;
    uint8_t Byte = *P++;
    if (Shift == 63 && (Byte & 0xfe))
      return Parse::Bad;
    V |= static_cast<uint64_t>(Byte & 0x7f) << Shift;
    if (!(Byte & 0x80))
      return Parse::Ok;
  }
  return Parse::Bad;
}

} // namespace detail

template <typename Consumer>
bool TraceStreamReader::forEachEvent(size_t I, Consumer &&Consume) {
  if (!loadPayload(I))
    return false;
  const auto *P = reinterpret_cast<const unsigned char *>(Payload.data());
  const unsigned char *End = P + Chunks[I].PayloadBytes;
  // Per-chunk delta state: every chunk decodes from a clean slate.
  uint64_t LastTime = 0;
  uint64_t LastArg0[32] = {};
  EventRecord E;
  for (uint64_t N = Chunks[I].Events; N != 0; --N) {
    if (P == End)
      return failChunk(I, "corrupt chunk: truncated event");
    uint8_t KindByte = *P++;
    if (KindByte > static_cast<uint8_t>(EventKind::ThreadSwitch))
      return failChunk(I, "corrupt chunk: invalid event kind");
    // Tid, time delta, zigzag arg0 delta, arg1.
    uint64_t F[4];
    for (uint64_t &V : F)
      if (detail::readVarint(P, End, V) != detail::Parse::Ok)
        return failChunk(I, "corrupt chunk: bad event varint");
    if (F[0] > UINT32_MAX)
      return failChunk(I, "corrupt chunk: thread id out of range");
    E.Kind = static_cast<EventKind>(KindByte);
    E.Tid = static_cast<ThreadId>(F[0]);
    LastTime += F[1];
    E.Time = LastTime;
    // Un-zigzag, then add modulo 2^64 (the writer subtracts that way).
    LastArg0[KindByte] += (F[2] >> 1) ^ (0 - (F[2] & 1));
    E.Arg0 = LastArg0[KindByte];
    E.Arg1 = F[3];
    Consume(std::as_const(E));
  }
  if (P != End)
    return failChunk(I, "corrupt chunk: trailing payload bytes");
  return true;
}

} // namespace isp

#endif // ISPROF_TRACE_TRACESTREAM_H
