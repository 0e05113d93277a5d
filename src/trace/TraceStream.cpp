//===- trace/TraceStream.cpp - Chunked streaming trace files -----------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceStream.h"

#include <algorithm>
#include <cstring>

using namespace isp;

static const char StreamMagic[8] = {'I', 'S', 'P', 'S', 'T', 'M', '0', '5'};
static constexpr size_t MagicBytes = sizeof(StreamMagic);

/// The largest chunk header: the u32 length, ten varints of at most ten
/// bytes (event count, routine mask, 4 shard and 4 written mask words)
/// and the u32 header CRC.
static constexpr size_t MaxChunkHeaderBytes = 4 + 10 * 10 + 4;

/// The smallest encoded event: a tag byte, a one-byte time delta and a
/// one-byte arg0 delta.
static constexpr uint64_t MinEventBytes = 3;

namespace {

//===----------------------------------------------------------------------===//
// CRC32C, slicing by 8
//===----------------------------------------------------------------------===//

struct CrcTables {
  uint32_t T[8][256];
};

constexpr CrcTables makeCrcTables() {
  constexpr uint32_t Poly = 0x82f63b78; // Castagnoli, bit-reflected
  CrcTables C{};
  for (uint32_t I = 0; I != 256; ++I) {
    uint32_t V = I;
    for (int K = 0; K != 8; ++K)
      V = (V >> 1) ^ (Poly & (0u - (V & 1)));
    C.T[0][I] = V;
  }
  for (uint32_t I = 0; I != 256; ++I)
    for (int S = 1; S != 8; ++S)
      C.T[S][I] = (C.T[S - 1][I] >> 8) ^ C.T[0][C.T[S - 1][I] & 0xff];
  return C;
}

constexpr CrcTables Crc = makeCrcTables();

//===----------------------------------------------------------------------===//
// Byte codecs
//===----------------------------------------------------------------------===//

using detail::Parse;

/// Unsigned LEB128 store at \p P (room for ten bytes); returns the end.
char *putVarint(char *P, uint64_t V) {
  while (V >= 0x80) {
    *P++ = static_cast<char>((V & 0x7f) | 0x80);
    V >>= 7;
  }
  *P++ = static_cast<char>(V);
  return P;
}

/// Little-endian u32 store at \p P; returns the end.
char *putU32(char *P, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    *P++ = static_cast<char>((V >> (8 * I)) & 0xff);
  return P;
}

void appendVarint(std::string &Out, uint64_t V) {
  char Bytes[10];
  Out.append(Bytes, putVarint(Bytes, V));
}

void appendU32(std::string &Out, uint32_t V) {
  char Bytes[4];
  Out.append(Bytes, putU32(Bytes, V));
}

/// Bounded LEB128 read of \p Bytes[Pos, Size), advancing \p Pos.
Parse readVarint(const char *Bytes, size_t Size, size_t &Pos, uint64_t &V) {
  const auto *Base = reinterpret_cast<const unsigned char *>(Bytes);
  const unsigned char *P = Base + Pos;
  Parse R = detail::readVarint(P, Base + Size, V);
  Pos = static_cast<size_t>(P - Base);
  return R;
}

uint64_t zigzag(int64_t V) {
  return (static_cast<uint64_t>(V) << 1) ^ static_cast<uint64_t>(V >> 63);
}

uint32_t decodeU32(const char *P) {
  uint32_t V = 0;
  for (int I = 0; I != 4; ++I)
    V |= static_cast<uint32_t>(static_cast<unsigned char>(P[I])) << (8 * I);
  return V;
}

/// The fixed start of the stream header: magic, u32 routine-table
/// length, u32 CRC32C of those twelve bytes.
constexpr size_t PrologueBytes = MagicBytes + 4 + 4;

/// Parses the \p Size-byte routine table at \p Bytes, whose checksum
/// has already been verified.
bool parseRoutineTable(const char *Bytes, size_t Size,
                       std::vector<std::pair<RoutineId, std::string>> &Routines,
                       std::string &Why) {
  size_t Pos = 0;
  uint64_t Count = 0;
  if (readVarint(Bytes, Size, Pos, Count) != Parse::Ok) {
    Why = "corrupt routine table: bad count";
    return false;
  }
  // Each routine needs at least two bytes (id + length varints); reserve
  // only what the table's bytes can back.
  Routines.reserve(std::min<uint64_t>(Count, (Size - Pos) / 2));
  for (uint64_t I = 0; I != Count; ++I) {
    uint64_t Id = 0, Len = 0;
    if (readVarint(Bytes, Size, Pos, Id) != Parse::Ok ||
        readVarint(Bytes, Size, Pos, Len) != Parse::Ok || Size - Pos < Len) {
      Why = "corrupt routine table: bad entry";
      return false;
    }
    if (Id > UINT32_MAX) {
      Why = "corrupt routine table: routine id out of range";
      return false;
    }
    Routines.emplace_back(static_cast<RoutineId>(Id),
                          std::string(Bytes + Pos, Len));
    Pos += Len;
  }
  if (Pos != Size) {
    Why = "corrupt routine table: trailing bytes";
    return false;
  }
  return true;
}

} // namespace

uint32_t isp::crc32c(const void *Data, size_t Size) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  uint32_t C = ~0u;
  for (; Size >= 8; P += 8, Size -= 8) {
    uint32_t Lo = C ^ (uint32_t(P[0]) | uint32_t(P[1]) << 8 |
                       uint32_t(P[2]) << 16 | uint32_t(P[3]) << 24);
    C = Crc.T[7][Lo & 0xff] ^ Crc.T[6][(Lo >> 8) & 0xff] ^
        Crc.T[5][(Lo >> 16) & 0xff] ^ Crc.T[4][Lo >> 24] ^
        Crc.T[3][P[4]] ^ Crc.T[2][P[5]] ^ Crc.T[1][P[6]] ^ Crc.T[0][P[7]];
  }
  for (; Size != 0; ++P, --Size)
    C = (C >> 8) ^ Crc.T[0][(C ^ *P) & 0xff];
  return ~C;
}

//===----------------------------------------------------------------------===//
// TraceStreamWriter
//===----------------------------------------------------------------------===//

TraceStreamWriter::~TraceStreamWriter() {
  if (File) {
    std::fclose(File);
    File = nullptr;
  }
}

bool TraceStreamWriter::open(
    const std::string &Path,
    const std::vector<std::pair<RoutineId, std::string>> &Routines,
    TraceStreamOptions Opts) {
  if (File)
    std::fclose(File);
  File = std::fopen(Path.c_str(), "wb");
  Options = Opts;
  // The payload length is a u32; cap chunks well below it.
  Options.ChunkBytes =
      std::clamp<size_t>(Options.ChunkBytes, 1, size_t(1) << 30);
  // Room for a full chunk plus the one worst-case event that seals it.
  Buffer.assign(Options.ChunkBytes + MaxEncodedEventBytes, 0);
  Used = 0;
  Error.clear();
  ChunkEvents = 0;
  resetDeltaState();
  EventsWritten = 0;
  ChunksWritten = 0;
  BytesWritten = 0;
  PeakBufferedBytes = 0;
  Failed = false;
  ChunkRoutineMask = 0;
  ChunkShardMask = {};
  ChunkWrittenMask = {};
  if (!File) {
    Error = "cannot open '" + Path + "' for writing";
    Failed = true;
    return false;
  }
  std::string Table;
  appendVarint(Table, Routines.size());
  for (const auto &[Id, Name] : Routines) {
    appendVarint(Table, Id);
    appendVarint(Table, Name.size());
    Table.append(Name);
  }
  if (Table.size() > UINT32_MAX) {
    Error = "routine table too large for a trace stream";
    Failed = true;
    return false;
  }
  std::string Header(StreamMagic, MagicBytes);
  appendU32(Header, static_cast<uint32_t>(Table.size()));
  appendU32(Header, crc32c(Header.data(), Header.size()));
  Header += Table;
  appendU32(Header, crc32c(Table.data(), Table.size()));
  writeRaw(Header.data(), Header.size());
  return !Failed;
}

void TraceStreamWriter::writeRaw(const void *Data, size_t Size) {
  if (Failed || !File)
    return;
  if (std::fwrite(Data, 1, Size, File) != Size) {
    Error = "short write to trace stream";
    Failed = true;
    return;
  }
  BytesWritten += Size;
}

/// Sets the shard-slot bits the cell range [Addr, Addr+Cells) touches.
static void noteShardRange(ShardActivityMask &Mask, Addr A, uint64_t Cells) {
  if (Cells == 0)
    return;
  uint64_t FirstKey = A >> ActivityChunkShift;
  uint64_t LastKey = (A + Cells - 1) >> ActivityChunkShift;
  if (LastKey - FirstKey >= ActivityShardSlots - 1) {
    Mask.fill(~uint64_t(0));
    return;
  }
  for (uint64_t Key = FirstKey; Key <= LastKey; ++Key) {
    unsigned Slot = static_cast<unsigned>(Key & (ActivityShardSlots - 1));
    Mask[Slot >> 6] |= uint64_t(1) << (Slot & 63);
  }
}

void TraceStreamWriter::noteActivity(EventKind Kind, Addr A, uint64_t Cells) {
  switch (Kind) {
  case EventKind::Call:
    ChunkRoutineMask |= uint64_t(1) << (A & 63);
    return;
  case EventKind::Read:
  case EventKind::KernelRead:
    noteShardRange(ChunkShardMask, A, Cells);
    return;
  case EventKind::Write:
  case EventKind::KernelWrite:
    noteShardRange(ChunkShardMask, A, Cells);
    noteShardRange(ChunkWrittenMask, A, Cells);
    return;
  case EventKind::Alloc:
    // Allocation defines memory (shadow state changes) without a Read
    // or Write event; a filtered-ingest consumer must treat it as a
    // mutation, so it contributes to the written mask. It stays out of
    // the access-shard mask, whose consumers route only memory-access
    // events.
    noteShardRange(ChunkWrittenMask, A, Cells);
    return;
  default:
    return;
  }
}

void TraceStreamWriter::resetDeltaState() {
  LastTid = 0;
  LastTime = 0;
  std::memset(LastArg0, 0, sizeof(LastArg0));
}

void TraceStreamWriter::encodeEvent(const EventRecord &E) {
  noteActivity(E.Kind, E.Arg0, E.Arg1);
  unsigned K = static_cast<unsigned>(E.Kind);
  unsigned Region =
      (EventTag::AddressKinds >> K & 1) ? EventTag::region(E.Arg0) : 0;
  bool DefaultArg1 = E.Arg1 == eventSecondaryDefault(E.Kind);
  bool SameTid = E.Tid == LastTid;
  // A chunk seals as soon as it reaches ChunkBytes, so one worst-case
  // event always fits in the buffer.
  char *P = Buffer.data() + Used;
  *P++ = static_cast<char>(K | (DefaultArg1 ? EventTag::DefaultArg1 : 0) |
                           (SameTid ? EventTag::SameTid : 0) |
                           Region << EventTag::RegionShift);
  if (!SameTid) {
    P = putVarint(P, E.Tid);
    LastTid = E.Tid;
  }
  P = putVarint(P, E.Time - LastTime);
  LastTime = E.Time;
  // The delta wraps modulo 2^64; the reader adds it back the same way.
  uint64_t &Pred = LastArg0[K][Region];
  P = putVarint(P, zigzag(static_cast<int64_t>(E.Arg0 - Pred)));
  Pred = E.Arg0;
  if (!DefaultArg1)
    P = putVarint(P, E.Arg1);
  Used = static_cast<size_t>(P - Buffer.data());
  ++ChunkEvents;
  ++EventsWritten;
  PeakBufferedBytes = std::max<uint64_t>(PeakBufferedBytes, Used);
  if (Used >= Options.ChunkBytes)
    sealChunk();
}

void TraceStreamWriter::append(const EventRecord &E) {
  if (Failed || !File)
    return;
  encodeEvent(E);
}

void TraceStreamWriter::recordBatch(const Event *Words, size_t Count) {
  // Every flushed batch decodes standalone; encode its records one at a
  // time into the open chunk.
  EventStreamView V(Words, Count);
  for (EventRecord E; !Failed && File && V.next(E);)
    encodeEvent(E);
}

void TraceStreamWriter::sealChunk() {
  if (ChunkEvents == 0)
    return;
  char Header[MaxChunkHeaderBytes];
  char *P = putU32(Header, static_cast<uint32_t>(Used));
  P = putVarint(P, ChunkEvents);
  P = putVarint(P, ChunkRoutineMask);
  for (uint64_t Word : ChunkShardMask)
    P = putVarint(P, Word);
  for (uint64_t Word : ChunkWrittenMask)
    P = putVarint(P, Word);
  P = putU32(P, crc32c(Header, static_cast<size_t>(P - Header)));
  char PayloadCrc[4];
  putU32(PayloadCrc, crc32c(Buffer.data(), Used));
  writeRaw(Header, static_cast<size_t>(P - Header));
  writeRaw(Buffer.data(), Used);
  writeRaw(PayloadCrc, sizeof(PayloadCrc));
  // Hand the sealed chunk to the OS, so a reader of the growing file
  // (a watching collector) sees it whole.
  if (!Failed && std::fflush(File) != 0) {
    Error = "flush failed on trace stream";
    Failed = true;
  }
  ++ChunksWritten;
  Used = 0;
  ChunkEvents = 0;
  ChunkRoutineMask = 0;
  ChunkShardMask = {};
  ChunkWrittenMask = {};
  // Each chunk decodes independently.
  resetDeltaState();
}

bool TraceStreamWriter::close() {
  if (!File)
    return !Failed;
  sealChunk();
  const char End[4] = {0, 0, 0, 0};
  writeRaw(End, sizeof(End));
  // fclose flushes stdio's buffer; a full disk surfaces here, not in
  // fwrite, so its result is part of the write succeeding.
  if (std::fclose(File) != 0 && !Failed) {
    Error = "close failed on trace stream";
    Failed = true;
  }
  File = nullptr;
  return !Failed;
}

//===----------------------------------------------------------------------===//
// TraceStreamReader
//===----------------------------------------------------------------------===//

TraceStreamReader::~TraceStreamReader() {
  if (File) {
    std::fclose(File);
    File = nullptr;
  }
}

bool TraceStreamReader::fail(const std::string &Message) {
  Error = Message;
  if (File) {
    std::fclose(File);
    File = nullptr;
  }
  return false;
}

bool TraceStreamReader::failChunk(size_t Chunk, const std::string &Message) {
  ErrorChunk = Chunk;
  return fail("chunk " + std::to_string(Chunk) + ": " + Message);
}

bool TraceStreamReader::open(const std::string &Path) {
  if (File)
    std::fclose(File);
  File = nullptr;
  Error.clear();
  ErrorChunk = 0;
  Complete = false;
  Routines.clear();
  Chunks.clear();
  TotalEvents = 0;
  Cursor = 0;
  File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return fail("cannot open '" + Path + "'");
  if (std::fseek(File, 0, SEEK_END) != 0)
    return fail("cannot seek in '" + Path + "'");
  long EndPos = std::ftell(File);
  if (EndPos < 0)
    return fail("cannot tell file size of '" + Path + "'");
  uint64_t FileSize = static_cast<uint64_t>(EndPos);

  // The prologue gives the routine table's length, so the header is
  // read in one bounded read. A file that ends before the header does is
  // a stream whose writer has not got past open(): it opens with no
  // routines and no chunks. Both lengths sit under a CRC, so a flipped
  // bit is corrupt, never mistaken for a torn header.
  char Prologue[PrologueBytes];
  size_t Avail =
      static_cast<size_t>(std::min<uint64_t>(FileSize, PrologueBytes));
  if (std::fseek(File, 0, SEEK_SET) != 0 ||
      std::fread(Prologue, 1, Avail, File) != Avail)
    return fail("cannot read '" + Path + "'");
  if (std::memcmp(Prologue, StreamMagic, std::min(Avail, MagicBytes)) != 0)
    return fail("not a trace stream: bad magic");
  if (Avail < PrologueBytes)
    return true;
  if (crc32c(Prologue, MagicBytes + 4) !=
      decodeU32(Prologue + MagicBytes + 4))
    return fail("corrupt header: checksum mismatch");
  uint64_t TableBytes = decodeU32(Prologue + MagicBytes);
  uint64_t HeaderEnd = PrologueBytes + TableBytes + 4;
  if (HeaderEnd > FileSize)
    return true;
  std::string Table(static_cast<size_t>(TableBytes) + 4, '\0');
  if (std::fread(Table.data(), 1, Table.size(), File) != Table.size())
    return fail("cannot read '" + Path + "'");
  if (crc32c(Table.data(), TableBytes) != decodeU32(Table.data() + TableBytes))
    return fail("corrupt routine table: checksum mismatch");
  std::string Why;
  if (!parseRoutineTable(Table.data(), TableBytes, Routines, Why)) {
    Routines.clear();
    return fail(Why);
  }
  return indexChunks(HeaderEnd, FileSize);
}

bool TraceStreamReader::indexChunks(uint64_t Offset, uint64_t FileSize) {
  char Buf[MaxChunkHeaderBytes];
  for (;;) {
    size_t Chunk = Chunks.size();
    size_t Avail = static_cast<size_t>(
        std::min<uint64_t>(MaxChunkHeaderBytes, FileSize - Offset));
    if (Avail == 0)
      return true; // cut at a chunk boundary, before the end marker
    if (std::fseek(File, static_cast<long>(Offset), SEEK_SET) != 0 ||
        std::fread(Buf, 1, Avail, File) != Avail)
      return failChunk(Chunk, "cannot read chunk header");
    if (Avail < 4)
      return true; // torn length field
    ChunkMeta Meta;
    Meta.PayloadBytes = decodeU32(Buf);
    if (Meta.PayloadBytes == 0) {
      if (Offset + 4 != FileSize)
        return failChunk(Chunk,
                         "corrupt stream: bytes after the end marker");
      Complete = true;
      return true;
    }
    size_t Pos = 4;
    Parse P = readVarint(Buf, Avail, Pos, Meta.Events);
    if (P == Parse::Ok)
      P = readVarint(Buf, Avail, Pos, Meta.RoutineMask);
    for (uint64_t &Word : Meta.ShardMask)
      if (P == Parse::Ok)
        P = readVarint(Buf, Avail, Pos, Word);
    for (uint64_t &Word : Meta.WrittenMask)
      if (P == Parse::Ok)
        P = readVarint(Buf, Avail, Pos, Word);
    if (P == Parse::Ok && Avail - Pos < 4)
      P = Parse::Short;
    // Running out of bytes is a torn header only where the file ends: a
    // whole header always fits in MaxChunkHeaderBytes.
    if (P == Parse::Short && Avail < MaxChunkHeaderBytes)
      return true;
    if (P != Parse::Ok)
      return failChunk(Chunk, "corrupt chunk header: malformed field");
    if (crc32c(Buf, Pos) != decodeU32(Buf + Pos))
      return failChunk(Chunk, "corrupt chunk header: checksum mismatch");
    if (Meta.Events == 0 || Meta.Events > Meta.PayloadBytes / MinEventBytes)
      return failChunk(Chunk, "corrupt chunk header: event count does not "
                              "fit the payload");
    Meta.PayloadOffset = Offset + Pos + 4;
    uint64_t Next = Meta.PayloadOffset + Meta.PayloadBytes + 4;
    if (Next > FileSize)
      return true; // the payload is still being written
    TotalEvents += Meta.Events;
    Chunks.push_back(Meta);
    Offset = Next;
  }
}

bool TraceStreamReader::loadPayload(size_t I) {
  if (!File)
    return fail(Error.empty() ? "trace stream is not open" : Error);
  if (I >= Chunks.size()) {
    Error = "chunk index out of range";
    return false;
  }
  const ChunkMeta &Meta = Chunks[I];
  size_t Len = Meta.PayloadBytes;
  Payload.resize(Len + 4);
  long At = static_cast<long>(Meta.PayloadOffset);
  if (std::fseek(File, At, SEEK_SET) != 0 ||
      std::fread(Payload.data(), 1, Payload.size(), File) != Payload.size())
    return failChunk(I, "truncated chunk: payload cut short");
  if (crc32c(Payload.data(), Len) != decodeU32(Payload.data() + Len))
    return failChunk(I, "corrupt chunk: payload checksum mismatch");
  return true;
}

bool TraceStreamReader::readChunk(size_t I, std::vector<Event> &Out) {
  Out.clear();
  if (I < Chunks.size())
    Out.reserve(Chunks[I].Events);
  // A fresh word encoder per chunk, so each chunk's run decodes
  // standalone.
  EventEncoder Enc;
  Event Words[Event::MaxWordsPerRecord];
  return forEachEvent(I, [&](const EventRecord &E) {
    Out.insert(Out.end(), Words, Words + Enc.encode(E, Words));
  });
}

bool TraceStreamReader::readChunk(size_t I, std::vector<EventRecord> &Out) {
  Out.clear();
  if (I < Chunks.size())
    Out.reserve(Chunks[I].Events);
  return forEachEvent(I, [&Out](const EventRecord &E) { Out.push_back(E); });
}

bool TraceStreamReader::nextChunk(std::vector<Event> &Out) {
  if (Cursor >= Chunks.size()) {
    Out.clear();
    return false; // end of stream; error() stays empty
  }
  return readChunk(Cursor++, Out);
}

bool TraceStreamReader::nextChunk(std::vector<EventRecord> &Out) {
  if (Cursor >= Chunks.size()) {
    Out.clear();
    return false;
  }
  return readChunk(Cursor++, Out);
}

//===----------------------------------------------------------------------===//
// Free functions
//===----------------------------------------------------------------------===//

bool isp::isTraceStreamFile(const std::string &Path) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return false;
  char Head[MagicBytes];
  bool Ok = std::fread(Head, 1, sizeof(Head), File) == sizeof(Head) &&
            std::memcmp(Head, StreamMagic, MagicBytes) == 0;
  std::fclose(File);
  return Ok;
}

bool isp::replayTraceStream(TraceStreamReader &Reader,
                            EventDispatcher &Dispatcher) {
  for (size_t C = 0; C != Reader.chunkCount(); ++C)
    if (!Reader.forEachEvent(
            C, [&Dispatcher](const EventRecord &E) { Dispatcher.enqueue(E); }))
      break;
  return Reader.error().empty();
}

bool isp::replayTraceStream(TraceStreamReader &Reader, Tool &T,
                            const SymbolTable *Symbols) {
  T.onStart(Symbols);
  for (size_t C = 0; C != Reader.chunkCount(); ++C)
    if (!Reader.forEachEvent(C,
                             [&T](const EventRecord &E) { T.handleEvent(E); }))
      break;
  // onFinish runs either way, so partial results are well-formed even
  // when a mid-stream chunk is corrupt.
  T.onFinish();
  return Reader.error().empty();
}
