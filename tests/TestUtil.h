//===- tests/TestUtil.h - Shared test helpers -------------------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the test suites: a fluent trace builder for
/// hand-constructed executions (the paper's figures), a record sink that
/// keeps a run's event stream in memory, a trace-stream layout walker,
/// and shorthands for running
/// profilers over traces and fetching per-routine results.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_TESTS_TESTUTIL_H
#define ISPROF_TESTS_TESTUTIL_H

#include "core/ProfileData.h"
#include "instr/Dispatcher.h"
#include "trace/Event.h"

#include <cstdint>
#include <string>
#include <vector>

namespace isp {

/// Builds totally ordered traces with automatic timestamps.
class TraceBuilder {
public:
  TraceBuilder &start(ThreadId Tid, ThreadId Parent = 0) {
    Events.push_back(EventRecord::threadStart(Tid, next(), Parent));
    return *this;
  }
  TraceBuilder &end(ThreadId Tid) {
    Events.push_back(EventRecord::threadEnd(Tid, next()));
    return *this;
  }
  TraceBuilder &call(ThreadId Tid, RoutineId Rtn) {
    Events.push_back(EventRecord::call(Tid, next(), Rtn));
    return *this;
  }
  TraceBuilder &ret(ThreadId Tid, RoutineId Rtn) {
    Events.push_back(EventRecord::ret(Tid, next(), Rtn, 0));
    return *this;
  }
  TraceBuilder &read(ThreadId Tid, Addr A, uint64_t Cells = 1) {
    Events.push_back(EventRecord::read(Tid, next(), A, Cells));
    return *this;
  }
  TraceBuilder &write(ThreadId Tid, Addr A, uint64_t Cells = 1) {
    Events.push_back(EventRecord::write(Tid, next(), A, Cells));
    return *this;
  }
  TraceBuilder &kernelRead(ThreadId Tid, Addr A, uint64_t Cells = 1) {
    Events.push_back(EventRecord::kernelRead(Tid, next(), A, Cells));
    return *this;
  }
  TraceBuilder &kernelWrite(ThreadId Tid, Addr A, uint64_t Cells = 1) {
    Events.push_back(EventRecord::kernelWrite(Tid, next(), A, Cells));
    return *this;
  }
  TraceBuilder &bb(ThreadId Tid, uint64_t Count = 1) {
    Events.push_back(EventRecord::basicBlock(Tid, next(), Count));
    return *this;
  }

  const std::vector<EventRecord> &events() const { return Events; }

private:
  uint64_t next() { return ++Clock; }
  std::vector<EventRecord> Events;
  uint64_t Clock = 0;
};

/// Record sink that appends every delivered batch's packed words: the
/// compacted event stream of a run, in memory.
class WordSink : public EventDispatcher::RecordSink {
public:
  void recordBatch(const Event *Batch, size_t Count) override {
    Words.insert(Words.end(), Batch, Batch + Count);
  }
  std::vector<Event> Words;
};

/// Byte offsets of a well-formed trace stream (trace/TraceStream.h), for
/// tests that cut or corrupt one at a chosen place.
struct StreamLayout {
  struct Chunk {
    size_t Begin = 0;   ///< the chunk header
    size_t Payload = 0; ///< the first payload byte
    size_t End = 0;     ///< one past the payload CRC
  };
  size_t HeaderEnd = 0;
  std::vector<Chunk> Chunks;
  size_t EndMarker = 0; ///< the u32 0 that close() writes
};

/// Walks the header and the chunk headers of the stream in \p Bytes.
inline StreamLayout streamLayout(const std::string &Bytes) {
  auto U32At = [&](size_t Pos) {
    uint32_t V = 0;
    for (int I = 0; I != 4; ++I)
      V |= static_cast<uint32_t>(static_cast<unsigned char>(Bytes[Pos + I]))
           << (8 * I);
    return V;
  };
  StreamLayout L;
  // Magic, u32 table length, u32 CRC; the table; its u32 CRC.
  L.HeaderEnd = 8 + 4 + 4 + U32At(8) + 4;
  size_t Pos = L.HeaderEnd;
  while (uint32_t Len = U32At(Pos)) {
    StreamLayout::Chunk C;
    C.Begin = Pos;
    Pos += 4;
    for (int Field = 0; Field != 10; ++Field) // count and nine mask words
      while (static_cast<unsigned char>(Bytes[Pos++]) & 0x80)
        ;
    C.Payload = Pos + 4;
    C.End = C.Payload + Len + 4;
    L.Chunks.push_back(C);
    Pos = C.End;
  }
  L.EndMarker = Pos;
  return L;
}

/// Runs \p ProfilerT over \p Events with activation logging and returns
/// the database.
template <typename ProfilerT, typename OptionsT>
ProfileDatabase profileTrace(const std::vector<EventRecord> &Events,
                             OptionsT Options) {
  Options.KeepActivationLog = true;
  ProfilerT Profiler(Options);
  replayTrace(Events, Profiler);
  return Profiler.takeDatabase();
}

/// First activation record of routine \p Rtn in \p Database's log.
inline const ActivationRecord *findActivation(const ProfileDatabase &Database,
                                              RoutineId Rtn) {
  for (const ActivationRecord &R : Database.log())
    if (R.Rtn == Rtn)
      return &R;
  return nullptr;
}

} // namespace isp

#endif // ISPROF_TESTS_TESTUTIL_H
