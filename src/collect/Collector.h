//===- collect/Collector.h - Multi-stream fleet ingestion -------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The collector's ingestion engine: many recorded streams — named
/// explicitly or discovered in a spool directory — are replayed
/// concurrently, each through its own aprof-trms profiler, and the
/// per-stream results are folded into a shared FleetStore.
///
/// Each stream ends in one of three states:
///  - ingested: complete, and merged;
///  - incomplete: no end marker yet (a writer still running, or one
///    that died). Its complete chunks are merged, with activations
///    still open at the recovered end closed as at a stream's end —
///    unless the caller defers it, to retry once the writer finishes;
///  - corrupt: a checksum or format failure. It is reported (file,
///    failing chunk, the stream reader's diagnostic) and contributes
///    nothing; it never poisons the rollup.
///
/// When a routine filter is set, chunks whose 64-bit routine mask
/// provably excludes every filtered routine are skipped without
/// decoding — but only while no filtered activation is in flight, so
/// everything between a filtered Call and its Return always replays,
/// and only when the chunk's written-shard mask misses every shard a
/// later filtered-Call chunk touches (a backward suffix-union over the
/// chunk headers), so the shadow-timestamp history behind every
/// retained induced first-access is preserved. One residual corner
/// remains: an activation's mask-invisible continuation chunks may read
/// shards no filtered-Call chunk touches. A per-thread shadow stack of
/// forwarded calls reconciles the holes skipping tears in the stream:
/// Returns that close frames opened inside skipped chunks are dropped
/// before dispatch, keeping the replayed call stack consistent and the
/// filtered routines' rms and cost exact. The masks are covered by the
/// chunk header CRCs, which the reader checks before anything is
/// skipped.
///
/// Observability: the `collector.*` metric family (streams per state,
/// chunks read/skipped, merge time, store size) and one Chrome-trace
/// lane per ingested stream.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_COLLECT_COLLECTOR_H
#define ISPROF_COLLECT_COLLECTOR_H

#include "collect/FleetStore.h"

#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace isp::collect {

struct CollectorOptions {
  /// Concurrent ingestion threads. 0 auto-sizes to
  /// min(streams, hardware_concurrency), capped at MaxWorkers.
  unsigned Workers = 0;
  static constexpr unsigned MaxWorkers = 64;
  /// Restrict the rollup to these routine names (and skip provably
  /// excluded chunks). Empty ingests everything.
  std::vector<std::string> RoutineFilter;
  /// Program label for every ingested stream; empty labels each stream
  /// by its file stem ("spool/md-3.strm" -> "md-3").
  std::string ProgramLabel;
};

/// One corrupt stream: which file, which chunk, what the reader said.
struct StreamIngestError {
  std::string File;
  size_t Chunk = 0;
  std::string Message;
};

/// One stream merged as a prefix: which file, how many complete chunks.
struct IncompleteStream {
  std::string File;
  size_t Chunks = 0;
};

/// Commutative ingestion tallies (exported as collector.* metrics).
struct CollectorTotals {
  uint64_t Streams = 0;           ///< complete, and merged
  uint64_t StreamsIncomplete = 0; ///< complete chunks merged
  uint64_t StreamsCorrupt = 0;    ///< reported and skipped
  uint64_t ChunksRead = 0;
  uint64_t ChunksSkipped = 0; ///< excluded via the routine masks
  uint64_t Events = 0;
  uint64_t MergeNs = 0;  ///< wall time inside store merges
  uint64_t IngestNs = 0; ///< wall time of the whole ingestFiles call
};

class Collector {
public:
  Collector(const CollectorOptions &Opts, FleetStore &Store)
      : Opts(Opts), Store(Store) {}

  /// Ingests every file, fanning out across the configured worker
  /// count. Returns the number of streams merged (complete or not);
  /// corrupt streams land in errors(). With \p Deferred, an incomplete
  /// stream is not merged but appended to *Deferred, for the caller to
  /// retry once its writer has finished. Publishes collector.* metrics
  /// when stats are enabled. Callable repeatedly (spool watching);
  /// totals accumulate.
  size_t ingestFiles(const std::vector<std::string> &Files,
                     std::vector<std::string> *Deferred = nullptr);

  const CollectorTotals &totals() const { return Totals; }
  const std::vector<StreamIngestError> &errors() const { return Errors; }
  /// Streams merged without their end marker, in completion order.
  const std::vector<IncompleteStream> &incomplete() const {
    return Incomplete;
  }

private:
  void ingestOne(const std::string &Path,
                 std::vector<std::string> *Deferred);

  CollectorOptions Opts;
  FleetStore &Store;
  CollectorTotals Totals;
  std::vector<StreamIngestError> Errors;
  std::vector<IncompleteStream> Incomplete;
  /// Guards Store, Totals, Errors, Incomplete and the deferred list
  /// during concurrent ingestion.
  std::mutex Mutex;
};

/// Chunked stream files directly inside \p Dir (identified by magic,
/// any extension), sorted by name for determinism. Returns an empty
/// list and sets \p Error when the directory cannot be read.
std::vector<std::string> scanSpoolDir(const std::string &Dir,
                                      std::string *Error);

} // namespace isp::collect

#endif // ISPROF_COLLECT_COLLECTOR_H
