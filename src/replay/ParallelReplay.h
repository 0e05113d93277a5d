//===- replay/ParallelReplay.h - Shard-partitioned replay -------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parallel replay of a chunked trace stream into the trms profiler,
/// partitioned by shadow shard with epoch-barrier coordination.
///
/// The reader thread is the serial step: it decodes chunks, applies
/// every non-memory event directly, and for each memory access runs the
/// serial half (counter bumps, global tallies — replayPrepareMemOp),
/// splits the address range at 512-cell shadow-chunk boundaries, and
/// routes each piece to the worker that owns its shard (shard mod
/// workers) through a bounded SPSC queue. Workers apply the shard-local
/// half: shadow-cell updates confined to their own shards, with the
/// classification side effects accumulated in per-worker commutative
/// delta sets.
///
/// Epochs: between barriers every shadow stack is frozen and the global
/// counter only moves on the reader, so workers race only on disjoint
/// shadow shards. Any event that unfreezes a stack (Call, Return,
/// ThreadEnd) seals the epoch for the workers holding that thread's
/// in-flight ops — an in-band seal sentinel drains each such queue, the
/// worker's deltas are folded into the real frames, and only then does
/// the serial step apply the event. A possible counter renumbering
/// (which rewrites every shard) seals ALL workers first. Thread starts
/// and basic blocks touch no shared shadow state and need no barrier.
///
/// Reports are byte-identical to serial replay at every (shards ×
/// workers) combination because each shadow cell still observes the
/// exact serial sequence of updates (per-cell updates are totally
/// ordered by the stamped counter values within an epoch and by
/// barriers across epochs), and all classification increments are
/// commutative sums merged before anything reads them.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_REPLAY_PARALLELREPLAY_H
#define ISPROF_REPLAY_PARALLELREPLAY_H

#include "core/TrmsProfiler.h"

#include <cstddef>
#include <cstdint>

namespace isp {

class SymbolTable;
class TraceStreamReader;

struct ParallelReplayOptions {
  /// Upper bound on Workers (sanity, not tuning).
  static constexpr unsigned MaxWorkers = 32;

  /// Worker thread count. 0 runs the identical demux/epoch machinery
  /// with in-line application on the calling thread and no threads
  /// spawned — the degenerate configuration the byte-identity tests
  /// anchor on. Capped at the profiler's shard count (extra workers
  /// would own no shard).
  unsigned Workers = 0;
  /// Per-worker queue capacity in ops (rounded up to a power of two).
  size_t QueueCapacity = size_t(1) << 14;
};

/// Replay statistics, also published as replay.* obs metrics when stats
/// collection is enabled.
struct ParallelReplayStats {
  uint64_t Workers = 0;
  /// Epoch seals performed (each drains at least one worker queue).
  uint64_t Epochs = 0;
  /// Seals where the reader actually had to wait for a worker.
  uint64_t BarrierWaits = 0;
  uint64_t BarrierWaitNs = 0;
  /// (chunk, worker) pairs skipped via the chunk shard-activity masks.
  uint64_t ChunksSkipped = 0;
  /// High-water mark of any worker queue's occupancy.
  uint64_t QueueDepthMax = 0;
  /// Memory events prepared, and shard-local pieces routed.
  uint64_t MemOps = 0;
  uint64_t ShardOps = 0;
};

/// Replays \p Reader from its current cursor position (seek first to
/// resume mid-stream) into \p P. Returns false on a read error
/// (Reader.error() explains); \p P still sees onFinish so partial
/// results are well-formed. \p EventsOut, when non-null, receives the
/// number of events replayed.
bool parallelReplayStream(TraceStreamReader &Reader, ParallelReplayProfiler &P,
                          const SymbolTable *Symbols,
                          const ParallelReplayOptions &Opts = {},
                          ParallelReplayStats *StatsOut = nullptr,
                          uint64_t *EventsOut = nullptr);

} // namespace isp

#endif // ISPROF_REPLAY_PARALLELREPLAY_H
