//===- instr/Dispatcher.h - Event fan-out and trace replay ------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// EventDispatcher fans substrate events out to any number of registered
/// Tools (and optionally a RecordSink that records them); replayTrace
/// drives a Tool from an in-memory trace. Together these decouple
/// analyses from how the event stream was produced — live VM execution,
/// a trace file, or a synthetic generator.
///
/// The dispatcher serves live runs and multi-tool stream replay
/// (`isprof replay`) only. A recorded stream is already its compacted
/// output, so single-tool replay (trace/TraceStream.h) and the fleet
/// collector hand decoded records straight to the tool and never build
/// one; their runs emit no `dispatcher.*` or `tool.*` stats counters.
///
/// The hot path is enqueue(): events accumulate in a pending batch of
/// packed 16-byte stream words (trace/Event.h) that is delivered to the
/// tools in one handleBatch call per flush, and the dense access/cost
/// stream is *compacted* on the way in. Compaction merges a new event
/// into a buffered one in two cases:
///
///  - a Read or Write whose cells directly continue the *last* buffered
///    event (same kind, same thread, consecutive addresses) extends it
///    into one multi-cell event. Only the literally-last event is a
///    merge target, so a merge never crosses another event: any
///    intervening event — in particular every counter-bump kind —
///    breaks adjacency by itself, and the merged event is
///    observationally identical to the run of single-cell events it
///    replaces for every tool.
///  - a BasicBlock folds into the thread's still-open basic-block event
///    even across interleaved reads and writes (cost events carry only
///    a count, and no tool orders accesses against block costs between
///    two calls). The open block is closed by Call and Return — the
///    points where cost attribution changes — and by every barrier.
///
/// Everything else — thread lifecycle and switches, kernel ops, sync —
/// is a compaction barrier: it closes the open basic-block run (and, by
/// sitting between them in the buffer, breaks access adjacency), but it
/// does *not* force delivery. Batches are delivered only when the
/// fixed-size buffer fills, keeping flush frequency independent of the
/// scheduler's switch rate; in-batch order preserves the exact event
/// sequence, so tools observe barriers at the right position either
/// way.
///
/// In the packed form a logical event occupies one to three words (a
/// rare time-base escape, the main word, an optional follow-on carrying
/// a non-default second argument); the batch flushes when fewer than
/// MaxWordsPerRecord free slots remain, so an enqueue never overruns
/// the buffer. The word-level encoder state resets at every flush, so
/// each delivered batch decodes standalone — and because times are
/// non-decreasing, the concatenated recorded stream decodes with one
/// continuous decoder too.
///
/// The recorded stream is the compacted stream (merged events keep the
/// first event's time, so times stay strictly increasing); replaying it
/// is equivalent by construction.
///
/// **Parallel tool fan-out.** Batches are immutable once flushed, so
/// independent tools can consume them from worker threads. start()
/// engages fan-out on its own, exactly when two or more tools are
/// attached and at least one of them may run on a worker; a single tool
/// is always delivered serially. Flushed batches are published into a
/// fixed ring of RingSlots batch slots; each registered tool is
/// assigned one fixed worker and consumes every batch in publication
/// order there, preserving Tool.h's no-reentrancy guarantee. The
/// pending array is double-buffered through the ring — publication
/// swaps the filled buffer into a drained slot and takes that slot's
/// buffer back, so the enqueue hot path keeps filling while workers
/// drain. When every slot is still in flight the publisher blocks
/// (backpressure, bounded memory under slow tools). Tools declare where
/// they may run via Tool::threadAffinity(): DispatchThread tools are
/// delivered synchronously on the enqueue thread (serial fallback),
/// CoScheduled tools share worker 0, AnyWorker tools are spread
/// round-robin. finish() is the join point: it publishes the final
/// partial batch, drains every worker queue, joins the workers, and
/// only then calls onFinish(). Each tool observes exactly the batch
/// sequence serial mode would deliver, so profiles are identical to
/// serial delivery; serial mode itself takes none of these paths.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_INSTR_DISPATCHER_H
#define ISPROF_INSTR_DISPATCHER_H

#include "instr/Tool.h"
#include "obs/TraceLog.h"
#include "trace/Event.h"

#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace isp {

class SymbolTable;

/// Fans events out to registered tools. Tools are not owned.
class EventDispatcher {
public:
  /// Pending-batch capacity in stream words; a flush is forced when
  /// fewer than Event::MaxWordsPerRecord free words remain. Large enough
  /// to amortize delivery, small enough to stay cache-resident.
  static constexpr size_t BatchCapacity = 256;

  /// In-flight batch slots in parallel mode. Bounds the publisher's lead
  /// over the slowest worker (backpressure) and the memory pinned in
  /// undrained batches: 64 x 256 words x 16 B = 256 KiB.
  static constexpr size_t RingSlots = 64;

  /// Why a (non-empty) batch was delivered. Capacity is the steady
  /// state; Explicit covers dispatch()-forced order preservation and
  /// manual flush() calls; Finish is the end-of-run drain. The
  /// distribution shows how full delivered batches run.
  enum class FlushCause : uint8_t { Capacity, Explicit, Finish };
  static constexpr size_t NumFlushCauses = 3;

  /// Consumer of recorded batches: the one recording path. A sink
  /// receives the compacted event stream (e.g. TraceStreamWriter writes
  /// it to a stream file). Batches arrive on the dispatch thread, in
  /// delivery order, as packed word runs that decode standalone (fresh
  /// decoder per batch), so their concatenation is the recorded stream.
  class RecordSink {
  public:
    virtual ~RecordSink() = default;
    virtual void recordBatch(const Event *Words, size_t Count) = 0;
  };

  ~EventDispatcher();

  /// Registers \p T; tools receive events in registration order.
  void addTool(Tool *T) { Tools.push_back(T); }

  /// Streams every delivered batch to \p S. Pass nullptr to detach. The
  /// sink is not owned and must outlive the run.
  void setRecordSink(RecordSink *S) { Sink = S; }

  /// True while worker threads are consuming batches (between start()
  /// and finish() in an engaged parallel run).
  bool parallelActive() const { return ParallelActive; }
  /// Workers used by the current/most recent parallel run (0 = serial).
  unsigned parallelWorkersUsed() const { return WorkerCountUsed; }
  /// Times the publisher blocked because every ring slot was in flight.
  uint64_t backpressureBlocks() const { return BackpressureBlocks; }
  /// Peak number of published-but-undrained batches.
  uint64_t maxQueueDepth() const { return MaxQueueDepth; }

  /// Signals the start of a run. Forwards to Tool::onStart, then engages
  /// parallel fan-out when two or more tools are attached and at least
  /// one may run on a worker.
  void start(const SymbolTable *Symbols);
  /// Signals the end of a run. Flushes pending events, then forwards to
  /// Tool::onFinish.
  void finish();

  /// Queues one event for batched delivery, compacting adjacent access
  /// runs and basic-block counts (see the file comment for the exact
  /// rules). The buffer is a fixed array of packed words so the append
  /// is branch-cheap and inlines into the interpreter loop.
  void enqueue(const EventRecord &E) {
    ++EnqueuedEvents;
    switch (E.Kind) {
    case EventKind::Read:
    case EventKind::Write:
      if (HaveLastMain && E.Tid <= Event::MaxInlineTid) {
        Event &M = Pending[LastMain];
        if (M.kind() == E.Kind && M.inlineTid() == E.Tid) {
          bool Follow = M.hasFollow();
          // A nonzero follow-on TimeLow means the buffered event's real
          // tid lives there (spilled >24-bit id): don't merge into it.
          if (!Follow || Pending[LastMain + 1].TimeLow == 0) {
            uint64_t Cells = Follow ? Pending[LastMain + 1].Arg : 1;
            if (M.Arg + Cells == E.Arg0) {
              // The merged event keeps the first event's time; only the
              // cell count grows (growing 1 -> 2 cells materializes the
              // follow-on word right behind the main word).
              if (Follow) {
                Pending[LastMain + 1].Arg = Cells + E.Arg1;
              } else {
                M.Meta |= Event::FollowBit;
                Event &FW = Pending[PendingWords++];
                FW.Meta = Event::SpecialBit | Event::FollowBit;
                FW.TimeLow = 0;
                FW.Arg = Cells + E.Arg1;
              }
              ++AccessMerges;
              if (ISP_UNLIKELY(PendingWords + Event::MaxWordsPerRecord >
                               BatchCapacity))
                flushImpl(FlushCause::Capacity);
              return;
            }
          }
        }
      }
      break;
    case EventKind::BasicBlock:
      if (BbRun.Active && BbRun.Tid == E.Tid) {
        Pending[BbRun.Index].Arg += E.Arg1;
        ++BbFolds;
        return;
      }
      break;
    default:
      // Calls/returns (cost attribution boundaries) and the rare
      // scheduling/kernel/sync kinds: close the open basic-block event.
      // Their presence in the buffer breaks access adjacency by itself.
      BbRun.Active = false;
      break;
    }
    size_t MainOff = 0;
    size_t N = Enc.encode(E, &Pending[PendingWords], MainOff);
    LastMain = static_cast<uint32_t>(PendingWords + MainOff);
    HaveLastMain = true;
    if (E.Kind == EventKind::BasicBlock)
      BbRun = {true, E.Tid, LastMain};
    PendingWords += N;
    ++PendingRecords;
    if (ISP_UNLIKELY(PendingWords + Event::MaxWordsPerRecord >
                     BatchCapacity))
      flushImpl(FlushCause::Capacity);
  }

  /// Delivers the pending batch to every tool (and the record sink)
  /// and empties it.
  void flush() { flushImpl(FlushCause::Explicit); }

  /// Dispatches one event to all tools immediately, after flushing any
  /// pending batch so order is preserved. Kept for replay loops and
  /// tests that need per-event delivery: the event goes out as its own
  /// single-event batch (synchronously in serial mode; published like
  /// any other batch in parallel mode, where finish() remains the only
  /// join point).
  void dispatch(const EventRecord &E) {
    if (PendingWords != 0)
      flushImpl(FlushCause::Explicit);
    ++EnqueuedEvents;
    PendingWords = Enc.encode(E, Pending.get());
    PendingRecords = 1;
    flushImpl(FlushCause::Explicit);
  }

  /// True when at least one tool or a record sink is attached; the VM
  /// skips event construction entirely otherwise ("native" runs).
  bool isActive() const { return Sink != nullptr || !Tools.empty(); }

  /// Events accepted by enqueue()/dispatch() — i.e. what the substrate
  /// emitted, before compaction.
  uint64_t enqueuedEvents() const { return EnqueuedEvents; }
  /// Events actually delivered to tools after compaction; together with
  /// enqueuedEvents this gives the compaction ratio the benchmark
  /// harnesses report.
  uint64_t deliveredEvents() const { return DeliveredEvents; }

  /// Compaction breakdown. The exact identity
  ///   enqueuedEvents() == deliveredEvents() + accessMerges() + bbFolds()
  /// holds whenever the pending batch is empty (always after finish());
  /// every enqueue either merges into a buffered event or is eventually
  /// delivered. ObsTest asserts this.
  uint64_t accessMerges() const { return AccessMerges; }
  uint64_t bbFolds() const { return BbFolds; }

  /// Number of non-empty batch deliveries attributed to \p Cause.
  uint64_t flushCount(FlushCause Cause) const {
    return Flushes[static_cast<size_t>(Cause)];
  }
  uint64_t totalFlushes() const {
    return Flushes[0] + Flushes[1] + Flushes[2];
  }

private:
  /// The thread's still-open basic-block event sitting in the batch.
  struct BbRunState {
    bool Active = false;
    ThreadId Tid = 0;
    uint32_t Index = 0;
  };

  /// Per-tool observability: cached name (Tool::name() is virtual),
  /// events consumed, callback wall-time, and a timeline lane.
  /// Populated by start(); parallel to Tools.
  struct ToolObsState {
    std::string Name;
    uint64_t Events = 0;
    uint64_t CallbackNs = 0;
    obs::LaneId Lane = 0;
  };

  /// One slot of the parallel batch ring. The word buffer rotates with
  /// the Pending array: publication swaps the filled Pending buffer in
  /// and takes the slot's drained buffer back, so no batch is ever
  /// copied. Remaining counts the workers that have not yet consumed
  /// the slot; the publisher reuses a slot only at zero.
  struct BatchSlot {
    std::unique_ptr<Event[]> Words;
    size_t Count = 0;
    size_t Records = 0;
    unsigned Remaining = 0;
  };

  /// A worker thread and its fixed tool assignment (indices into Tools).
  struct WorkerState {
    std::thread Thread;
    std::vector<size_t> ToolIdx;
    /// Next batch sequence number this worker will consume. Guarded by
    /// ParMutex.
    uint64_t NextSeq = 0;
    obs::LaneId Lane = 0;
  };

  void resetCompaction() {
    BbRun.Active = false;
    HaveLastMain = false;
  }

  void flushImpl(FlushCause Cause);

  /// Partitions tools by affinity, sizes the worker pool to
  /// min(schedulable units, hardware concurrency), allocates the batch
  /// ring, and spawns the workers. Leaves ParallelActive false when no
  /// registered tool may run on a worker.
  void startParallel();
  /// Parallel-mode flush body: delivers to DispatchThread tools
  /// synchronously, then publishes the pending buffer into the ring
  /// (blocking while all slots are in flight).
  void publishBatch(FlushCause Cause);
  /// Signals shutdown, drains every worker queue, joins the threads.
  void joinWorkers();
  void workerLoop(WorkerState &W);
  /// Delivers the batch to the tools in \p Idx, with per-tool
  /// observability when enabled. Each index is only ever touched by the
  /// one thread that owns the tool, so the ToolObs tallies stay
  /// single-writer.
  void deliverTo(const std::vector<size_t> &Idx, const Event *Words,
                 size_t Count, size_t Records);

  /// Folds the dispatcher's plain counters (and the per-tool tallies)
  /// into the process-wide obs registry. Called by finish() when stats
  /// collection is on.
  void publishStats() const;

  std::vector<Tool *> Tools;
  /// Pending batch of packed words, sized BatchCapacity (enqueue
  /// flushes when fewer than MaxWordsPerRecord free words remain).
  std::unique_ptr<Event[]> Pending{new Event[BatchCapacity]};
  size_t PendingWords = 0;
  /// Logical events among the pending words (delivery accounting).
  size_t PendingRecords = 0;
  /// Word index of the last logical event's main word (merge target);
  /// valid only while HaveLastMain.
  uint32_t LastMain = 0;
  bool HaveLastMain = false;
  /// Word-level encoder time state; resets at every flush so each batch
  /// decodes standalone.
  EventEncoder Enc;
  RecordSink *Sink = nullptr;
  BbRunState BbRun;
  uint64_t EnqueuedEvents = 0;
  uint64_t DeliveredEvents = 0;
  /// Compaction and flush-cause tallies. Plain (non-atomic) members like
  /// EnqueuedEvents, bumped unconditionally: they sit on paths that
  /// already do comparable work per event, and folding them into the
  /// atomic registry happens once per run in publishStats().
  uint64_t AccessMerges = 0;
  uint64_t BbFolds = 0;
  uint64_t Flushes[NumFlushCauses] = {0, 0, 0};
  std::vector<ToolObsState> ToolObs;
  obs::LaneId DispatcherLane = 0;

  //===--- Parallel fan-out state (untouched in serial mode) -------------===//

  bool ParallelActive = false;
  unsigned WorkerCountUsed = 0;
  std::vector<std::unique_ptr<WorkerState>> Workers;
  /// Tools pinned to the dispatch thread (serial-delivery fallback).
  std::vector<size_t> SerialToolIdx;
  /// RingSlots slots while parallel mode is engaged, empty otherwise.
  std::vector<BatchSlot> Ring;
  /// Batches published so far; slot = seq % RingSlots. Guarded by
  /// ParMutex together with ShuttingDown and the slot/worker cursors.
  uint64_t PublishedSeq = 0;
  bool ShuttingDown = false;
  /// Workers currently parked in a WorkReady wait / publisher parked in
  /// a SlotFree wait. Guarded by ParMutex; lets each side skip the
  /// condvar signal (a futex syscall per batch) when nobody is waiting.
  unsigned IdleWorkers = 0;
  bool PublisherWaiting = false;
  std::mutex ParMutex;
  std::condition_variable WorkReady;
  std::condition_variable SlotFree;
  uint64_t BackpressureBlocks = 0;
  uint64_t BackpressureWaitNs = 0;
  uint64_t MaxQueueDepth = 0;
};

/// Replays \p Events into \p T, bracketed by onStart/onFinish.
void replayTrace(const std::vector<EventRecord> &Events, Tool &T,
                 const SymbolTable *Symbols = nullptr);

/// Replays \p Events into \p T through a batching EventDispatcher —
/// the same delivery path the live VM uses, including event compaction.
/// Results are identical to replayTrace for every tool (the batched-
/// equivalence tests assert this); the batched form is faster on
/// access-dense traces.
void replayTraceBatched(const std::vector<EventRecord> &Events, Tool &T,
                        const SymbolTable *Symbols = nullptr);

} // namespace isp

#endif // ISPROF_INSTR_DISPATCHER_H
