//===- perfbench/src/Layers.h - Layer-timing wrappers -----------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Forwarding wrappers the traced run puts between isprof's layers.
/// EventDispatcher delivers batches through the non-virtual
/// Tool::handleBatch, so the only seam into a tool is its per-event
/// callbacks: TimedTool times a sample of them with the cycle counter.
/// TimedSink times every RecordSink batch (stream encode).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "Harness.h"

#include "instr/Dispatcher.h"
#include "instr/Tool.h"

#include <algorithm>

namespace perfbench {

/// Forwards every callback to \p Inner and estimates the time spent
/// inside it (the tool's self time: it calls no other layer). Reading
/// the clock costs ~30 ns on a virtualised TSC, more than a typical trms
/// callback, so the wrapper times one callback in every ~64, at
/// pseudo-random gaps so the sample cannot alias with batch structure,
/// and scales the sampled time by callbacks / samples. onStart and
/// onFinish, which run once, are always timed.
class TimedTool : public isp::Tool {
public:
  explicit TimedTool(isp::Tool &Inner) : Inner(Inner) {}

  /// Estimated ns inside the wrapped tool.
  uint64_t ns() const {
    double Sampled = 0;
    if (Samples != 0) {
      double Net = static_cast<double>(SampledTicks) -
                   static_cast<double>(Samples) * clockOverheadTicks();
      Sampled = std::max(0.0, Net) * static_cast<double>(Calls) /
                static_cast<double>(Samples);
    }
    return static_cast<uint64_t>(
        ticksToNs(static_cast<uint64_t>(Sampled) + OnceTicks));
  }

  isp::ToolAffinity threadAffinity() const override {
    return Inner.threadAffinity();
  }
  std::string name() const override { return Inner.name(); }
  uint64_t memoryFootprintBytes() const override {
    return Inner.memoryFootprintBytes();
  }
  isp::ProfileDatabase *profileDatabase() override {
    return Inner.profileDatabase();
  }

  void onStart(const isp::SymbolTable *S) override {
    uint64_t T0 = ticks();
    Inner.onStart(S);
    OnceTicks += ticks() - T0;
  }
  void onFinish() override {
    uint64_t T0 = ticks();
    Inner.onFinish();
    OnceTicks += ticks() - T0;
  }

#define PERFBENCH_FORWARD(Sig, Call)                                          \
  void Sig override {                                                         \
    ++Calls;                                                                  \
    if (--Countdown != 0) {                                                   \
      Inner.Call;                                                             \
      return;                                                                 \
    }                                                                         \
    uint64_t T0 = ticks();                                                    \
    Inner.Call;                                                               \
    SampledTicks += ticks() - T0;                                             \
    ++Samples;                                                                \
    Countdown = nextGap();                                                    \
  }
  PERFBENCH_FORWARD(onThreadStart(isp::ThreadId T, isp::ThreadId P),
                    onThreadStart(T, P))
  PERFBENCH_FORWARD(onThreadEnd(isp::ThreadId T), onThreadEnd(T))
  PERFBENCH_FORWARD(onThreadSwitch(isp::ThreadId T), onThreadSwitch(T))
  PERFBENCH_FORWARD(onCall(isp::ThreadId T, isp::RoutineId R), onCall(T, R))
  PERFBENCH_FORWARD(onReturn(isp::ThreadId T, isp::RoutineId R),
                    onReturn(T, R))
  PERFBENCH_FORWARD(onBasicBlock(isp::ThreadId T, uint64_t C),
                    onBasicBlock(T, C))
  PERFBENCH_FORWARD(onRead(isp::ThreadId T, isp::Addr A, uint64_t C),
                    onRead(T, A, C))
  PERFBENCH_FORWARD(onWrite(isp::ThreadId T, isp::Addr A, uint64_t C),
                    onWrite(T, A, C))
  PERFBENCH_FORWARD(onKernelRead(isp::ThreadId T, isp::Addr A, uint64_t C),
                    onKernelRead(T, A, C))
  PERFBENCH_FORWARD(onKernelWrite(isp::ThreadId T, isp::Addr A, uint64_t C),
                    onKernelWrite(T, A, C))
  PERFBENCH_FORWARD(onSyncAcquire(isp::ThreadId T, isp::SyncId S, bool L),
                    onSyncAcquire(T, S, L))
  PERFBENCH_FORWARD(onSyncRelease(isp::ThreadId T, isp::SyncId S, bool L),
                    onSyncRelease(T, S, L))
  PERFBENCH_FORWARD(onThreadCreate(isp::ThreadId T, isp::ThreadId C),
                    onThreadCreate(T, C))
  PERFBENCH_FORWARD(onThreadJoin(isp::ThreadId T, isp::ThreadId C),
                    onThreadJoin(T, C))
  PERFBENCH_FORWARD(onAlloc(isp::ThreadId T, isp::Addr A, uint64_t C),
                    onAlloc(T, A, C))
  PERFBENCH_FORWARD(onFree(isp::ThreadId T, isp::Addr A), onFree(T, A))
#undef PERFBENCH_FORWARD

private:
  /// Next gap, uniform in [1, 127] (mean 64), from a fixed xorshift
  /// sequence so traced runs are repeatable.
  uint32_t nextGap() {
    Rng ^= Rng << 13;
    Rng ^= Rng >> 7;
    Rng ^= Rng << 17;
    return static_cast<uint32_t>(Rng % 127) + 1;
  }

  isp::Tool &Inner;
  uint64_t Calls = 0;
  uint64_t Samples = 0;
  uint64_t SampledTicks = 0;
  uint64_t OnceTicks = 0;
  uint64_t Rng = 0x9e3779b97f4a7c15ULL;
  uint32_t Countdown = 1;
};

/// Forwards record batches to \p Inner (a TraceStreamWriter) and sums
/// the time spent encoding them.
class TimedSink : public isp::EventDispatcher::RecordSink {
public:
  explicit TimedSink(isp::EventDispatcher::RecordSink &Inner) : Inner(Inner) {}
  void recordBatch(const isp::Event *Words, size_t Count) override {
    uint64_t T0 = ticks();
    Inner.recordBatch(Words, Count);
    Ticks += ticks() - T0;
  }
  uint64_t ns() const { return static_cast<uint64_t>(ticksToNs(Ticks)); }

private:
  isp::EventDispatcher::RecordSink &Inner;
  uint64_t Ticks = 0;
};

/// Counts the 16-byte event words the dispatcher delivers: the size of
/// the in-memory event stream a live run hands its tools.
class CountingSink : public isp::EventDispatcher::RecordSink {
public:
  void recordBatch(const isp::Event *, size_t Count) override {
    Words += Count;
  }
  uint64_t bytes() const { return Words * sizeof(isp::Event); }

private:
  uint64_t Words = 0;
};

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
