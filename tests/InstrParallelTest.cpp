//===- tests/InstrParallelTest.cpp - Parallel tool fan-out ----------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// The dispatcher engages parallel tool fan-out on its own, exactly when
// two or more tools are attached and at least one may run on a worker.
// It promises three things, and these tests hold it to them: (1) every
// tool observes exactly the batch sequence it would get running alone,
// so reports and profiles are byte-identical; (2) each tool's callbacks
// run on one fixed thread chosen by its declared affinity —
// DispatchThread on the enqueue thread, worker tools on exactly one
// worker; (3) finish() is a real join: after it returns, every event has
// been consumed and the compaction identity holds on the dispatcher's
// plain counters.
//
//===----------------------------------------------------------------------===//

#include "core/RmsProfiler.h"
#include "core/TrmsProfiler.h"
#include "instr/Dispatcher.h"
#include "instr/SpscQueue.h"
#include "tools/NulTool.h"
#include "tools/ToolRegistry.h"
#include "trace/Synthetic.h"
#include "vm/Compiler.h"
#include "vm/Machine.h"
#include "workloads/Runner.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

using namespace isp;

namespace {

std::vector<EventRecord> makeTrace(uint64_t Operations, uint64_t Seed,
                             unsigned Threads = 4) {
  SyntheticTraceOptions Gen;
  Gen.NumThreads = Threads;
  Gen.NumOperations = Operations;
  Gen.Seed = Seed;
  return generateSyntheticTrace(Gen);
}

/// Runs \p Events through one dispatcher over freshly created
/// \p ToolNames and returns each tool's rendered report. *WorkersOut
/// (when given) receives the worker count the run used (0 = serial).
std::vector<std::string> reportsForRun(const std::vector<EventRecord> &Events,
                                       const std::vector<std::string> &ToolNames,
                                       unsigned *WorkersOut = nullptr) {
  std::vector<std::unique_ptr<Tool>> Tools;
  for (const std::string &Name : ToolNames) {
    Tools.push_back(makeTool(Name));
    EXPECT_NE(Tools.back(), nullptr) << Name;
  }
  EventDispatcher Dispatcher;
  for (auto &T : Tools)
    Dispatcher.addTool(T.get());
  Dispatcher.start(nullptr);
  for (const EventRecord &E : Events)
    Dispatcher.enqueue(E);
  Dispatcher.finish();
  if (WorkersOut)
    *WorkersOut = Dispatcher.parallelWorkersUsed();
  std::vector<std::string> Reports;
  for (auto &T : Tools)
    Reports.push_back(renderToolReport(*T, nullptr));
  return Reports;
}

/// The worker count the automatic rule picks for \p Units schedulable
/// units: min(units, hardware concurrency), unknown concurrency read as 2.
unsigned expectedWorkers(unsigned Units) {
  unsigned Hw = std::thread::hardware_concurrency();
  return std::min(Units, Hw == 0 ? 2u : Hw);
}

/// Records every callback's payload and the thread it ran on.
class RecordingTool : public Tool {
public:
  explicit RecordingTool(ToolAffinity A) : Affinity(A) {}

  ToolAffinity threadAffinity() const override { return Affinity; }
  std::string name() const override { return "recording"; }

  void onThreadStart(ThreadId Tid, ThreadId Parent) override {
    note('S', Tid, Parent, 0);
  }
  void onThreadEnd(ThreadId Tid) override { note('E', Tid, 0, 0); }
  void onCall(ThreadId Tid, RoutineId Rtn) override {
    note('C', Tid, Rtn, 0);
  }
  void onReturn(ThreadId Tid, RoutineId Rtn) override {
    note('R', Tid, Rtn, 0);
  }
  void onBasicBlock(ThreadId Tid, uint64_t Count) override {
    note('B', Tid, Count, 0);
  }
  void onRead(ThreadId Tid, Addr A, uint64_t Cells) override {
    note('r', Tid, A, Cells);
  }
  void onWrite(ThreadId Tid, Addr A, uint64_t Cells) override {
    note('w', Tid, A, Cells);
  }
  void onKernelRead(ThreadId Tid, Addr A, uint64_t Cells) override {
    note('k', Tid, A, Cells);
  }
  void onKernelWrite(ThreadId Tid, Addr A, uint64_t Cells) override {
    note('K', Tid, A, Cells);
  }

  using Entry = std::tuple<char, uint64_t, uint64_t, uint64_t>;
  const std::vector<Entry> &entries() const { return Entries; }
  const std::set<std::thread::id> &threads() const { return Threads; }

private:
  void note(char Kind, uint64_t A, uint64_t B, uint64_t C) {
    Entries.emplace_back(Kind, A, B, C);
    Threads.insert(std::this_thread::get_id());
  }

  ToolAffinity Affinity;
  std::vector<Entry> Entries;
  std::set<std::thread::id> Threads;
};

/// An AnyWorker tool that naps every 256 reads — slow enough for the
/// publisher to lap the batch ring and hit backpressure.
class SlowTool : public Tool {
public:
  ToolAffinity threadAffinity() const override {
    return ToolAffinity::AnyWorker;
  }
  std::string name() const override { return "slow"; }
  void onRead(ThreadId, Addr, uint64_t) override {
    if (++Reads % 256 == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  uint64_t reads() const { return Reads; }

private:
  uint64_t Reads = 0;
};

//===----------------------------------------------------------------------===//
// Affinity declarations
//===----------------------------------------------------------------------===//

TEST(ParallelFanout, RegistryToolsDeclareExpectedAffinities) {
  // The profiler family shares global shadow state across instances, so
  // it must stay co-scheduled on one worker.
  for (const char *Name : {"aprof-trms", "aprof-rms", "aprof-trms-naive"}) {
    std::unique_ptr<Tool> T = makeTool(Name);
    ASSERT_NE(T, nullptr) << Name;
    EXPECT_EQ(T->threadAffinity(), ToolAffinity::CoScheduled) << Name;
  }
  // Instance-private tools may take any fixed worker.
  for (const char *Name :
       {"nulgrind", "memcheck", "callgrind", "helgrind", "drd", "cct"}) {
    std::unique_ptr<Tool> T = makeTool(Name);
    ASSERT_NE(T, nullptr) << Name;
    EXPECT_EQ(T->threadAffinity(), ToolAffinity::AnyWorker) << Name;
  }
  // The base class stays conservative for unaudited tools.
  RecordingTool Base(ToolAffinity::DispatchThread);
  EXPECT_EQ(static_cast<Tool &>(Base).threadAffinity(),
            ToolAffinity::DispatchThread);
}

//===----------------------------------------------------------------------===//
// When fan-out engages
//===----------------------------------------------------------------------===//

TEST(ParallelFanout, OneToolStaysSerial) {
  // A lone tool is delivered on the enqueue thread, whatever its
  // affinity.
  for (const std::string &Name : allToolNames()) {
    std::unique_ptr<Tool> T = makeTool(Name);
    EventDispatcher D;
    D.addTool(T.get());
    D.start(nullptr);
    EXPECT_FALSE(D.parallelActive()) << Name;
    D.finish();
    EXPECT_EQ(D.parallelWorkersUsed(), 0u) << Name;
  }
  RecordingTool Spread(ToolAffinity::AnyWorker);
  EventDispatcher D;
  D.addTool(&Spread);
  D.start(nullptr);
  EXPECT_FALSE(D.parallelActive());
  for (const EventRecord &E : makeTrace(1000, 30))
    D.enqueue(E);
  D.finish();
  ASSERT_EQ(Spread.threads().size(), 1u);
  EXPECT_EQ(*Spread.threads().begin(), std::this_thread::get_id());
}

TEST(ParallelFanout, TwoOrMoreEligibleToolsEngageFanout) {
  // Workers = min(schedulable units, hardware concurrency); the
  // CoScheduled profiler family counts as one unit.
  struct Case {
    std::vector<std::string> Tools;
    unsigned Units;
  };
  const Case Cases[] = {
      {{"aprof-trms", "aprof-rms"}, 1},
      {{"memcheck", "callgrind"}, 2},
      {{"aprof-trms", "aprof-rms", "memcheck", "callgrind"}, 3},
      {{"nulgrind", "memcheck", "callgrind", "helgrind", "drd", "cct"}, 6},
  };
  for (const Case &C : Cases) {
    std::vector<std::unique_ptr<Tool>> Tools;
    EventDispatcher D;
    for (const std::string &Name : C.Tools) {
      Tools.push_back(makeTool(Name));
      D.addTool(Tools.back().get());
    }
    D.start(nullptr);
    EXPECT_TRUE(D.parallelActive()) << C.Tools.size() << " tools";
    EXPECT_EQ(D.parallelWorkersUsed(), expectedWorkers(C.Units))
        << C.Tools.size() << " tools";
    D.finish();
    EXPECT_FALSE(D.parallelActive());
  }
}

TEST(ParallelFanout, StaysSerialWithOnlyDispatchThreadTools) {
  RecordingTool A(ToolAffinity::DispatchThread);
  RecordingTool B(ToolAffinity::DispatchThread);
  EventDispatcher D;
  D.addTool(&A);
  D.addTool(&B);
  D.start(nullptr);
  EXPECT_FALSE(D.parallelActive());
  EXPECT_EQ(D.parallelWorkersUsed(), 0u);
  for (const EventRecord &E : makeTrace(1000, 36))
    D.enqueue(E);
  D.finish();
  for (const RecordingTool *T : {&A, &B}) {
    ASSERT_EQ(T->threads().size(), 1u);
    EXPECT_EQ(*T->threads().begin(), std::this_thread::get_id());
  }
}

//===----------------------------------------------------------------------===//
// Multi-tool == each tool alone, observationally
//===----------------------------------------------------------------------===//

TEST(ParallelFanout, ReportsMatchEachToolAloneOnSyntheticTrace) {
  const std::vector<std::string> ToolNames = {"aprof-trms", "aprof-rms",
                                              "memcheck", "callgrind"};
  std::vector<EventRecord> Events = makeTrace(20000, 31);
  unsigned Workers = 0;
  std::vector<std::string> Together = reportsForRun(Events, ToolNames,
                                                    &Workers);
  EXPECT_GT(Workers, 0u);
  ASSERT_EQ(Together.size(), ToolNames.size());
  for (size_t I = 0; I != ToolNames.size(); ++I) {
    unsigned AloneWorkers = 1;
    std::vector<std::string> Alone =
        reportsForRun(Events, {ToolNames[I]}, &AloneWorkers);
    EXPECT_EQ(AloneWorkers, 0u);
    EXPECT_EQ(Together[I], Alone[0]) << ToolNames[I];
  }
}

TEST(ParallelFanout, ReportsMatchEachToolAloneOnCompiledWorkload) {
  const WorkloadInfo *W = findWorkload("md");
  ASSERT_NE(W, nullptr);
  WorkloadParams Params;
  Params.Threads = 2;
  Params.Size = 12;
  std::optional<Program> Prog = compileWorkload(*W, Params);
  ASSERT_TRUE(Prog.has_value());

  auto RunWith = [&](const std::vector<std::string> &ToolNames) {
    std::vector<std::unique_ptr<Tool>> Tools;
    for (const std::string &Name : ToolNames)
      Tools.push_back(makeTool(Name));
    EventDispatcher Dispatcher;
    for (auto &T : Tools)
      Dispatcher.addTool(T.get());
    Machine M(*Prog, &Dispatcher, MachineOptions());
    RunResult R = M.run();
    EXPECT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(Dispatcher.parallelWorkersUsed() > 0, ToolNames.size() > 1);
    std::vector<std::string> Reports;
    for (auto &T : Tools)
      Reports.push_back(renderToolReport(*T, &Prog->Symbols));
    return Reports;
  };

  const std::vector<std::string> ToolNames = {"aprof-trms", "aprof-rms",
                                              "memcheck", "callgrind"};
  std::vector<std::string> Together = RunWith(ToolNames);
  ASSERT_EQ(Together.size(), ToolNames.size());
  for (size_t I = 0; I != ToolNames.size(); ++I)
    EXPECT_EQ(Together[I], RunWith({ToolNames[I]})[0]) << ToolNames[I];
}

TEST(ParallelFanout, CallbackOrderAndContentMatchSerial) {
  std::vector<EventRecord> Events = makeTrace(8000, 32);
  RecordingTool Serial(ToolAffinity::AnyWorker);
  {
    EventDispatcher D;
    D.addTool(&Serial);
    D.start(nullptr);
    for (const EventRecord &E : Events)
      D.enqueue(E);
    D.finish();
  }
  RecordingTool Parallel(ToolAffinity::AnyWorker);
  NulTool Partner; // a second eligible tool, so fan-out engages
  {
    EventDispatcher D;
    D.addTool(&Parallel);
    D.addTool(&Partner);
    D.start(nullptr);
    EXPECT_TRUE(D.parallelActive());
    for (const EventRecord &E : Events)
      D.enqueue(E);
    D.finish();
    EXPECT_FALSE(D.parallelActive());
  }
  EXPECT_EQ(Parallel.entries(), Serial.entries());
}

TEST(ParallelFanout, DispatchPathMatchesSerial) {
  // dispatch() delivers per-event; in parallel mode each event becomes
  // its own published batch. Content and order must not change.
  std::vector<EventRecord> Events = makeTrace(2000, 33);
  auto RunOnce = [&](bool WithPartner) {
    RecordingTool T(ToolAffinity::AnyWorker);
    NulTool Partner;
    EventDispatcher D;
    D.addTool(&T);
    if (WithPartner)
      D.addTool(&Partner);
    D.start(nullptr);
    EXPECT_EQ(D.parallelActive(), WithPartner);
    for (const EventRecord &E : Events)
      D.dispatch(E);
    D.finish();
    return T.entries();
  };
  EXPECT_EQ(RunOnce(true), RunOnce(false));
}

//===----------------------------------------------------------------------===//
// Thread placement
//===----------------------------------------------------------------------===//

TEST(ParallelFanout, DispatchThreadToolStaysOnEnqueueThread) {
  RecordingTool Pinned(ToolAffinity::DispatchThread);
  NulTool Spread; // AnyWorker, so parallel mode actually engages
  EventDispatcher D;
  D.addTool(&Pinned);
  D.addTool(&Spread);
  D.start(nullptr);
  ASSERT_TRUE(D.parallelActive());
  for (const EventRecord &E : makeTrace(4000, 34))
    D.enqueue(E);
  D.finish();
  ASSERT_EQ(Pinned.threads().size(), 1u);
  EXPECT_EQ(*Pinned.threads().begin(), std::this_thread::get_id());
}

TEST(ParallelFanout, AnyWorkerToolRunsOnOneWorkerThread) {
  RecordingTool Spread(ToolAffinity::AnyWorker);
  NulTool Partner;
  EventDispatcher D;
  D.addTool(&Spread);
  D.addTool(&Partner);
  D.start(nullptr);
  ASSERT_TRUE(D.parallelActive());
  for (const EventRecord &E : makeTrace(4000, 35))
    D.enqueue(E);
  D.finish();
  // One fixed consumer thread, and never the enqueue thread.
  ASSERT_EQ(Spread.threads().size(), 1u);
  EXPECT_NE(*Spread.threads().begin(), std::this_thread::get_id());
}

//===----------------------------------------------------------------------===//
// Join, counters, backpressure
//===----------------------------------------------------------------------===//

TEST(ParallelFanout, CompactionIdentityHoldsAfterFinish) {
  std::vector<EventRecord> Events = makeTrace(12000, 37);
  NulTool A;
  auto B = makeTool("memcheck");
  EventDispatcher D;
  D.addTool(&A);
  D.addTool(B.get());
  D.start(nullptr);
  ASSERT_TRUE(D.parallelActive());
  for (const EventRecord &E : Events)
    D.enqueue(E);
  D.finish();
  EXPECT_EQ(D.enqueuedEvents(),
            D.deliveredEvents() + D.accessMerges() + D.bbFolds());
  EXPECT_EQ(D.enqueuedEvents(), Events.size());
}

TEST(ParallelFanout, BackpressureBoundsThePublisher) {
  SlowTool Slow;
  NulTool Partner;
  EventDispatcher D;
  D.addTool(&Slow);
  D.addTool(&Partner);
  D.start(nullptr);
  ASSERT_TRUE(D.parallelActive());
  // Dense, non-mergeable reads fill a batch every ~256 events; two laps
  // of the fixed ring, and the slow consumer drains far behind the
  // publisher's pace.
  const uint64_t NumReads =
      2 * EventDispatcher::RingSlots * EventDispatcher::BatchCapacity;
  for (uint64_t I = 0; I != NumReads; ++I)
    D.enqueue(EventRecord::read(0, I + 1, 8 * I));
  D.finish();
  EXPECT_GT(D.backpressureBlocks(), 0u);
  EXPECT_LE(D.maxQueueDepth(), EventDispatcher::RingSlots);
  // The join delivered everything despite the blocking.
  EXPECT_EQ(Slow.reads(), NumReads);
}

//===----------------------------------------------------------------------===//
// SpscQueue: the per-worker channel under the parallel replay engine
//===----------------------------------------------------------------------===//

TEST(SpscQueue, PreservesFifoOrderAcrossThreads) {
  SpscQueue<uint64_t> Queue(1024);
  constexpr uint64_t Count = 200000;
  std::thread Producer([&Queue] {
    for (uint64_t I = 0; I != Count; ++I)
      Queue.push(I);
  });
  uint64_t Expected = 0;
  uint64_t Batch[64];
  while (Expected != Count) {
    size_t Got = Queue.popBatch(Batch, 64);
    ASSERT_GT(Got, 0u);
    for (size_t I = 0; I != Got; ++I)
      ASSERT_EQ(Batch[I], Expected++);
  }
  Producer.join();
}

TEST(SpscQueue, BackpressureBoundsDepthToCapacity) {
  // A deliberately tiny queue: the producer must block rather than
  // overwrite, so the observed high-water mark never exceeds capacity.
  SpscQueue<uint64_t> Queue(8);
  ASSERT_GE(Queue.capacity(), 8u);
  constexpr uint64_t Count = 50000;
  std::thread Producer([&Queue] {
    for (uint64_t I = 0; I != Count; ++I)
      Queue.push(I);
  });
  uint64_t Seen = 0;
  uint64_t Batch[4];
  while (Seen != Count) {
    size_t Got = Queue.popBatch(Batch, 4);
    for (size_t I = 0; I != Got; ++I)
      ASSERT_EQ(Batch[I], Seen++);
  }
  Producer.join();
  EXPECT_LE(Queue.peakDepth(), Queue.capacity());
  EXPECT_GT(Queue.peakDepth(), 0u);
}

TEST(SpscQueue, PopBatchDrainsUpToMax) {
  SpscQueue<int> Queue(64);
  for (int I = 0; I != 10; ++I)
    Queue.push(I);
  int Batch[32];
  size_t Got = Queue.popBatch(Batch, 32);
  EXPECT_EQ(Got, 10u);
  for (int I = 0; I != 10; ++I)
    EXPECT_EQ(Batch[I], I);
}

} // namespace
