//===- tests/VmMachineTest.cpp - Interpreter and scheduler tests ---------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "vm/Machine.h"

#include "TestUtil.h"
#include "instr/Dispatcher.h"
#include "support/Format.h"
#include "tools/NulTool.h"
#include "vm/Compiler.h"
#include "vm/Optimizer.h"

#include <gtest/gtest.h>

#include <array>

using namespace isp;

namespace {

RunResult run(const std::string &Source,
              MachineOptions Opts = MachineOptions()) {
  return compileAndRun(Source, nullptr, Opts);
}

std::string runOutput(const std::string &Source) {
  RunResult R = run(Source);
  EXPECT_TRUE(R.Ok) << R.Error;
  return R.Output;
}

//===----------------------------------------------------------------------===//
// Sequential semantics
//===----------------------------------------------------------------------===//

TEST(Machine, ArithmeticAndPrecedence) {
  EXPECT_EQ(runOutput("fn main() { print(2 + 3 * 4); return 0; }"), "14\n");
  EXPECT_EQ(runOutput("fn main() { print((2 + 3) * 4); return 0; }"),
            "20\n");
  EXPECT_EQ(runOutput("fn main() { print(7 / 2); print(7 % 2); "
                      "print(-7 / 2); return 0; }"),
            "3\n1\n-3\n");
  EXPECT_EQ(runOutput("fn main() { print(1 < 2); print(2 <= 1); "
                      "print(3 == 3); print(3 != 3); return 0; }"),
            "1\n0\n1\n0\n");
}

TEST(Machine, ShortCircuitEvaluation) {
  // The right operand must not run when the left decides: a division by
  // zero there would kill the program.
  EXPECT_EQ(runOutput("fn main() { print(0 != 0 && 1 / 0 > 0); "
                      "print(1 == 1 || 1 / 0 > 0); return 0; }"),
            "0\n1\n");
  EXPECT_EQ(runOutput("fn main() { print(2 && 3); print(0 || 5); "
                      "print(!0); print(!7); return 0; }"),
            "1\n1\n1\n0\n");
}

TEST(Machine, ControlFlow) {
  EXPECT_EQ(runOutput(R"(
    fn main() {
      var sum = 0;
      for (var i = 1; i <= 10; i = i + 1) { sum = sum + i; }
      var j = 10;
      while (j > 0) { sum = sum + 1; j = j - 1; }
      if (sum == 65) { print(sum); } else { print(0 - sum); }
      return 0;
    })"),
            "65\n");
}

TEST(Machine, FunctionsAndRecursion) {
  EXPECT_EQ(runOutput(R"(
    fn fib(n) {
      if (n < 2) { return n; }
      return fib(n - 1) + fib(n - 2);
    }
    fn main() { print(fib(15)); return 0; })"),
            "610\n");
}

TEST(Machine, ArraysLocalAndGlobal) {
  EXPECT_EQ(runOutput(R"(
    var g[4];
    fn main() {
      var a[3];
      a[0] = 5; a[1] = 6; a[2] = a[0] + a[1];
      g[3] = a[2] * 2;
      print(g[3]);
      print(g[0]); // zero-initialized globals
      return 0;
    })"),
            "22\n0\n");
}

TEST(Machine, ArrayArgumentsAreAddresses) {
  EXPECT_EQ(runOutput(R"(
    fn fill(buf, n) {
      var i = 0;
      while (i < n) { buf[i] = i * i; i = i + 1; }
      return 0;
    }
    fn main() {
      var a[5];
      fill(a, 5);
      print(a[4]);
      return 0;
    })"),
            "16\n");
}

TEST(Machine, HeapAllocAndRawAccess) {
  EXPECT_EQ(runOutput(R"(
    fn main() {
      var p = alloc(10);
      store(p + 3, 77);
      print(load(p + 3));
      free(p);
      return 0;
    })"),
            "77\n");
}

TEST(Machine, GlobalInitializers) {
  EXPECT_EQ(runOutput("var a = 7; var b = -3; fn main() { print(a + b); "
                      "return 0; }"),
            "4\n");
}

TEST(Machine, ExitCodeFromMain) {
  RunResult R = run("fn main() { return 42; }");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.ExitCode, 42);
}

//===----------------------------------------------------------------------===//
// Runtime errors
//===----------------------------------------------------------------------===//

TEST(Machine, DivisionByZeroFails) {
  RunResult R = run("fn main() { var x = 0; return 1 / x; }");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("division by zero"), std::string::npos);
}

TEST(Machine, IntegerArithmeticWraps) {
  // 64-bit two's complement, executed and constant-folded alike; the
  // one trapping division, INT64_MIN / -1, wraps instead.
  const char *Source = R"(
    fn main() {
      var min = 0 - 9223372036854775807 - 1;
      var m1 = 0 - 1;
      print(9223372036854775807 + 1 == min);
      print(min * m1 == min);
      print(0 - min == min);
      print(min / m1 == min);
      print(min % m1);
      print((0 - 9223372036854775807 - 1) / (0 - 1) == min);
      print((0 - 9223372036854775807 - 1) % (0 - 1));
      return 0;
    })";
  EXPECT_EQ(runOutput(Source), "1\n1\n1\n1\n0\n1\n0\n");
  DiagnosticEngine Diags;
  std::optional<Program> Prog = compileProgram(Source, Diags);
  ASSERT_TRUE(Prog.has_value()) << Diags.render();
  EXPECT_GT(optimizeProgram(*Prog).ConstantsFolded, 0u);
  Machine M(*Prog, nullptr);
  RunResult R = M.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, "1\n1\n1\n1\n0\n1\n0\n");
}

TEST(Machine, WildAddressFails) {
  RunResult R = run("fn main() { return load(123456789); }");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("invalid memory access"), std::string::npos);
}

TEST(Machine, StackOverflowFails) {
  RunResult R = run("fn inf(n) { return inf(n + 1); } "
                    "fn main() { return inf(0); }");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("stack overflow"), std::string::npos);
}

TEST(Machine, InstructionBudgetStopsInfiniteLoops) {
  MachineOptions Opts;
  Opts.MaxInstructions = 10000;
  RunResult R = run("fn main() { for (;;) { } return 0; }", Opts);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("budget"), std::string::npos);
}

TEST(Machine, DeadlockIsDetected) {
  RunResult R = run(R"(
    fn main() {
      var s = sem_create(0);
      sem_wait(s);
      return 0;
    })");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("deadlock"), std::string::npos);
}

TEST(Machine, CompileErrorsSurfaceInResult) {
  RunResult R = run("fn main() { return undefined_thing; }");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("compile error"), std::string::npos);
}

TEST(Machine, GlobalArraysMustFitBelowTheHeap) {
  // Globals live in [GlobalBase, HeapBase). An array reaching past
  // HeapBase would compile to cells no load or store can address, so it
  // is a compile error naming the array, not a runtime fault on an
  // in-bounds index.
  RunResult R =
      run("var big[5000000]; fn main() { big[4194300] = 9; return 0; }");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("global array 'big' of 5000000 cells does not fit"),
            std::string::npos)
      << R.Error;

  // The largest array that fits (after its one variable cell) has every
  // cell addressable, the last included; one more cell does not fit.
  uint64_t Fits = HeapBase - GlobalBase - 1;
  auto Source = [](uint64_t Cells) {
    std::string Last = std::to_string(Cells - 1);
    return "var big[" + std::to_string(Cells) + "]; fn main() { big[" +
           Last + "] = 9; print(big[" + Last + "]); return 0; }";
  };
  EXPECT_EQ(runOutput(Source(Fits)), "9\n");
  R = run(Source(Fits + 1));
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("global array 'big'"), std::string::npos) << R.Error;
}

//===----------------------------------------------------------------------===//
// Threads and synchronization
//===----------------------------------------------------------------------===//

TEST(Machine, SpawnJoinReturnsValue) {
  EXPECT_EQ(runOutput(R"(
    fn square(x) { return x * x; }
    fn main() {
      var t1 = spawn square(9);
      var t2 = spawn square(10);
      print(join(t1) + join(t2));
      return 0;
    })"),
            "181\n");
}

TEST(Machine, ManyThreadsShareGlobals) {
  EXPECT_EQ(runOutput(R"(
    var counter;
    var lk;
    fn bump(times) {
      var i = 0;
      while (i < times) {
        lock_acquire(lk);
        counter = counter + 1;
        lock_release(lk);
        i = i + 1;
      }
      return 0;
    }
    fn main() {
      lk = lock_create();
      counter = 0;
      var tids[8];
      var t = 0;
      while (t < 8) { tids[t] = spawn bump(50); t = t + 1; }
      t = 0;
      while (t < 8) { join(tids[t]); t = t + 1; }
      print(counter);
      return 0;
    })"),
            "400\n");
}

TEST(Machine, SemaphoresEnforceAlternation) {
  // Producer-consumer with capacity 1: the consumer must read every
  // value exactly once, in order.
  EXPECT_EQ(runOutput(R"(
    var x;
    var emptySem;
    var fullSem;
    fn producer(n) {
      var i = 1;
      while (i <= n) {
        sem_wait(emptySem);
        x = i;
        sem_post(fullSem);
        i = i + 1;
      }
      return 0;
    }
    fn consumer(n) {
      var sum = 0;
      var i = 0;
      while (i < n) {
        sem_wait(fullSem);
        sum = sum + x;
        sem_post(emptySem);
        i = i + 1;
      }
      return sum;
    }
    fn main() {
      emptySem = sem_create(1);
      fullSem = sem_create(0);
      var p = spawn producer(20);
      var c = spawn consumer(20);
      join(p);
      print(join(c));
      return 0;
    })"),
            "210\n");
}

TEST(Machine, JoinAfterThreadAlreadyFinished) {
  EXPECT_EQ(runOutput(R"(
    fn quick() { return 5; }
    fn main() {
      var t = spawn quick();
      var i = 0;
      while (i < 1000) { i = i + 1; } // let it finish
      print(join(t));
      return 0;
    })"),
            "5\n");
}

TEST(Machine, SchedulerIsDeterministic) {
  const char *Source = R"(
    var acc;
    var lk;
    fn work(id) {
      var i = 0;
      while (i < 30) {
        lock_acquire(lk);
        acc = acc * 2 + id;
        lock_release(lk);
        i = i + 1;
      }
      return 0;
    }
    fn main() {
      lk = lock_create();
      acc = 1;
      var a = spawn work(1);
      var b = spawn work(2);
      join(a); join(b);
      print(acc % 1000000007);
      return 0;
    })";
  std::string First = runOutput(Source);
  std::string Second = runOutput(Source);
  EXPECT_EQ(First, Second);
}

TEST(Machine, SliceLengthChangesInterleavingNotResults) {
  const char *Source = R"(
    var total;
    var lk;
    fn add(n) {
      var i = 0;
      while (i < n) {
        lock_acquire(lk);
        total = total + 1;
        lock_release(lk);
        i = i + 1;
      }
      return 0;
    }
    fn main() {
      lk = lock_create();
      total = 0;
      var a = spawn add(40);
      var b = spawn add(40);
      join(a); join(b);
      print(total);
      return 0;
    })";
  MachineOptions Short;
  Short.SliceLength = 7;
  MachineOptions Long;
  Long.SliceLength = 5000;
  RunResult A = run(Source, Short);
  RunResult B = run(Source, Long);
  ASSERT_TRUE(A.Ok && B.Ok);
  EXPECT_EQ(A.Output, "80\n");
  EXPECT_EQ(B.Output, "80\n");
  EXPECT_GT(A.Stats.ThreadSwitches, B.Stats.ThreadSwitches);
}

//===----------------------------------------------------------------------===//
// Devices and system calls
//===----------------------------------------------------------------------===//

TEST(Machine, SysReadDeliversPreloadedData) {
  DiagnosticEngine Diags;
  auto Prog = compileProgram(R"(
    var buf[4];
    fn main() {
      sysread(1, buf, 4);
      print(buf[0] + buf[1] + buf[2] + buf[3]);
      return 0;
    })",
                             Diags);
  ASSERT_TRUE(Prog.has_value()) << Diags.render();
  Machine M(*Prog, nullptr);
  M.device().preload(1, {10, 20, 30, 40});
  RunResult R = M.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, "100\n");
}

TEST(Machine, SysWriteReachesDevice) {
  DiagnosticEngine Diags;
  auto Prog = compileProgram(R"(
    var buf[3];
    fn main() {
      buf[0] = 7; buf[1] = 8; buf[2] = 9;
      syswrite(2, buf, 3);
      return 0;
    })",
                             Diags);
  ASSERT_TRUE(Prog.has_value());
  Machine M(*Prog, nullptr);
  RunResult R = M.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(M.device().valuesWritten(2), 3u);
  ASSERT_EQ(M.device().writtenTail(2).size(), 3u);
  EXPECT_EQ(M.device().writtenTail(2)[0], 7);
  EXPECT_EQ(M.device().writtenTail(2)[2], 9);
}

TEST(Machine, DeviceStreamsAreDeterministic) {
  const char *Source = R"(
    var buf[8];
    fn main() {
      sysread(5, buf, 8);
      var sum = 0;
      var i = 0;
      while (i < 8) { sum = sum + buf[i]; i = i + 1; }
      print(sum);
      return 0;
    })";
  EXPECT_EQ(runOutput(Source), runOutput(Source));
}

//===----------------------------------------------------------------------===//
// Instrumentation contract
//===----------------------------------------------------------------------===//

TEST(Machine, EventStreamIsWellFormed) {
  const char *Source = R"(
    var buf[4];
    fn helper(x) { return x + buf[0]; }
    fn worker(n) {
      var i = 0;
      var acc = 0;
      while (i < n) { acc = helper(acc); i = i + 1; }
      return acc;
    }
    fn main() {
      sysread(1, buf, 4);
      var t = spawn worker(5);
      var r = worker(3);
      syswrite(2, buf, 2);
      return r + join(t);
    })";
  DiagnosticEngine Diags;
  auto Prog = compileProgram(Source, Diags);
  ASSERT_TRUE(Prog.has_value());
  EventDispatcher Dispatcher;
  WordSink Sink;
  Dispatcher.setRecordSink(&Sink);
  Machine M(*Prog, &Dispatcher);
  RunResult R = M.run();
  ASSERT_TRUE(R.Ok) << R.Error;

  const std::vector<EventRecord> Events = decodeEventStream(Sink.Words);
  ASSERT_FALSE(Events.empty());
  // Times strictly increase; call/return balance per thread; memory ops
  // happen inside activations (except spawn-argument publication).
  uint64_t LastTime = 0;
  std::map<ThreadId, int> Depth;
  uint64_t Reads = 0, Writes = 0, KernelReads = 0, KernelWrites = 0;
  for (const EventRecord &E : Events) {
    EXPECT_GT(E.Time, LastTime);
    LastTime = E.Time;
    switch (E.Kind) {
    case EventKind::Call:
      ++Depth[E.Tid];
      break;
    case EventKind::Return:
      --Depth[E.Tid];
      EXPECT_GE(Depth[E.Tid], 0);
      break;
    case EventKind::Read:
      // The dispatcher coalesces adjacent accesses to consecutive cells,
      // so one event may carry several cells in Arg1; cell totals must
      // still match the machine's counters exactly.
      Reads += E.Arg1;
      EXPECT_GT(Depth[E.Tid], 0);
      break;
    case EventKind::Write:
      Writes += E.Arg1;
      break;
    case EventKind::KernelRead:
      ++KernelReads;
      break;
    case EventKind::KernelWrite:
      ++KernelWrites;
      break;
    default:
      break;
    }
  }
  for (auto &[Tid, D] : Depth)
    EXPECT_EQ(D, 0);
  EXPECT_GT(Reads, 0u);
  EXPECT_GT(Writes, 0u);
  EXPECT_EQ(KernelReads, 1u);  // one syswrite
  EXPECT_EQ(KernelWrites, 1u); // one sysread
  EXPECT_EQ(Reads, R.Stats.MemReads);
  EXPECT_EQ(Writes, R.Stats.MemWrites);
}

TEST(Machine, NativeRunMatchesInstrumentedRun) {
  const char *Source = R"(
    fn main() {
      var acc = 0;
      for (var i = 0; i < 200; i = i + 1) { acc = acc + i * i; }
      print(acc);
      return 0;
    })";
  RunResult Native = compileAndRun(Source, nullptr);
  NulTool Nul;
  EventDispatcher Dispatcher;
  Dispatcher.addTool(&Nul);
  RunResult Instrumented = compileAndRun(Source, &Dispatcher);
  ASSERT_TRUE(Native.Ok && Instrumented.Ok);
  EXPECT_EQ(Native.Output, Instrumented.Output);
  EXPECT_EQ(Native.Stats.Instructions, Instrumented.Stats.Instructions);
  EXPECT_EQ(Native.Stats.BasicBlocks, Instrumented.Stats.BasicBlocks);
  EXPECT_GT(Nul.eventsSeen(), 0u);
}

//===----------------------------------------------------------------------===//
// Golden event streams
//===----------------------------------------------------------------------===//
//
// The interpreter's observable output pinned to fixed values: a digest
// of every recorded stream word, the run statistics and the failure
// diagnostic of a table of guests covering straight-line code, optimizer
// quiet marks, thread interleaving at several slice lengths, a tiny
// batch capacity (flush timing), indirect and builtin accesses, and two
// mid-run failures. Any change to event content, compaction, flush
// timing or accounting shows up here as a mismatch.

const char *StraightLineHeavySource = R"(
  var total;
  var bias;
  fn step(a, b) {
    var x = a * 3 + b;
    var y = x - a;
    var z = x * y + bias;
    total = total + z;
    return z;
  }
  fn main() {
    bias = 7;
    var i = 0;
    var acc = 0;
    while (i < 200) {
      acc = acc + step(i, acc);
      i = i + 1;
    }
    return acc % 255;
  })";

const char *MultiThreadedSource = R"(
  var shared[8];
  var gate;
  fn worker(id, rounds) {
    var i = 0;
    var acc = 0;
    while (i < rounds) {
      var v = shared[id] + i;
      shared[id] = v;
      acc = acc + v * 2 - id;
      i = i + 1;
    }
    return acc;
  }
  fn main() {
    gate = lock_create();
    var a = spawn worker(1, 40);
    var b = spawn worker(2, 55);
    var own = worker(0, 30);
    return (own + join(a) + join(b)) % 1023;
  })";

const char *IndirectAndBuiltinSource = R"(
  var buf[16];
  fn fill(n) {
    var i = 0;
    while (i < n) {
      buf[i] = i * i;
      i = i + 1;
    }
    return i;
  }
  fn main() {
    sysread(1, buf, 8);
    var n = fill(12);
    var p = alloc(6);
    store(p + 1, 42);
    var v = load(p + 1);
    syswrite(2, buf, 4);
    return n + v + buf[3];
  })";

// The divisor reaches zero on the fourth iteration.
const char *DivideByZeroSource = R"(
  fn main() {
    var i = 0;
    var acc = 7;
    while (i < 10) {
      acc = acc + 100 / (3 - i);
      i = i + 1;
    }
    return acc;
  })";

// The second iteration indexes far outside the globals region.
const char *InvalidIndirectSource = R"(
  var buf[4];
  fn main() {
    var i = 0;
    var acc = 0;
    while (i < 100) {
      acc = acc + buf[i * 50];
      i = i + 1;
    }
    return acc;
  })";

/// RunStats in a fixed field order, so a table row can hold them.
constexpr size_t NumGoldenStats = 11;
std::array<uint64_t, NumGoldenStats> goldenStats(const RunStats &S) {
  return {S.Instructions,          S.BasicBlocks,
          S.MemReads,              S.MemWrites,
          S.ThreadsSpawned,        S.ThreadSwitches,
          S.HeapCellsAllocated,    S.GuestMemoryBytes,
          S.QuietEventsSuppressed, S.QuietWindowAborts,
          S.QuietIndirectSuppressed};
}

/// FNV-1a over every recorded word and the guest's printed output.
uint64_t streamDigest(const std::vector<Event> &Words,
                      const std::string &Output) {
  uint64_t H = 0xcbf29ce484222325ull;
  auto Mix = [&H](uint64_t V, unsigned Bytes) {
    for (unsigned I = 0; I != Bytes; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 0x100000001b3ull;
    }
  };
  for (const Event &W : Words) {
    Mix(W.Meta, 4);
    Mix(W.TimeLow, 4);
    Mix(W.Arg, 8);
  }
  for (char C : Output)
    Mix(static_cast<unsigned char>(C), 1);
  return H;
}

struct GoldenRun {
  const char *Name;
  const char *Source;
  bool Optimize;
  uint64_t SliceLength;
  // Expected results.
  const char *Error; ///< "" when the guest succeeds
  int64_t ExitCode;
  uint64_t Words;
  uint64_t Digest;
  std::array<uint64_t, NumGoldenStats> Stats;
};

const GoldenRun GoldenRuns[] = {
    {"straight_line", StraightLineHeavySource, false, 150,
     "", -93, 5410, 0x429ef3e73bcb1a56ull,
     {7817, 403, 3002, 1603, 1, 0, 0, 72, 0, 0, 0}},
    {"quiet_marked", StraightLineHeavySource, true, 150,
     "", -93, 3812, 0xec1cbfe900b9e028ull,
     {7817, 403, 3002, 1603, 1, 0, 0, 72, 1598, 2, 0}},
    {"threads_slice1", MultiThreadedSource, true, 1,
     "", 691, 5329, 0xd68553402070a3ecull,
     {3566, 135, 1637, 516, 3, 3136, 0, 224, 98, 778, 0}},
    {"threads_slice7", MultiThreadedSource, true, 7,
     "", 691, 2641, 0xce6cff6b97b3619cull,
     {3566, 135, 1637, 516, 3, 450, 0, 224, 98, 778, 0}},
    {"threads_slice150", MultiThreadedSource, true, 150,
     "", 691, 1430, 0xbdee98e04a28856bull,
     {3566, 135, 1637, 516, 3, 23, 0, 224, 789, 87, 0}},
    {"indirect_builtin", IndirectAndBuiltinSource, true, 150,
     "", 63, 91, 0xb11cba5011602b76ull,
     {239, 16, 96, 30, 1, 0, 6, 224, 49, 0, 0}},
    {"divide_by_zero", DivideByZeroSource, false, 150,
     "division by zero", 0, 26, 0xc573807c6a3ca080ull,
     {70, 5, 15, 8, 1, 0, 0, 16, 0, 0, 0}},
    {"invalid_indirect", InvalidIndirectSource, false, 150,
     "invalid memory access at address 67", 0, 17, 0xb325497c3ee47859ull,
     {34, 3, 10, 4, 1, 0, 0, 56, 0, 0, 0}},
};

TEST(MachineGolden, EventStreamsMatchPinnedDigests) {
  for (const GoldenRun &G : GoldenRuns) {
    SCOPED_TRACE(G.Name);
    DiagnosticEngine Diags;
    std::optional<Program> Prog = compileProgram(G.Source, Diags);
    ASSERT_TRUE(Prog.has_value()) << Diags.render();
    if (G.Optimize)
      optimizeProgram(*Prog);
    EventDispatcher Dispatcher;
    WordSink Sink;
    Dispatcher.setRecordSink(&Sink);
    MachineOptions Opts;
    Opts.SliceLength = G.SliceLength;
    Machine M(*Prog, &Dispatcher, Opts);
    RunResult R = M.run();
    const std::vector<Event> &Words = Sink.Words;
    uint64_t Digest = streamDigest(Words, R.Output);

    std::array<uint64_t, NumGoldenStats> Stats = goldenStats(R.Stats);
    EXPECT_EQ(R.Ok, G.Error[0] == '\0');
    EXPECT_EQ(R.Error, G.Error);
    EXPECT_EQ(R.ExitCode, G.ExitCode);
    EXPECT_EQ(Words.size(), G.Words);
    EXPECT_EQ(Digest, G.Digest);
    EXPECT_EQ(Stats, G.Stats);
    if (R.Error != G.Error || R.ExitCode != G.ExitCode ||
        Words.size() != G.Words || Digest != G.Digest || Stats != G.Stats) {
      std::string Row = formatString(
          "\"%s\", %lld, %llu, 0x%016llxull, {", R.Error.c_str(),
          static_cast<long long>(R.ExitCode),
          static_cast<unsigned long long>(Words.size()),
          static_cast<unsigned long long>(Digest));
      for (size_t I = 0; I != NumGoldenStats; ++I)
        Row += formatString("%s%llu", I ? ", " : "",
                            static_cast<unsigned long long>(Stats[I]));
      ADD_FAILURE() << "actual row: " << Row << "}";
    }
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// break / continue
//===----------------------------------------------------------------------===//

namespace {

TEST(Machine, BreakLeavesInnermostLoop) {
  EXPECT_EQ(runOutput(R"(
    fn main() {
      var found = -1;
      for (var i = 0; i < 10; i = i + 1) {
        var j = 0;
        while (j < 10) {
          if (i * 10 + j == 37) {
            found = i * 100 + j;
            break;
          }
          j = j + 1;
        }
        if (found >= 0) { break; }
      }
      print(found);
      return 0;
    })"),
            "307\n");
}

TEST(Machine, ContinueSkipsRestOfBody) {
  // Sum of odd numbers below 10 via continue in a while loop.
  EXPECT_EQ(runOutput(R"(
    fn main() {
      var sum = 0;
      var i = 0;
      while (i < 10) {
        i = i + 1;
        if (i % 2 == 0) { continue; }
        sum = sum + i;
      }
      print(sum);
      return 0;
    })"),
            "25\n");
}

TEST(Machine, ContinueInForRunsStepClause) {
  // If continue skipped the step clause this would loop forever (and be
  // stopped by the instruction budget); getting 5 proves it ran.
  EXPECT_EQ(runOutput(R"(
    fn main() {
      var count = 0;
      for (var i = 0; i < 10; i = i + 1) {
        if (i % 2 == 1) { continue; }
        count = count + 1;
      }
      print(count);
      return 0;
    })"),
            "5\n");
}

TEST(Machine, BreakOutsideLoopIsCompileError) {
  RunResult R = run("fn main() { break; return 0; }");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("outside of a loop"), std::string::npos);
  RunResult R2 = run("fn main() { continue; return 0; }");
  EXPECT_FALSE(R2.Ok);
  EXPECT_NE(R2.Error.find("outside of a loop"), std::string::npos);
}

TEST(Machine, BreakForInfiniteLoop) {
  EXPECT_EQ(runOutput(R"(
    fn main() {
      var n = 0;
      for (;;) {
        n = n + 1;
        if (n == 42) { break; }
      }
      print(n);
      return 0;
    })"),
            "42\n");
}

} // namespace

//===----------------------------------------------------------------------===//
// Edge cases
//===----------------------------------------------------------------------===//

namespace {

TEST(MachineEdge, SelfJoinDeadlocks) {
  RunResult R = run("fn main() { return join(thread_id()); }");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("deadlock"), std::string::npos);
}

TEST(MachineEdge, JoinInvalidThreadFails) {
  RunResult R = run("fn main() { return join(99); }");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("invalid thread"), std::string::npos);
}

TEST(MachineEdge, SemaphoreInvalidIdFails) {
  RunResult R = run("fn main() { sem_wait(42); return 0; }");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("invalid semaphore"), std::string::npos);
}

TEST(MachineEdge, ZeroSizedAllocIsHarmless) {
  EXPECT_EQ(runOutput(R"(
    fn main() {
      var p = alloc(0);
      var q = alloc(4);
      store(q, 9);
      print(load(q));
      free(p);
      free(q);
      return 0;
    })"),
            "9\n");
}

TEST(MachineEdge, CrossThreadStackSharingWorks) {
  // A thread passes the address of its own local array to a worker,
  // which fills it — pointers into stacks are first-class.
  EXPECT_EQ(runOutput(R"(
    fn fill(buf, n, v) {
      for (var i = 0; i < n; i = i + 1) { buf[i] = v + i; }
      return 0;
    }
    fn main() {
      var mine[6];
      var t = spawn fill(mine, 6, 100);
      join(t);
      print(mine[0] + mine[5]);
      return 0;
    })"),
            "205\n");
}

TEST(MachineEdge, SpawnStormCompletes) {
  MachineOptions Opts;
  Opts.MaxInstructions = 1u << 24;
  RunResult R = run(R"(
    fn tiny(x) { return x + 1; }
    fn main() {
      var total = 0;
      for (var round = 0; round < 60; round = round + 1) {
        var a = spawn tiny(round);
        var b = spawn tiny(round * 2);
        total = total + join(a) + join(b);
      }
      print(total);
      return 0;
    })",
                    Opts);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Stats.ThreadsSpawned, 121u); // main + 120 workers
}

TEST(MachineEdge, TooManyGuestThreadsFails) {
  // Thread t's stack region starts at StackRegionBase + t *
  // StackRegionStride, so only MaxGuestThreads regions (main included)
  // fit the guest address space: spawning one more is a guest runtime
  // error, like any other, not a process abort.
  const char *Source = R"(
    fn tiny() { return 0; }
    fn main() {
      var i = 0;
      while (i < %d) {
        var t = spawn tiny();
        join(t);
        i = i + 1;
      }
      return 0;
    })";
  RunResult AtLimit = run(formatString(Source, 895));
  ASSERT_TRUE(AtLimit.Ok) << AtLimit.Error;
  EXPECT_EQ(AtLimit.Stats.ThreadsSpawned, MaxGuestThreads);

  RunResult Over = run(formatString(Source, 897));
  EXPECT_FALSE(Over.Ok);
  EXPECT_EQ(Over.Error, "too many guest threads (max 896)");
  EXPECT_EQ(Over.Stats.ThreadsSpawned, MaxGuestThreads);
}

TEST(MachineEdge, ThreadIdBuiltin) {
  EXPECT_EQ(runOutput(R"(
    fn who() { return thread_id(); }
    fn main() {
      var t = spawn who();
      print(thread_id());
      print(join(t));
      return 0;
    })"),
            "0\n1\n");
}

TEST(MachineEdge, NegativeArraySizeFails) {
  RunResult R = run("fn main() { var n = 0 - 4; var a[n]; return 0; }");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("negative local array size"), std::string::npos);
}

TEST(MachineEdge, ModuloOfNegativeOperands) {
  // C-style truncation semantics, pinned.
  EXPECT_EQ(runOutput("fn main() { print(-7 % 3); print(7 % -3); "
                      "return 0; }"),
            "-1\n1\n");
}

} // namespace
