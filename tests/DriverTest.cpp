//===- tests/DriverTest.cpp - isprof CLI integration tests ---------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// End-to-end tests of the isprof command-line driver: each test shells
// out to the real binary (path injected by CMake) against the shipped
// guest example programs and checks exit codes and output fragments.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "trace/TraceStream.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

#ifndef ISPROF_BINARY
#error "ISPROF_BINARY must be defined by the build"
#endif
#ifndef ISPROF_GUEST_DIR
#error "ISPROF_GUEST_DIR must be defined by the build"
#endif

struct CommandResult {
  int ExitCode = -1;
  std::string Output;
};

/// Runs the driver with \p Args, capturing combined stdout+stderr.
CommandResult runDriver(const std::string &Args) {
  std::string OutPath =
      ::testing::TempDir() + "isprof_driver_test_output.txt";
  std::string Command = std::string(ISPROF_BINARY) + " " + Args + " > " +
                        OutPath + " 2>&1";
  int Status = std::system(Command.c_str());
  CommandResult Result;
  Result.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  std::ifstream Stream(OutPath);
  std::ostringstream Buffer;
  Buffer << Stream.rdbuf();
  Result.Output = Buffer.str();
  std::remove(OutPath.c_str());
  return Result;
}

std::string guest(const char *Name) {
  return std::string(ISPROF_GUEST_DIR) + "/" + Name;
}

std::string readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

void writeFileBytes(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

TEST(Driver, ListShowsToolsAndWorkloads) {
  CommandResult R = runDriver("list");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("aprof-trms"), std::string::npos);
  EXPECT_NE(R.Output.find("dbserver"), std::string::npos);
  EXPECT_NE(R.Output.find("producer_consumer"), std::string::npos);
}

TEST(Driver, RunProfilesQuickstart) {
  CommandResult R = runDriver("run " + guest("quickstart.mini"));
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("--- aprof-trms ---"), std::string::npos);
  EXPECT_NE(R.Output.find("insertionSort"), std::string::npos);
  EXPECT_NE(R.Output.find("mergeSort"), std::string::npos);
}

TEST(Driver, RaceDetectorsDisagreeAsDesigned) {
  CommandResult R =
      runDriver("run " + guest("race.mini") + " --tools=helgrind,drd");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  // Both report the racy counter; address 16 is the first global.
  EXPECT_NE(R.Output.find("possible data race"), std::string::npos);
  EXPECT_NE(R.Output.find("empty candidate lockset"), std::string::npos);
}

TEST(Driver, MemcheckFindsPlantedErrors) {
  CommandResult R =
      runDriver("run " + guest("leak.mini") + " --tools=memcheck");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("uninitialized read"), std::string::npos);
  EXPECT_NE(R.Output.find("invalid read"), std::string::npos);
  EXPECT_NE(R.Output.find("leaked"), std::string::npos);
}

TEST(Driver, RecordReplayRoundTrip) {
  std::string TracePath = ::testing::TempDir() + "isprof_driver_trace.strm";
  CommandResult Record = runDriver("run " + guest("stream.mini") +
                                   " --record-stream=" + TracePath);
  EXPECT_EQ(Record.ExitCode, 0) << Record.Output;
  CommandResult Replay =
      runDriver("replay " + TracePath + " --tools=aprof-rms,aprof-trms");
  EXPECT_EQ(Replay.ExitCode, 0) << Replay.Output;
  EXPECT_NE(Replay.Output.find("consumeStream"), std::string::npos);
  std::remove(TracePath.c_str());
}

TEST(Driver, HtmlReportIsWritten) {
  std::string HtmlPath = ::testing::TempDir() + "isprof_driver_report.html";
  CommandResult R = runDriver("run " + guest("quickstart.mini") +
                              " --html=" + HtmlPath);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  std::ifstream Html(HtmlPath);
  ASSERT_TRUE(Html.good());
  std::ostringstream Buffer;
  Buffer << Html.rdbuf();
  EXPECT_NE(Buffer.str().find("<svg"), std::string::npos);
  std::remove(HtmlPath.c_str());
}

TEST(Driver, CheckAndDisasm) {
  CommandResult Check = runDriver("check " + guest("stream.mini"));
  EXPECT_EQ(Check.ExitCode, 0);
  EXPECT_NE(Check.Output.find("ok ("), std::string::npos);

  CommandResult Disasm = runDriver("disasm " + guest("stream.mini"));
  EXPECT_EQ(Disasm.ExitCode, 0);
  EXPECT_NE(Disasm.Output.find("fn consumeStream"), std::string::npos);
  EXPECT_NE(Disasm.Output.find("call_builtin   sysread"),
            std::string::npos);
}

TEST(Driver, VerifyBytecodeAcceptsShippedExamples) {
  for (const char *Name : {"quickstart.mini", "race.mini", "locked.mini",
                           "leak.mini", "stream.mini"}) {
    CommandResult R =
        runDriver("check " + guest(Name) + " --verify-bytecode");
    EXPECT_EQ(R.ExitCode, 0) << Name << "\n" << R.Output;
    EXPECT_NE(R.Output.find("bytecode verified"), std::string::npos)
        << Name;
    // Optimized bytecode must verify too (quiet marks included).
    CommandResult Opt = runDriver("check " + guest(Name) +
                                  " --verify-bytecode --optimize");
    EXPECT_EQ(Opt.ExitCode, 0) << Name << "\n" << Opt.Output;
  }
}

TEST(Driver, LintFlagsRaceAndStaysSilentOnLockedExample) {
  // The static lint agrees with the dynamic drd tool on the shipped
  // pair: race.mini's unsynchronized counter (the first global, address
  // 16) is flagged; the lock-disciplined locked.mini is clean.
  CommandResult Racy = runDriver("check " + guest("race.mini") + " --lint");
  EXPECT_EQ(Racy.ExitCode, 0) << Racy.Output;
  EXPECT_NE(Racy.Output.find("lint: 1 location(s) with empty candidate "
                             "lockset"),
            std::string::npos)
      << Racy.Output;
  EXPECT_NE(Racy.Output.find("possible race at address 16"),
            std::string::npos);

  CommandResult Clean =
      runDriver("check " + guest("locked.mini") + " --lint");
  EXPECT_EQ(Clean.ExitCode, 0) << Clean.Output;
  EXPECT_NE(Clean.Output.find("lint: 0 location(s) with empty candidate "
                              "lockset"),
            std::string::npos)
      << Clean.Output;
  EXPECT_EQ(Clean.Output.find("possible race"), std::string::npos);
}

TEST(Driver, LintRunsUnderRunCommandToo) {
  CommandResult R = runDriver("run " + guest("race.mini") +
                              " --lint --tools=drd");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  // Static prediction and dynamic confirmation in one invocation.
  EXPECT_NE(R.Output.find("lint: 1 location(s)"), std::string::npos);
  EXPECT_NE(R.Output.find("drd: 1 location(s)"), std::string::npos);
}

TEST(Driver, BoundsLintFlagsSeededExampleAndStaysCleanElsewhere) {
  // The seeded example's store index is rand(4) + 6 on a 4-cell array:
  // definitely out of bounds, but only the value-range lint can say so
  // (the verifier needs a single foldable constant). Exit stays 0 —
  // the lint reports, `check` still succeeds.
  CommandResult Oob =
      runDriver("check " + guest("oob.mini") + " --lint-bounds");
  EXPECT_EQ(Oob.ExitCode, 0) << Oob.Output;
  EXPECT_NE(Oob.Output.find("bounds lint: 1 warning(s)"),
            std::string::npos)
      << Oob.Output;
  EXPECT_NE(Oob.Output.find(
                "store index [6,9] is out of bounds for array 'a'"),
            std::string::npos)
      << Oob.Output;

  for (const char *Name : {"locked.mini", "joined.mini"}) {
    CommandResult Clean =
        runDriver("check " + guest(Name) + " --lint-bounds");
    EXPECT_EQ(Clean.ExitCode, 0) << Name << Clean.Output;
    EXPECT_NE(Clean.Output.find("bounds lint: 0 warning(s)"),
              std::string::npos)
        << Name << Clean.Output;
  }
}

TEST(Driver, GrowthCheckAddsAgreementColumns) {
  // --growth-check cross-checks each routine's fitted alpha against the
  // static loop-nest degree: quicksort-shaped code agrees, and routines
  // without a valid fit show "-" rather than a spurious verdict.
  CommandResult R = runDriver("run " + guest("quickstart.mini") +
                              " --growth-check --tools=aprof-rms");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("static  agree"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("O(n^2)"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("yes"), std::string::npos) << R.Output;

  // The workload command grows the same columns.
  CommandResult W = runDriver(
      "workload producer_consumer --size=32 --growth-check");
  EXPECT_EQ(W.ExitCode, 0) << W.Output;
  EXPECT_NE(W.Output.find("static  agree"), std::string::npos) << W.Output;
}

TEST(Driver, AnnotateRangesDisassembly) {
  CommandResult Plain = runDriver("disasm " + guest("indexed.mini"));
  EXPECT_EQ(Plain.ExitCode, 0) << Plain.Output;
  EXPECT_EQ(Plain.Output.find("; range="), std::string::npos)
      << Plain.Output;

  CommandResult Notes =
      runDriver("disasm " + guest("indexed.mini") + " --annotate-ranges");
  EXPECT_EQ(Notes.ExitCode, 0) << Notes.Output;
  EXPECT_NE(Notes.Output.find("; range=[4,4] noescape cells=4"),
            std::string::npos)
      << Notes.Output;
  EXPECT_NE(Notes.Output.find("; range=[0,3]"), std::string::npos)
      << Notes.Output;
}

TEST(Driver, WorkloadCommand) {
  CommandResult R = runDriver("workload producer_consumer --size=32");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("consumer"), std::string::npos);
}

TEST(Driver, OversizedGlobalsAreACompileErrorNotAnAbort) {
  // A valid --size so large that md's arrays overflow the globals region
  // fails to compile, naming the array, and exits 1.
  CommandResult R = runDriver("workload md --size=9223372036854775807");
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("failed to compile"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("global array 'pos'"), std::string::npos)
      << R.Output;

  std::string Path = ::testing::TempDir() + "isprof_driver_big.mini";
  writeFileBytes(Path,
                 "var big[5000000];\nfn main() { big[4194300] = 9; }\n");
  R = runDriver("run " + Path);
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("global array 'big' of 5000000 cells does not fit"),
            std::string::npos)
      << R.Output;
  std::remove(Path.c_str());
}

/// The "--- Name ---" report section of \p Output, up to the next
/// section header (or the end).
std::string reportSection(const std::string &Output, const std::string &Name) {
  size_t At = Output.find("--- " + Name + " ---\n");
  if (At == std::string::npos)
    return "";
  size_t End = Output.find("\n--- ", At + 1);
  return Output.substr(At, End == std::string::npos ? End : End + 1 - At);
}

TEST(Driver, MultiToolReportsMatchEachToolAlone) {
  // Two or more tools fan out to worker threads on their own; each
  // tool's report must still be the one it produces running alone
  // (serially).
  const std::vector<std::string> Names = {"aprof-trms", "aprof-rms",
                                          "memcheck", "callgrind"};
  std::string StatsPath = ::testing::TempDir() + "isprof_fanout_stats.json";
  std::string Args = "run " + guest("quickstart.mini");
  CommandResult Multi =
      runDriver(Args + " --tools=aprof-trms,aprof-rms,memcheck,callgrind"
                       " --stats=json --stats-out=" +
                StatsPath);
  ASSERT_EQ(Multi.ExitCode, 0) << Multi.Output;
  for (const std::string &Name : Names) {
    CommandResult Alone = runDriver(Args + " --tools=" + Name);
    ASSERT_EQ(Alone.ExitCode, 0) << Alone.Output;
    std::string Expected = reportSection(Alone.Output, Name);
    ASSERT_FALSE(Expected.empty()) << Alone.Output;
    EXPECT_EQ(reportSection(Multi.Output, Name), Expected) << Name;
  }
  // The four-tool run really went through the workers.
  std::string Stats = readFileBytes(StatsPath);
  EXPECT_NE(Stats.find("\"dispatcher.parallel.workers\""), std::string::npos)
      << Stats;
  std::remove(StatsPath.c_str());
}

TEST(Driver, IntegerOptionsRejectMalformedValues) {
  // Unchecked, these would run a guest with a garbage setting: a spin
  // at --slice=0, SIGFPE at --threads=0, bad_alloc at --threads=-2,
  // seed 0 for --seed=abc. The parser refuses them before any guest
  // runs: exit 2, a message naming the option, and no workload banner.
  struct BadValue {
    const char *Args;
    const char *Option;
  };
  const BadValue Cases[] = {
      {"--size=8 --slice=0", "--slice"},  {"--threads=0", "--threads"},
      {"--threads=-2", "--threads"},      {"--seed=abc", "--seed"},
      {"--size=-1", "--size"},            {"--size=12abc", "--size"},
      {"--slice=5k", "--slice"},          {"--threads=100000", "--threads"},
      {"--seed=99999999999999999999", "--seed"},
  };
  for (const BadValue &C : Cases) {
    CommandResult R = runDriver(std::string("workload md ") + C.Args);
    EXPECT_EQ(R.ExitCode, 2) << C.Args << ": " << R.Output;
    EXPECT_NE(R.Output.find(std::string("invalid ") + C.Option + " value"),
              std::string::npos)
        << C.Args << ": " << R.Output;
    EXPECT_EQ(R.Output.find("[md:"), std::string::npos)
        << C.Args << " started a guest: " << R.Output;
  }
}

TEST(Driver, StreamRecordReplayRoundTrip) {
  // Chunked-stream recording must replay to the byte-identical profile
  // a direct run produces (the report sections; the run/replay banners
  // around them legitimately differ).
  auto Section = [](const std::string &Output) {
    size_t At = Output.find("--- aprof-trms ---");
    EXPECT_NE(At, std::string::npos) << Output;
    return At == std::string::npos ? std::string() : Output.substr(At);
  };
  std::string StreamPath = ::testing::TempDir() + "isprof_driver_stream.strm";
  std::string Args = "run " + guest("stream.mini") + " --tools=aprof-trms";
  CommandResult Direct = runDriver(Args);
  ASSERT_EQ(Direct.ExitCode, 0) << Direct.Output;
  CommandResult Record = runDriver(Args + " --record-stream=" + StreamPath);
  ASSERT_EQ(Record.ExitCode, 0) << Record.Output;
  EXPECT_NE(Record.Output.find("[stream:"), std::string::npos);
  EXPECT_EQ(Section(Record.Output), Section(Direct.Output));

  CommandResult Replay =
      runDriver("replay " + StreamPath + " --tools=aprof-trms");
  ASSERT_EQ(Replay.ExitCode, 0) << Replay.Output;
  EXPECT_NE(Replay.Output.find("[replayed"), std::string::npos);
  EXPECT_EQ(Replay.Output.find("incomplete"), std::string::npos);
  EXPECT_EQ(Section(Replay.Output), Section(Direct.Output));
  std::remove(StreamPath.c_str());
}

TEST(Driver, StreamingFlagsRejectBadValues) {
  std::string Args = "run " + guest("quickstart.mini") +
                     " --record-stream=" + ::testing::TempDir() +
                     "isprof_bad_chunk_bytes.strm";
  for (const char *Flag :
       {" --stream-chunk-bytes=512", " --stream-chunk-bytes=3000",
        " --stream-chunk-bytes=2097152", " --stream-chunk-bytes=bogus"}) {
    CommandResult R = runDriver(Args + Flag);
    EXPECT_EQ(R.ExitCode, 2) << Flag;
    EXPECT_NE(R.Output.find("invalid --stream-chunk-bytes"),
              std::string::npos)
        << Flag << ": " << R.Output;
  }
  // Replaying a corrupt stream (here: a header whose length and
  // checksum are garbage) is a clean diagnostic, not a crash; so is a
  // stream of the previous format, which no reader is kept for.
  std::string BadPath = ::testing::TempDir() + "isprof_bad_stream.strm";
  for (const char *Magic : {"ISPSTM05", "ISPSTM04"}) {
    {
      std::string Bytes = std::string(Magic) + '\0' +
                          "this is not a valid stream tail";
      std::ofstream Bad(BadPath, std::ios::binary);
      Bad.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
    }
    CommandResult R = runDriver("replay " + BadPath + " --tools=aprof-trms");
    EXPECT_EQ(R.ExitCode, 1) << R.Output;
    const char *Why = std::string(Magic) == "ISPSTM05" ? "checksum mismatch"
                                                       : "bad magic";
    EXPECT_NE(R.Output.find(Why), std::string::npos) << Magic << R.Output;
  }
  std::remove(BadPath.c_str());
}

TEST(Driver, ReplayStreamErrorNamesChunk) {
  // A decode failure mid-stream names the failing chunk.
  std::vector<isp::EventRecord> Events;
  uint64_t Time = 1;
  Events.push_back(isp::EventRecord::threadStart(0, Time++, 0));
  Events.push_back(isp::EventRecord::call(0, Time++, 1));
  for (unsigned I = 0; I != 400; ++I) {
    Events.push_back(isp::EventRecord::write(0, Time++, I, 1));
    Events.push_back(isp::EventRecord::read(0, Time++, I, 1));
  }
  Events.push_back(isp::EventRecord::ret(0, Time++, 1, 0));
  Events.push_back(isp::EventRecord::threadEnd(0, Time++));
  std::string Path = ::testing::TempDir() + "isprof_driver_badchunk.strm";
  isp::TraceStreamOptions Opts;
  Opts.ChunkBytes = 256;
  isp::TraceStreamWriter Writer;
  ASSERT_TRUE(Writer.open(Path, {{1, "work"}}, Opts)) << Writer.error();
  for (const isp::EventRecord &E : Events)
    Writer.append(E);
  ASSERT_TRUE(Writer.close()) << Writer.error();

  // Flip a bit in chunk 1's first payload byte: the stream fails early,
  // with most of its chunks still to come.
  std::string Bytes = readFileBytes(Path);
  isp::StreamLayout Layout = isp::streamLayout(Bytes);
  ASSERT_GT(Layout.Chunks.size(), 2u);
  Bytes[Layout.Chunks[1].Payload] ^= 0x40;
  writeFileBytes(Path, Bytes);
  std::string Named = "chunk 1:";

  CommandResult R = runDriver("replay " + Path + " --tools=aprof-trms");
  EXPECT_NE(R.ExitCode, 0);
  EXPECT_NE(R.Output.find(Named), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("payload checksum mismatch"), std::string::npos)
      << R.Output;
  std::remove(Path.c_str());
}

TEST(Driver, ErrorsAreClean) {
  EXPECT_NE(runDriver("run /nonexistent.mini").ExitCode, 0);
  EXPECT_NE(runDriver("frobnicate").ExitCode, 0);
  EXPECT_NE(runDriver("run " + guest("stream.mini") + " --tools=bogus")
                .ExitCode,
            0);
  // A guest compile error must surface the diagnostics.
  std::string BadPath = ::testing::TempDir() + "isprof_bad.mini";
  {
    std::ofstream Bad(BadPath);
    Bad << "fn main() { return nope; }";
  }
  CommandResult R = runDriver("run " + BadPath);
  EXPECT_NE(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("undeclared variable"), std::string::npos);
  std::remove(BadPath.c_str());
  // Spawning past the guest thread limit is a guest runtime error with
  // a diagnostic, not a signal — also with the shadow-memory profiler
  // attached, whose address range the limit protects.
  std::string ThreadsPath = ::testing::TempDir() + "isprof_threads.mini";
  {
    std::ofstream Threads(ThreadsPath);
    Threads << "fn tiny() { return 0; }\n"
               "fn main() {\n"
               "  var i = 0;\n"
               "  while (i < 897) { var t = spawn tiny(); join(t); "
               "i = i + 1; }\n"
               "  return 0;\n"
               "}\n";
  }
  CommandResult Many = runDriver("run " + ThreadsPath + " --tools=aprof-trms");
  EXPECT_EQ(Many.ExitCode, 1) << Many.Output;
  EXPECT_NE(Many.Output.find("too many guest threads (max 896)"),
            std::string::npos)
      << Many.Output;
  std::remove(ThreadsPath.c_str());
}

} // namespace

namespace {

TEST(Driver, DiffDetectsPlantedRegression) {
  std::string Dir = ::testing::TempDir();
  std::string V1 = Dir + "isprof_diff_v1.mini";
  std::string V2 = Dir + "isprof_diff_v2.mini";
  {
    std::ofstream F(V1);
    F << "fn scan(a, n) { var s = 0; for (var i = 0; i < n; i = i + 1) "
         "{ s = s + a[i]; } return s; }\n"
         "fn main() { for (var n = 4; n <= 64; n = n * 2) { var a[n]; "
         "for (var i = 0; i < n; i = i + 1) { a[i] = i; } "
         "print(scan(a, n)); } return 0; }\n";
  }
  {
    std::ofstream F(V2);
    F << "fn scan(a, n) { var s = 0; for (var i = 0; i < n; i = i + 1) "
         "{ for (var j = 0; j < n; j = j + 1) { s = s + a[j]; } } "
         "return s / n; }\n"
         "fn main() { for (var n = 4; n <= 64; n = n * 2) { var a[n]; "
         "for (var i = 0; i < n; i = i + 1) { a[i] = i; } "
         "print(scan(a, n)); } return 0; }\n";
  }
  std::string T1 = Dir + "isprof_diff_v1.strm";
  std::string T2 = Dir + "isprof_diff_v2.strm";
  ASSERT_EQ(runDriver("run " + V1 + " --record-stream=" + T1).ExitCode, 0);
  ASSERT_EQ(runDriver("run " + V2 + " --record-stream=" + T2).ExitCode, 0);

  CommandResult Same = runDriver("diff " + T1 + " " + T1);
  EXPECT_EQ(Same.ExitCode, 0) << Same.Output;

  CommandResult Diff = runDriver("diff " + T1 + " " + T2);
  EXPECT_EQ(Diff.ExitCode, 3) << Diff.Output; // regressions found
  EXPECT_NE(Diff.Output.find("GROWTH REGRESSION"), std::string::npos);
  EXPECT_NE(Diff.Output.find("O(n) -> O(n^2)"), std::string::npos);

  for (const std::string &Path : {V1, V2, T1, T2})
    std::remove(Path.c_str());
}

// --- Fleet collector. ---

/// Records \p Guest as a chunked stream at \p Path; returns success.
bool recordStream(const std::string &Guest, const std::string &Path,
                  const std::string &Extra = "") {
  return runDriver("run " + Guest + " --tools=aprof-trms --record-stream=" +
                   Path + Extra)
             .ExitCode == 0;
}

TEST(Driver, CollectRollsUpExplicitStreams) {
  std::string A = ::testing::TempDir() + "isprof_collect_a.strm";
  std::string B = ::testing::TempDir() + "isprof_collect_b.strm";
  ASSERT_TRUE(recordStream(guest("stream.mini"), A));
  ASSERT_TRUE(recordStream(guest("quickstart.mini"), B));

  CommandResult R = runDriver("collect " + A + " " + B);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find(
                "[collector: 2 stream(s) ingested, 0 incomplete, 0 corrupt"),
            std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("fleet rollup:"), std::string::npos);
  EXPECT_NE(R.Output.find("consumeStream"), std::string::npos);
  EXPECT_NE(R.Output.find("mergeSort"), std::string::npos);

  // --curve drills into one routine's rms profile.
  CommandResult Curve =
      runDriver("collect " + A + " " + B + " --curve=consumeStream");
  EXPECT_EQ(Curve.ExitCode, 0) << Curve.Output;
  EXPECT_NE(Curve.Output.find("curve for 'consumeStream'"),
            std::string::npos)
      << Curve.Output;

  std::remove(A.c_str());
  std::remove(B.c_str());
}

TEST(Driver, CollectGrowthSourceAddsStaticColumn) {
  // --growth-source compiles the named guest, estimates each routine's
  // static growth class, and folds a static/agree column pair into the
  // rollup — the fleet-level side of the cross-check.
  std::string A = ::testing::TempDir() + "isprof_collect_growth.strm";
  ASSERT_TRUE(recordStream(guest("stream.mini"), A));
  CommandResult R = runDriver("collect " + A + " --growth-source=" +
                              guest("stream.mini"));
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("static  agree"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("O(n)"), std::string::npos) << R.Output;
  // A source that fails to compile is a runtime error, not a crash.
  EXPECT_EQ(runDriver("collect " + A + " --growth-source=/nonexistent.mini")
                .ExitCode,
            1);
  std::remove(A.c_str());
}

TEST(Driver, CollectSpoolDirectoryScan) {
  std::string Spool = ::testing::TempDir() + "isprof_collect_spool";
  std::filesystem::create_directories(Spool);
  ASSERT_TRUE(recordStream(guest("stream.mini"), Spool + "/one.strm"));
  ASSERT_TRUE(recordStream(guest("stream.mini"), Spool + "/two.strm"));
  // Non-stream files in the spool are ignored, not errors.
  { std::ofstream Note(Spool + "/notes.txt"); Note << "not a stream"; }

  CommandResult R = runDriver("collect --spool=" + Spool);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find(
                "[collector: 2 stream(s) ingested, 0 incomplete, 0 corrupt"),
            std::string::npos)
      << R.Output;
  std::filesystem::remove_all(Spool);
}

TEST(Driver, CollectDiffOfSelfIsEmpty) {
  std::string A = ::testing::TempDir() + "isprof_collect_self.strm";
  ASSERT_TRUE(recordStream(guest("stream.mini"), A));
  CommandResult R = runDriver("collect --diff " + A + " " + A);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("fleet diff: 0 routine(s) differ"),
            std::string::npos)
      << R.Output;
  std::remove(A.c_str());
}

TEST(Driver, CollectCorruptStreamIsNamedAndIsolated) {
  std::string Good = ::testing::TempDir() + "isprof_collect_good.strm";
  std::string Bad = ::testing::TempDir() + "isprof_collect_bad.strm";
  ASSERT_TRUE(recordStream(guest("stream.mini"), Good));
  ASSERT_TRUE(recordStream(guest("stream.mini"), Bad,
                           " --stream-chunk-bytes=1024"));
  // Flip a bit mid-file in the bad copy; the collector must name the
  // file and the chunk, fail that stream, and still roll up the good
  // one.
  std::string Bytes = readFileBytes(Bad);
  Bytes[Bytes.size() / 2] ^= 0x04;
  writeFileBytes(Bad, Bytes);

  CommandResult R = runDriver("collect " + Good + " " + Bad);
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("isprof: stream " + Bad + ": chunk "),
            std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("1 stream(s) ingested, 0 incomplete, 1 corrupt"),
            std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("consumeStream"), std::string::npos);
  std::remove(Good.c_str());
  std::remove(Bad.c_str());
}

TEST(Driver, TruncatedStreamIsIncompleteNotFailed) {
  // A stream cut mid-chunk, as a writer that died leaves it: replay
  // warns, renders the profile of its complete chunks and exits 0;
  // collect warns, counts it incomplete and merges those chunks; and
  // collect --diff warns, since one side of its diff is then a partial
  // profile.
  std::string Full = ::testing::TempDir() + "isprof_driver_full.strm";
  std::string Cut = ::testing::TempDir() + "isprof_driver_cut.strm";
  ASSERT_TRUE(recordStream(guest("stream.mini"), Full,
                           " --stream-chunk-bytes=1024"));
  std::string Bytes = readFileBytes(Full);
  writeFileBytes(Cut, Bytes.substr(0, Bytes.size() / 2));
  std::string Warning = "isprof: stream " + Cut + " is incomplete: ";

  CommandResult Replay = runDriver("replay " + Cut + " --tools=aprof-trms");
  EXPECT_EQ(Replay.ExitCode, 0) << Replay.Output;
  EXPECT_NE(Replay.Output.find(Warning), std::string::npos) << Replay.Output;
  EXPECT_NE(Replay.Output.find(" complete chunk(s)"), std::string::npos);
  EXPECT_NE(Replay.Output.find("[replayed"), std::string::npos);
  EXPECT_NE(Replay.Output.find("--- aprof-trms ---"), std::string::npos);

  CommandResult Collect = runDriver("collect " + Cut);
  EXPECT_EQ(Collect.ExitCode, 0) << Collect.Output;
  EXPECT_NE(Collect.Output.find(Warning), std::string::npos)
      << Collect.Output;
  EXPECT_NE(Collect.Output.find("[collector: 0 stream(s) ingested, 1 "
                                "incomplete, 0 corrupt"),
            std::string::npos)
      << Collect.Output;
  EXPECT_NE(Collect.Output.find("fleet rollup:"), std::string::npos);

  CommandResult Diff = runDriver("collect --diff " + Full + " " + Cut);
  EXPECT_TRUE(Diff.ExitCode == 0 || Diff.ExitCode == 3) << Diff.Output;
  EXPECT_NE(Diff.Output.find(Warning), std::string::npos) << Diff.Output;
  EXPECT_EQ(Diff.Output.find("isprof: stream " + Full), std::string::npos)
      << Diff.Output;
  EXPECT_NE(Diff.Output.find("fleet diff:"), std::string::npos)
      << Diff.Output;
  std::remove(Full.c_str());
  std::remove(Cut.c_str());
}

TEST(Driver, CollectDiffWarnsWhenASideIsIncomplete) {
  // A diff against a cut stream compares a partial profile; the user
  // must be told which side it is, and it is not an error.
  std::string Full = ::testing::TempDir() + "isprof_cdiff_full.strm";
  std::string Cut = ::testing::TempDir() + "isprof_cdiff_cut.strm";
  ASSERT_TRUE(recordStream(guest("stream.mini"), Full,
                           " --stream-chunk-bytes=1024"));
  std::string Bytes = readFileBytes(Full);
  writeFileBytes(Cut, Bytes.substr(0, Bytes.size() / 2));

  CommandResult R = runDriver("collect --diff " + Full + " " + Cut);
  EXPECT_TRUE(R.ExitCode == 0 || R.ExitCode == 3) << R.Output;
  EXPECT_NE(R.Output.find("isprof: stream " + Cut + " is incomplete: "),
            std::string::npos)
      << R.Output;
  EXPECT_EQ(R.Output.find("isprof: stream " + Full), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("fleet diff:"), std::string::npos) << R.Output;
  std::remove(Full.c_str());
  std::remove(Cut.c_str());
}

TEST(Driver, CollectWatchIngestsAStreamBeingWrittenExactlyOnce) {
  // A writer appends chunks while `collect --spool --watch` polls. The
  // collector sees the stream incomplete on many ticks and must retry it
  // each time rather than drop it; once it is complete it is ingested,
  // once and in full — the rollup equals a one-shot collect of the
  // finished file.
  std::string Spool = ::testing::TempDir() + "isprof_collect_watch";
  std::filesystem::remove_all(Spool);
  std::filesystem::create_directories(Spool);
  std::string Path = Spool + "/live.strm";

  isp::TraceStreamWriter Writer;
  isp::TraceStreamOptions Opts;
  Opts.ChunkBytes = 1024;
  ASSERT_TRUE(Writer.open(Path, {{0, "root"}, {1, "work"}}, Opts))
      << Writer.error();
  uint64_t Time = 1;
  auto emit = [&](isp::EventRecord E) { Writer.append(E); };
  emit(isp::EventRecord::threadStart(0, Time++, 0));
  emit(isp::EventRecord::call(0, Time++, 0));
  auto burst = [&](unsigned Calls) {
    for (unsigned I = 0; I != Calls; ++I) {
      emit(isp::EventRecord::call(0, Time++, 1));
      for (unsigned A = 0; A != 20 + I % 7; ++A) {
        emit(isp::EventRecord::basicBlock(0, Time++, 1));
        emit(isp::EventRecord::read(0, Time++, 100 + A, 1));
      }
      emit(isp::EventRecord::ret(0, Time++, 1, 0));
    }
  };
  burst(20); // several sealed chunks before the collector starts

  CommandResult Watched;
  std::thread Collector([&] {
    Watched = runDriver("collect --spool=" + Spool + " --watch=10");
  });
  for (int Round = 0; Round != 8; ++Round) {
    burst(10);
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  }
  emit(isp::EventRecord::ret(0, Time++, 0, 0));
  emit(isp::EventRecord::threadEnd(0, Time++));
  ASSERT_TRUE(Writer.close()) << Writer.error();
  uint64_t Events = Writer.eventsWritten();
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  { std::ofstream Stop(Spool + "/collector.stop"); }
  Collector.join();

  EXPECT_EQ(Watched.ExitCode, 0) << Watched.Output;
  std::string Totals = "[collector: 1 stream(s) ingested, 0 incomplete, 0 "
                       "corrupt, ";
  EXPECT_NE(Watched.Output.find(Totals), std::string::npos)
      << Watched.Output;
  auto WithCommas = [](uint64_t V) {
    std::string Digits = std::to_string(V), Out;
    for (size_t I = 0; I != Digits.size(); ++I) {
      if (I != 0 && (Digits.size() - I) % 3 == 0)
        Out += ',';
      Out += Digits[I];
    }
    return Out;
  };
  EXPECT_NE(Watched.Output.find(" " + WithCommas(Events) + " events"),
            std::string::npos)
      << Watched.Output;

  // Everything after the banner (the rollup) matches a one-shot collect
  // of the finished stream.
  CommandResult Once = runDriver("collect " + Path);
  ASSERT_EQ(Once.ExitCode, 0) << Once.Output;
  auto Rollup = [](const std::string &Output) {
    size_t At = Output.find("fleet rollup:");
    return At == std::string::npos ? std::string() : Output.substr(At);
  };
  EXPECT_FALSE(Rollup(Once.Output).empty()) << Once.Output;
  EXPECT_EQ(Rollup(Watched.Output), Rollup(Once.Output));
  std::filesystem::remove_all(Spool);
}

TEST(Driver, CollectRoutineFilterSkipsChunks) {
  // phased.mini: setup touches the table once, then work dominates the
  // stream. Small chunks + a setup-only filter make most chunks
  // provably irrelevant via the v2 activity bitmap.
  std::string Path = ::testing::TempDir() + "isprof_collect_phased.strm";
  ASSERT_TRUE(recordStream(guest("phased.mini"), Path,
                           " --stream-chunk-bytes=1024"));
  CommandResult R = runDriver("collect " + Path + " --routine=setup");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("fleet rollup: 1 routine(s)"), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("setup"), std::string::npos);
  // The banner must show a nonzero skip count.
  size_t At = R.Output.find(" skipped");
  ASSERT_NE(At, std::string::npos) << R.Output;
  EXPECT_EQ(R.Output.find(", 0 skipped"), std::string::npos) << R.Output;
  std::remove(Path.c_str());
}

TEST(Driver, CollectRejectsBadInvocations) {
  EXPECT_EQ(runDriver("collect").ExitCode, 2);
  EXPECT_EQ(runDriver("collect --top=0 x.strm").ExitCode, 2);
  EXPECT_EQ(runDriver("collect --ingest-workers=999 x.strm").ExitCode, 2);
  EXPECT_EQ(runDriver("collect --diff onlyone.strm").ExitCode, 2);
  // A missing spool directory is a runtime error, not a crash.
  EXPECT_EQ(runDriver("collect --spool=/nonexistent_spool_dir").ExitCode, 1);
}

TEST(Driver, StatsIntervalWritesHeartbeatSnapshots) {
  std::string StatsPath = ::testing::TempDir() + "isprof_hb_stats.json";
  std::string LivePath = StatsPath + ".live";
  std::remove(LivePath.c_str());
  CommandResult R = runDriver("run " + guest("quickstart.mini") +
                              " --stats=json --stats-out=" + StatsPath +
                              " --stats-interval=10");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  std::ifstream Live(LivePath);
  ASSERT_TRUE(Live.good());
  std::string Line;
  size_t Lines = 0;
  while (std::getline(Live, Line)) {
    EXPECT_EQ(Line.front(), '{') << Line;
    EXPECT_EQ(Line.back(), '}') << Line;
    EXPECT_NE(Line.find("\"schema_version\": 1"), std::string::npos) << Line;
    EXPECT_NE(Line.find("\"ts_ns\": "), std::string::npos) << Line;
    ++Lines;
  }
  EXPECT_GE(Lines, 2u);
  // The final stats file carries the schema version too.
  std::ifstream Stats(StatsPath);
  std::ostringstream Buffer;
  Buffer << Stats.rdbuf();
  EXPECT_NE(Buffer.str().find("\"schema_version\": 1"), std::string::npos);
  // --stats-interval without a JSON stats sink is a usage error.
  EXPECT_EQ(runDriver("run " + guest("quickstart.mini") +
                      " --stats-interval=10")
                .ExitCode,
            2);
  std::remove(StatsPath.c_str());
  std::remove(LivePath.c_str());
}

TEST(Driver, LintUnderstandsJoinHappensBefore) {
  // joined.mini writes its global from both the worker and, post-join,
  // from main — with no lock. The join edge makes it race-free.
  CommandResult R = runDriver("check " + guest("joined.mini") + " --lint");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("lint: 0 location(s) with empty candidate "
                          "lockset"),
            std::string::npos)
      << R.Output;
}

} // namespace
