//===- perfbench/src/main.cpp - isprof benchmark harness entry point ------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// isprof_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --workdir DIR
//
// Prints human-readable lines and "PB {...}" record lines; perfbench/run.py
// turns the records into the benchmark's result line. Records are
// flushed as they are made, so an abort (assertions stay on) loses only
// the operation that aborted.
//
//===----------------------------------------------------------------------===//

#include "Battery.h"
#include "Harness.h"
#include "Inputs.h"
#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

using namespace perfbench;

namespace {

/// Set-up runs in samples of back-to-back set-ups, each sample at least
/// MinSetupSampleS long (a lone md compile takes ~1 ms, too short to
/// time steadily on a shared host), at least MinSetupSamples of them up
/// front. When a sample holds many set-ups (set-up is cheap), one more
/// sample follows every op_ms sample, so setup_s, like op_ms, spans the
/// whole run rather than its first second. setup_s is the median
/// per-set-up time over the samples.
constexpr double MinSetupSampleS = 0.05;
constexpr unsigned MinSetupSamples = 3;
/// Untraced op_ms samples are taken at least this often, even past the
/// deadline.
constexpr unsigned MinSamples = 5;

/// Runs one set-up sample of \p PerSample set-ups and emits its record.
/// Returns the per-set-up seconds, or a negative value on failure.
double setupSample(BenchWorkload &W, unsigned PerSample, Tracer *T,
                   std::vector<double> &CompileMs,
                   std::vector<double> &OptimizeMs, std::string &Error) {
  double Sample = 0;
  uint64_t CompileNs = T ? T->totalNs("compileProgram") : 0;
  uint64_t OptimizeNs = T ? T->totalNs("optimizeProgram") : 0;
  for (unsigned I = 0; I != PerSample; ++I) {
    double S = W.setup(T, Error);
    if (S < 0)
      return -1;
    Sample += S;
  }
  Record("setup").num("s", Sample / PerSample).emit();
  if (T) {
    CompileMs.push_back(
        static_cast<double>(T->totalNs("compileProgram") - CompileNs) / 1e6 /
        PerSample);
    OptimizeMs.push_back(
        static_cast<double>(T->totalNs("optimizeProgram") - OptimizeNs) /
        1e6 / PerSample);
  }
  return Sample / PerSample;
}

int usage() {
  std::fprintf(stderr, "usage: isprof_perfbench --workload NAME --seed N "
                       "--seconds S --trace 0|1 --workdir DIR\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Workload, WorkDir;
  uint64_t Seed = 0;
  double Seconds = 0;
  int Trace = -1;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I], Value = Argv[I + 1];
    if (Flag == "--workload")
      Workload = Value;
    else if (Flag == "--seed")
      Seed = std::strtoull(Value.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      Seconds = std::strtod(Value.c_str(), nullptr);
    else if (Flag == "--trace")
      Trace = std::atoi(Value.c_str());
    else if (Flag == "--workdir")
      WorkDir = Value;
    else
      return usage();
  }
  if (Workload.empty() || WorkDir.empty() || Seconds <= 0 ||
      (Trace != 0 && Trace != 1))
    return usage();

  emitHost();
  WorkloadInputs In;
  std::string Error;
  if (!makeInputs(Workload, Seed, In, Error)) {
    std::fprintf(stderr, "perfbench: %s\n", Error.c_str());
    return 2;
  }
  {
    Record R("inputs");
    R.str("workload", Workload).num("seed", static_cast<double>(Seed));
    char Digest[32];
    std::snprintf(Digest, sizeof(Digest), "%016llx",
                  static_cast<unsigned long long>(In.digest()));
    R.str("digest", Digest);
    std::string Sizes;
    for (const GuestInput &G : In.Guests)
      Sizes += (Sizes.empty() ? "" : " ") + std::to_string(G.Size);
    R.str("guest_sizes", Sizes).emit();
  }

  std::filesystem::create_directories(WorkDir);
  std::unique_ptr<BenchWorkload> W = makeWorkload(In, WorkDir);
  std::vector<double> CompileMs, OptimizeMs;
  Tracer SetupTrace;
  Tracer *ST = Trace ? &SetupTrace : nullptr;
  // The first set-up sizes the samples; it is not reported.
  uint64_t FirstStart = nowNs();
  if (W->setup(nullptr, Error) < 0) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", Error.c_str());
    return 1;
  }
  double First = static_cast<double>(nowNs() - FirstStart) / 1e9;
  unsigned PerSample = static_cast<unsigned>(MinSetupSampleS / First) + 1;
  for (unsigned N = 0; N != MinSetupSamples; ++N)
    if (setupSample(*W, PerSample, ST, CompileMs, OptimizeMs, Error) < 0) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", Error.c_str());
      return 1;
    }
  if (!W->buildOracle(Error)) {
    std::fprintf(stderr, "perfbench: oracle failed: %s\n", Error.c_str());
    return 1;
  }

  if (Trace) {
    emitMetric("vm.compile_ms", median(CompileMs), "ms");
    emitMetric("vm.optimize_ms", median(OptimizeMs), "ms");
    measureLayers(*W, Seconds);
  } else {
    runOp(*W, nullptr, "warmup");
    emitMetric("stream_mb", W->streamBytes() / 1e6, "MB");
    bool PeakReset = resetPeakRss();
    uint64_t BaseKb = currentRssKb();
    uint64_t Deadline = nowNs() + static_cast<uint64_t>(Seconds * 1e9);
    for (unsigned N = 0; N < MinSamples || nowNs() < Deadline; ++N) {
      double Ms = 0;
      for (unsigned I = 0; I != W->opsPerSample(); ++I)
        Ms += runOp(*W, nullptr, "timed");
      Record("sample").num("ms", Ms / W->opsPerSample()).emit();
      if (PerSample > 1 &&
          setupSample(*W, PerSample, nullptr, CompileMs, OptimizeMs, Error) <
              0) {
        std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                     Error.c_str());
        return 1;
      }
    }
    uint64_t PeakKb = peakRssKb();
    Record("rss")
        .num("base_kb", static_cast<double>(BaseKb))
        .num("peak_kb", static_cast<double>(PeakKb))
        .boolean("peak_reset", PeakReset)
        .emit();
    // The whole process's peak while operations run. The reset above
    // drops set-up's and the oracle's transient peaks; what they keep
    // (compiled guests, reference profiles) is a few MB in base_kb.
    emitMetric("peak_rss_mb", static_cast<double>(PeakKb) / 1024, "MB");
  }
  Record("done").emit();
  return 0;
}
