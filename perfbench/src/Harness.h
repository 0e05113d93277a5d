//===- perfbench/src/Harness.h - Clocks, spans, records ---------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own plumbing: a steady clock, a cheap cycle counter
/// for per-callback timing, an in-memory span tracer whose self times
/// are span minus child spans, the record lines the harness prints for
/// run.py to aggregate, and the host/memory probes every result carries.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace perfbench {

/// Monotonic nanoseconds.
inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// A per-callback timestamp: the TSC where there is one (cheaper than a
/// clock_gettime, though still tens of ns under a hypervisor),
/// steady-clock ns elsewhere. Convert tick totals with ticksToNs().
inline uint64_t ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return nowNs();
#endif
}

/// Nanoseconds in \p Ticks, calibrated once against the steady clock.
double ticksToNs(uint64_t Ticks);

/// What an empty `T0 = ticks(); T1 = ticks();` interval reads, in ticks:
/// the clock's own cost inside every timed interval.
double clockOverheadTicks();

/// Median of \p V (0 when empty).
double median(std::vector<double> V);

/// Spans recorded by the benchmark's own files around its calls into
/// isprof. Spans nest by construction order on one thread; a child's
/// time is subtracted from its parent's to give self time. Spans are
/// kept in memory and summarised at the end of the run.
class Tracer {
public:
  struct SpanRec {
    std::string Name;
    int Parent = -1;
    uint64_t StartNs = 0;
    uint64_t EndNs = 0;
  };

  /// Opens a span under the innermost open span; returns its index.
  int open(const std::string &Name);
  void close(int Index);
  /// Records an aggregated child of the innermost open span: a layer
  /// whose time was summed over many short callbacks (see TimedTool).
  void addAggregate(const std::string &Name, uint64_t Ns);

  const std::vector<SpanRec> &spans() const { return Spans; }
  /// Total ns of every span (and aggregate) named \p Name.
  uint64_t totalNs(const std::string &Name) const;
  /// Self ns of every span named \p Name: duration minus children.
  uint64_t selfNs(const std::string &Name) const;

private:
  std::vector<SpanRec> Spans;
  std::vector<int> Open;
};

/// RAII span; a null tracer makes it a no-op, so untraced runs pay one
/// branch.
class Span {
public:
  Span(Tracer *T, const std::string &Name)
      : T(T), Index(T ? T->open(Name) : -1) {}
  ~Span() {
    if (T)
      T->close(Index);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Tracer *T;
  int Index;
};

/// One flat JSON object printed as a "PB {...}" record line; run.py
/// aggregates these lines into the final result.
class Record {
public:
  explicit Record(const std::string &Kind) { str("k", Kind); }
  Record &str(const std::string &Key, const std::string &Value);
  Record &num(const std::string &Key, double Value);
  Record &boolean(const std::string &Key, bool Value);
  /// Prints and flushes the line, so a later crash keeps it.
  void emit() const;

private:
  std::string Body;
};

/// Emits one metric record.
void emitMetric(const std::string &Name, double Value, const std::string &Unit);

/// Prints the host record: core counts, compiler, build type.
void emitHost();

/// Resident-set probes from /proc/self/status, in KiB.
uint64_t currentRssKb();
uint64_t peakRssKb();
/// Returns freed heap to the OS and resets the peak (VmHWM) to the
/// current RSS; false when the kernel refuses the reset.
bool resetPeakRss();

/// Worker count for the parallel paths: min(4, nproc).
unsigned benchWorkers();

/// Moves the calling thread to the next CPU it may run on, round robin,
/// so successive single-threaded operations sample every core: on a
/// shared host the cores' speeds differ by tens of percent and drift,
/// and a thread the scheduler leaves on one core would carry that
/// core's speed into the whole run.
void pinToNextCpu();
/// Lets the calling thread run on all its CPUs again.
void unpinCpu();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
