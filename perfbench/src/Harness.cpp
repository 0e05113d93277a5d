//===- perfbench/src/Harness.cpp - Benchmark clocks, spans, records -------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <malloc.h>
#include <sched.h>
#include <thread>
#include <unistd.h>

using namespace perfbench;

double perfbench::ticksToNs(uint64_t Ticks) {
  static const double NsPerTick = [] {
    // Spin ~20 ms and compare the two clocks.
    uint64_t T0 = ticks(), N0 = nowNs();
    while (nowNs() - N0 < 20'000'000) {
    }
    uint64_t T1 = ticks(), N1 = nowNs();
    return T1 == T0 ? 1.0
                    : static_cast<double>(N1 - N0) /
                          static_cast<double>(T1 - T0);
  }();
  return static_cast<double>(Ticks) * NsPerTick;
}

double perfbench::clockOverheadTicks() {
  static const double Overhead = [] {
    std::vector<double> V;
    for (int I = 0; I != 10001; ++I) {
      uint64_t T0 = ticks();
      uint64_t T1 = ticks();
      V.push_back(static_cast<double>(T1 - T0));
    }
    return median(V);
  }();
  return Overhead;
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

int Tracer::open(const std::string &Name) {
  SpanRec S;
  S.Name = Name;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.StartNs = nowNs();
  Spans.push_back(std::move(S));
  Open.push_back(static_cast<int>(Spans.size() - 1));
  return Open.back();
}

void Tracer::close(int Index) {
  Spans[Index].EndNs = nowNs();
  // Spans close in LIFO order on the recording thread.
  if (!Open.empty() && Open.back() == Index)
    Open.pop_back();
}

void Tracer::addAggregate(const std::string &Name, uint64_t Ns) {
  SpanRec S;
  S.Name = Name;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.StartNs = 0;
  S.EndNs = Ns;
  Spans.push_back(std::move(S));
}

uint64_t Tracer::totalNs(const std::string &Name) const {
  uint64_t Total = 0;
  for (const SpanRec &S : Spans)
    if (S.Name == Name)
      Total += S.EndNs - S.StartNs;
  return Total;
}

uint64_t Tracer::selfNs(const std::string &Name) const {
  std::vector<uint64_t> Child(Spans.size(), 0);
  for (const SpanRec &S : Spans)
    if (S.Parent >= 0)
      Child[S.Parent] += S.EndNs - S.StartNs;
  uint64_t Total = 0;
  for (size_t I = 0; I != Spans.size(); ++I)
    if (Spans[I].Name == Name) {
      uint64_t D = Spans[I].EndNs - Spans[I].StartNs;
      Total += D > Child[I] ? D - Child[I] : 0;
    }
  return Total;
}

static std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

Record &Record::str(const std::string &Key, const std::string &Value) {
  Body += (Body.empty() ? "" : ", ") + ("\"" + Key + "\": \"") +
          jsonEscape(Value) + "\"";
  return *this;
}

Record &Record::num(const std::string &Key, double Value) {
  char Buf[64];
  if (std::isfinite(Value))
    std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
  else
    std::snprintf(Buf, sizeof(Buf), "null");
  Body += (Body.empty() ? "" : ", ") + ("\"" + Key + "\": ") + Buf;
  return *this;
}

Record &Record::boolean(const std::string &Key, bool Value) {
  Body += (Body.empty() ? "" : ", ") + ("\"" + Key + "\": ") +
          (Value ? "true" : "false");
  return *this;
}

void Record::emit() const {
  std::printf("PB {%s}\n", Body.c_str());
  std::fflush(stdout);
}

void perfbench::emitMetric(const std::string &Name, double Value,
                           const std::string &Unit) {
  Record("metric").str("name", Name).num("value", Value).str("unit", Unit)
      .emit();
}

void perfbench::emitHost() {
  Record("host")
      .num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)))
      .num("hardware_concurrency", std::thread::hardware_concurrency())
      .str("compiler", PERFBENCH_COMPILER)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .emit();
}

static uint64_t statusKb(const char *Field) {
  std::ifstream In("/proc/self/status");
  std::string Line;
  size_t Len = std::strlen(Field);
  while (std::getline(In, Line))
    if (Line.compare(0, Len, Field) == 0 && Line.size() > Len &&
        Line[Len] == ':')
      return std::stoull(Line.substr(Len + 1));
  return 0;
}

uint64_t perfbench::currentRssKb() { return statusKb("VmRSS"); }
uint64_t perfbench::peakRssKb() { return statusKb("VmHWM"); }

bool perfbench::resetPeakRss() {
  malloc_trim(0);
  std::ofstream Out("/proc/self/clear_refs");
  Out << "5";
  Out.flush();
  return static_cast<bool>(Out);
}

unsigned perfbench::benchWorkers() {
  long N = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<unsigned>(std::clamp<long>(N, 1, 4));
}

namespace {

/// The CPUs the process started with.
const cpu_set_t &allowedCpus() {
  static const cpu_set_t Set = [] {
    cpu_set_t S;
    CPU_ZERO(&S);
    if (sched_getaffinity(0, sizeof(S), &S) != 0)
      CPU_ZERO(&S);
    return S;
  }();
  return Set;
}

} // namespace

void perfbench::pinToNextCpu() {
  static unsigned Next = 0;
  const cpu_set_t &Allowed = allowedCpus();
  int Count = CPU_COUNT(&Allowed);
  if (Count <= 1)
    return;
  unsigned Want = Next++ % static_cast<unsigned>(Count);
  for (int Cpu = 0; Cpu != CPU_SETSIZE; ++Cpu)
    if (CPU_ISSET(Cpu, &Allowed) && Want-- == 0) {
      cpu_set_t One;
      CPU_ZERO(&One);
      CPU_SET(Cpu, &One);
      sched_setaffinity(0, sizeof(One), &One);
      return;
    }
}

void perfbench::unpinCpu() {
  const cpu_set_t &Allowed = allowedCpus();
  if (CPU_COUNT(&Allowed) > 1)
    sched_setaffinity(0, sizeof(Allowed), &Allowed);
}
