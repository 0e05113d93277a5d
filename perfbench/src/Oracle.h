//===- perfbench/src/Oracle.h - Reference profiles --------------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every operation is checked against a reference that the code under
/// test did not produce: the aprof-trms-naive profile (the paper's
/// Fig. 10 algorithm) of the same guest and seed, run live with no
/// stream, replay or collector code in between.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ORACLE_H
#define PERFBENCH_ORACLE_H

#include "collect/FleetStore.h"
#include "core/ProfileData.h"
#include "vm/Bytecode.h"
#include "vm/Machine.h"

#include <string>

namespace perfbench {

/// Canonical text of every aggregate a profile holds: each (thread,
/// routine) profile with its per-trms and per-rms cost cells, and the
/// run-wide induced-access counters.
std::string profileDigest(const isp::ProfileDatabase &Db);

/// A guest's reference profile: its digest and its rendered report.
struct ProfileOracle {
  std::string Digest;
  std::string Report;
};

/// Runs \p Prog live under aprof-trms-naive. Returns false with \p Error
/// set when the guest fails.
bool naiveProfile(const isp::Program &Prog, const isp::MachineOptions &Opts,
                  bool KeepLog, isp::ProfileDatabase &Out,
                  std::string &Report, std::string &Error);

/// Empty when \p Db and \p Report match \p Oracle; else the reason.
std::string checkProfile(const ProfileOracle &Oracle,
                         const isp::ProfileDatabase &Db,
                         const std::string &Report);

/// The fleet reference: a store folded serially from naive profiles,
/// and its rendered rollup.
struct FleetOracle {
  isp::collect::FleetStore Store;
  std::string Rollup;
};

/// Empty when \p Store and \p Rollup match \p Oracle; else the reason.
std::string checkFleet(const FleetOracle &Oracle,
                       const isp::collect::FleetStore &Store,
                       const std::string &Rollup);

} // namespace perfbench

#endif // PERFBENCH_ORACLE_H
