//===- perfbench/src/Fleet.h - The served fleet under test ------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Starts the same topology as tests/serve_soak.sh — a metaopt-gateway
/// fronting two metaopt-serve workers over TCP — from the repository's
/// own binaries, waits until it is healthy, and stops every process it
/// started (SIGTERM, then SIGKILL after a grace period) before returning.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_PERFBENCH_FLEET_H
#define METAOPT_PERFBENCH_FLEET_H

#include "Bench.h"

#include <sys/types.h>

namespace perfbench {

/// One child process; the destructor kills and reaps it if still running.
class ChildProcess {
public:
  ChildProcess() = default;
  ~ChildProcess() { stop(0); }
  ChildProcess(const ChildProcess &) = delete;
  ChildProcess &operator=(const ChildProcess &) = delete;

  /// Starts \p Argv with stdout and stderr appended to \p LogPath.
  bool spawn(const std::vector<std::string> &Argv, const std::string &LogPath,
             std::string *Error);

  /// SIGTERM, up to \p GraceMs for a clean exit, then SIGKILL; reaps the
  /// process. Returns true when it exited 0 on its own. Idempotent.
  bool stop(int GraceMs);

private:
  pid_t Pid = -1;
};

/// A gateway plus two workers serving one bundle.
class Fleet {
public:
  /// Starts the workers with \p WorkerThreads prediction threads each,
  /// then the gateway, and waits until all three answer health checks.
  bool start(const RunOptions &Options, const std::string &BundlePath,
             unsigned WorkerThreads, std::string *Error);

  /// Stops the gateway, then the workers; true when all drained cleanly.
  bool stop();

  const std::string &gateway() const { return GatewayAddr; }
  const std::string &worker(size_t I) const { return WorkerAddr[I]; }

private:
  ChildProcess Workers[2], Gateway;
  std::string WorkerAddr[2], GatewayAddr;
};

/// Sends one control request (e.g. {"op":"stats"}) and returns the
/// response line ("" on failure).
std::string controlRequest(const std::string &Address, const std::string &Line);

} // namespace perfbench

#endif // METAOPT_PERFBENCH_FLEET_H
