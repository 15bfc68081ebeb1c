//===- perfbench/src/Fleet.cpp - The served fleet under test --------------===//

#include "Fleet.h"

#include "serve/Client.h"
#include "serve/Json.h"

#include <arpa/inet.h>
#include <csignal>
#include <fcntl.h>
#include <netinet/in.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

extern char **environ;

namespace perfbench {

bool ChildProcess::spawn(const std::vector<std::string> &Argv,
                         const std::string &LogPath, std::string *Error) {
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_addopen(&Actions, STDOUT_FILENO, LogPath.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&Actions, STDOUT_FILENO, STDERR_FILENO);
  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);
  int Status = posix_spawn(&Pid, Args[0], &Actions, nullptr, Args.data(),
                           environ);
  posix_spawn_file_actions_destroy(&Actions);
  if (Status != 0) {
    Pid = -1;
    *Error = "cannot start " + Argv[0];
    return false;
  }
  return true;
}

bool ChildProcess::stop(int GraceMs) {
  if (Pid <= 0)
    return false;
  kill(Pid, GraceMs > 0 ? SIGTERM : SIGKILL);
  int Status = 0;
  pid_t Reaped = 0;
  for (int Waited = 0; Waited < GraceMs; Waited += 10) {
    Reaped = waitpid(Pid, &Status, WNOHANG);
    if (Reaped != 0)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  bool Clean = Reaped == Pid && WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
  if (Reaped == 0) {
    kill(Pid, SIGKILL);
    waitpid(Pid, &Status, 0);
  }
  Pid = -1;
  return Clean;
}

namespace {

/// An unused loopback TCP port, picked by the kernel.
int freePort() {
  int Fd = socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t Len = sizeof(Addr);
  int Port = -1;
  if (bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) == 0 &&
      getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len) == 0)
    Port = ntohs(Addr.sin_port);
  close(Fd);
  return Port;
}

/// Waits up to ten seconds for an "ok" health answer that also reports
/// \p Backends healthy backends (gateway only; 0 for a worker).
bool waitHealthy(const std::string &Address, int64_t Backends) {
  Clock::time_point Start = Clock::now();
  while (secondsSince(Start) < 10.0) {
    std::optional<metaopt::JsonValue> Health = metaopt::parseJson(
        controlRequest(Address, "{\"op\": \"health\"}"));
    if (Health && Health->getString("status") == "ok" &&
        Health->getInt("backends_healthy", 0) == Backends)
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

} // namespace

std::string controlRequest(const std::string &Address,
                           const std::string &Line) {
  metaopt::ServeClient Client;
  if (!Client.connect(Address))
    return "";
  Client.setIoTimeout(std::chrono::milliseconds(5000));
  std::optional<std::string> Response = Client.roundTrip(Line);
  return Response ? *Response : "";
}

bool Fleet::start(const RunOptions &Options, const std::string &BundlePath,
                  unsigned WorkerThreads, std::string *Error) {
  std::string Log = Options.WorkDir + "/fleet.log";
  for (size_t I = 0; I < 2; ++I) {
    WorkerAddr[I] = "127.0.0.1:" + std::to_string(freePort());
    if (!Workers[I].spawn({Options.ServeBin, "--bundle=" + BundlePath,
                           "--tcp-port=" + WorkerAddr[I].substr(10),
                           "--threads=" + std::to_string(WorkerThreads)},
                          Log, Error))
      return false;
  }
  for (size_t I = 0; I < 2; ++I)
    if (!waitHealthy(WorkerAddr[I], 0)) {
      *Error = "worker " + WorkerAddr[I] + " never became healthy (" + Log +
               ")";
      return false;
    }
  GatewayAddr = "127.0.0.1:" + std::to_string(freePort());
  if (!Gateway.spawn({Options.GatewayBin,
                      "--backends=" + WorkerAddr[0] + "," + WorkerAddr[1],
                      "--tcp-port=" + GatewayAddr.substr(10),
                      "--health-interval-ms=200"},
                     Log, Error))
    return false;
  if (!waitHealthy(GatewayAddr, 2)) {
    *Error = "gateway never saw two healthy workers (" + Log + ")";
    return false;
  }
  return true;
}

bool Fleet::stop() {
  bool Clean = Gateway.stop(10000);
  for (ChildProcess &W : Workers)
    Clean = W.stop(10000) && Clean;
  return Clean;
}

} // namespace perfbench
