//===- tools/metaopt-simcache.cpp - Cache file inspector ------------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validates and describes persistent simulation-cache files
/// (cache/SimCache.h): magic, version, entry count, and payload checksum.
/// Exit status 0 means the file would be accepted by a warm-starting
/// process, 1 that it would be rejected (with the reason printed) — handy
/// when debugging why a run started cold.
///
/// Usage:
///   metaopt-simcache <file.bin>        inspect one cache file
///   metaopt-simcache --dir=<dir>       inspect <dir>/sim_cache.bin
///
//===----------------------------------------------------------------------===//

#include "cache/SimCache.h"
#include "support/CommandLine.h"

#include <cstdio>

using namespace metaopt;

int main(int Argc, char **Argv) {
  CliParser Cli("metaopt-simcache",
                "Validates and describes persistent simulation-cache "
                "files\n(cache/SimCache.h): magic, version, entry count, "
                "payload checksum.");
  Cli.option("dir", "cache-dir", "inspect <cache-dir>/sim_cache.bin");
  Cli.positionalHelp("[<file.bin>]", "cache file to inspect");
  if (std::optional<int> Exit = Cli.parse(Argc, Argv))
    return *Exit;

  std::string Path;
  if (Cli.has("dir")) {
    SimCacheConfig Config;
    Config.PersistentDir = Cli.getString("dir");
    Config.Enabled = false; // Only borrow persistentPath(); do not load.
    Path = SimCache(Config).persistentPath();
  } else if (!Cli.positional().empty()) {
    Path = Cli.positional().front();
  } else {
    std::fprintf(stderr, "metaopt-simcache: no input\n%s",
                 Cli.usage().c_str());
    return 2;
  }

  SimCacheFileInfo Info = inspectSimCacheFile(Path);
  if (!Info.Valid) {
    std::printf("%s: REJECTED: %s\n", Path.c_str(), Info.Error.c_str());
    return 1;
  }
  std::printf("%s: ok (format v%llu, sim model m%llu, %llu entries)\n",
              Path.c_str(), static_cast<unsigned long long>(Info.Version),
              static_cast<unsigned long long>(Info.ModelVersion),
              static_cast<unsigned long long>(Info.Entries));
  return 0;
}
