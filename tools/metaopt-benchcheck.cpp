//===- tools/metaopt-benchcheck.cpp - Bench-row validator -----------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validates a bench trajectory file (newline-delimited flat JSON rows,
/// e.g. the repo-root BENCH_pipeline.json rewritten by
/// bench/microbench_pipeline) for the CI bench-smoke job (docs/PERF.md):
///
///  * every row must parse as a flat JSON object and carry the required
///    keys for its experiment;
///  * every identity flag present must be true — any boolean key whose
///    name contains "match" (csv_matches_1thread, matches_reference,
///    findings_match_serial, ...) is a correctness contract, not a
///    metric;
///  * every floor row in the --floor file must match at least one bench
///    row, and every row it matches must meet the floor.
///
/// A floor file is the same flat-JSON-rows format. In a floor row, a
/// key named `min_<metric>` asserts `row.<metric> >= value` and a key
/// named `max_<metric>` asserts `row.<metric> <= value` on the matched
/// row; every other key is an exact-match selector. So
///
///   {"experiment": "labeling", "threads": 4,
///    "min_scaling_efficiency": 0.60}
///
/// fails the run unless a labeling row at 4 threads exists and every such
/// row has scaling_efficiency >= 0.6 (bench/perf_floor.json is the floor
/// the CI bench-smoke job enforces; bench/serve_floor.json gates the
/// serving soak, e.g. {"experiment": "serve_soak", "max_errors": 0}).
/// Exit status: 0 clean, 1 any validation failure.
///
/// Usage:
///   metaopt-benchcheck --floor=bench/perf_floor.json BENCH_pipeline.json
///
//===----------------------------------------------------------------------===//

#include "support/CommandLine.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

using namespace metaopt;

namespace {

/// One flat JSON scalar: string, number, boolean, or null (the
/// generalization bench serializes the missing LOOCV side of its
/// calibration rows as null).
struct Value {
  enum Kind { Str, Num, Bool, Null } K = Str;
  std::string S;
  double N = 0.0;
  bool B = false;

  std::string describe() const {
    switch (K) {
    case Str:
      return "\"" + S + "\"";
    case Num:
      return std::to_string(N);
    case Bool:
      return B ? "true" : "false";
    case Null:
      return "null";
    }
    return "?";
  }
};

using Row = std::map<std::string, Value>;

/// Parses one flat JSON object ({"key": scalar, ...}); no nesting, no
/// arrays, no escape sequences beyond \" — exactly what the benches
/// emit. Returns false with \p Error set on malformed input.
bool parseRow(const std::string &Line, Row &Out, std::string &Error) {
  size_t I = 0;
  auto SkipWs = [&] {
    while (I < Line.size() && (Line[I] == ' ' || Line[I] == '\t'))
      ++I;
  };
  auto Fail = [&](const std::string &Why) {
    Error = Why + " at byte " + std::to_string(I);
    return false;
  };
  SkipWs();
  if (I >= Line.size() || Line[I] != '{')
    return Fail("expected '{'");
  ++I;
  SkipWs();
  if (I < Line.size() && Line[I] == '}')
    return true; // Empty object.
  for (;;) {
    SkipWs();
    if (I >= Line.size() || Line[I] != '"')
      return Fail("expected key string");
    ++I;
    std::string Key;
    while (I < Line.size() && Line[I] != '"')
      Key += Line[I++];
    if (I >= Line.size())
      return Fail("unterminated key");
    ++I;
    SkipWs();
    if (I >= Line.size() || Line[I] != ':')
      return Fail("expected ':'");
    ++I;
    SkipWs();
    Value V;
    if (I < Line.size() && Line[I] == '"') {
      ++I;
      V.K = Value::Str;
      while (I < Line.size() && Line[I] != '"') {
        if (Line[I] == '\\' && I + 1 < Line.size())
          ++I;
        V.S += Line[I++];
      }
      if (I >= Line.size())
        return Fail("unterminated string");
      ++I;
    } else if (Line.compare(I, 4, "true") == 0) {
      V.K = Value::Bool;
      V.B = true;
      I += 4;
    } else if (Line.compare(I, 5, "false") == 0) {
      V.K = Value::Bool;
      V.B = false;
      I += 5;
    } else if (Line.compare(I, 4, "null") == 0) {
      V.K = Value::Null;
      I += 4;
    } else {
      const char *Begin = Line.c_str() + I;
      char *End = nullptr;
      V.K = Value::Num;
      V.N = std::strtod(Begin, &End);
      if (End == Begin)
        return Fail("expected value");
      I += static_cast<size_t>(End - Begin);
    }
    Out.emplace(Key, V);
    SkipWs();
    if (I < Line.size() && Line[I] == ',') {
      ++I;
      continue;
    }
    if (I < Line.size() && Line[I] == '}')
      return true;
    return Fail("expected ',' or '}'");
  }
}

bool readRows(const std::string &Path, std::vector<Row> &Out,
              unsigned &Failures) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "metaopt-benchcheck: cannot open %s\n",
                 Path.c_str());
    return false;
  }
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.find_first_not_of(" \t\r") == std::string::npos)
      continue;
    Row R;
    std::string Error;
    if (!parseRow(Line, R, Error)) {
      std::fprintf(stderr, "%s:%u: malformed row: %s\n", Path.c_str(),
                   LineNo, Error.c_str());
      ++Failures;
      continue;
    }
    Out.push_back(std::move(R));
  }
  return true;
}

/// Required keys per experiment, mirroring what microbench_pipeline
/// emits. A missing "experiment" key or an unlisted experiment fails:
/// new experiments must be registered here so CI keeps validating them.
const std::map<std::string, std::vector<std::string>> &requiredKeys() {
  static const std::map<std::string, std::vector<std::string>> Schema = {
      {"labeling",
       {"corpus", "swp", "threads", "hw_threads", "loops", "usable",
        "seconds", "speedup_vs_1thread", "scaling_efficiency",
        "csv_matches_1thread", "cache_hits", "cache_misses",
        "cache_inserts"}},
      {"labeling_cache",
       {"phase", "seconds", "speedup_vs_cold", "cache_hits",
        "cache_misses", "cache_inserts", "cache_entries",
        "persistent_loaded", "csv_matches_uncached"}},
      {"serve_soak",
       {"mode", "duration_s", "clients", "completed", "errors",
        "reconnects", "expected_closes", "oversized_rejects",
        "bundle_swaps", "throughput_rps", "p50_ms", "p99_ms", "p999_ms",
        "matches_reference"}},
      {"lint_sweep",
       {"threads", "loops", "errors", "warnings", "notes", "seconds",
        "speedup_vs_serial", "findings_match_serial"}},
      {"classifier_microbench",
       {"benchmark", "iterations", "real_ns", "cpu_ns"}},
      {"generalization",
       {"classifier", "loocv_accuracy", "imported_accuracy",
        "imported_top2", "imported_mean_cost", "imported_speedup", "gap",
        "imported_fingerprint"}},
      {"generalization_corpus",
       {"synthetic_loops", "imported_loops", "imported_pass_filters",
        "imported_fingerprint"}},
  };
  return Schema;
}

bool valuesMatch(const Value &A, const Value &B) {
  if (A.K != B.K)
    return false;
  switch (A.K) {
  case Value::Str:
    return A.S == B.S;
  case Value::Num:
    return A.N == B.N;
  case Value::Bool:
    return A.B == B.B;
  case Value::Null:
    return true;
  }
  return false;
}

std::string describeRow(const Row &R) {
  std::string Text = "{";
  for (const auto &[Key, V] : R) {
    if (Text.size() > 1)
      Text += ", ";
    Text += Key + ": " + V.describe();
    if (Text.size() > 120) {
      Text += ", ...";
      break;
    }
  }
  return Text + "}";
}

} // namespace

int main(int Argc, char **Argv) {
  CliParser Cli("metaopt-benchcheck",
                "Validates newline-delimited flat-JSON bench rows "
                "(BENCH_*.json):\nschema per experiment, byte-identity "
                "flags, and perf floors (docs/PERF.md).");
  Cli.option("floor", "file", "flat-JSON floor rows to enforce");
  Cli.positionalHelp("<bench.json>", "bench trajectory file to validate");
  if (std::optional<int> Exit = Cli.parse(Argc, Argv))
    return *Exit;
  if (Cli.positional().size() != 1) {
    std::fprintf(stderr, "metaopt-benchcheck: expected one bench file\n%s",
                 Cli.usage().c_str());
    return 2;
  }

  unsigned Failures = 0;
  std::vector<Row> Rows;
  if (!readRows(Cli.positional().front(), Rows, Failures))
    return 1;
  if (Rows.empty()) {
    std::fprintf(stderr, "metaopt-benchcheck: no bench rows found\n");
    return 1;
  }

  // Schema: every row names a known experiment and carries its keys.
  for (const Row &R : Rows) {
    auto Exp = R.find("experiment");
    if (Exp == R.end() || Exp->second.K != Value::Str) {
      std::fprintf(stderr, "row missing \"experiment\": %s\n",
                   describeRow(R).c_str());
      ++Failures;
      continue;
    }
    auto Schema = requiredKeys().find(Exp->second.S);
    if (Schema == requiredKeys().end()) {
      std::fprintf(stderr,
                   "unknown experiment \"%s\" (register its required keys "
                   "in metaopt-benchcheck)\n",
                   Exp->second.S.c_str());
      ++Failures;
      continue;
    }
    for (const std::string &Key : Schema->second)
      if (!R.count(Key)) {
        std::fprintf(stderr, "%s row missing \"%s\": %s\n",
                     Exp->second.S.c_str(), Key.c_str(),
                     describeRow(R).c_str());
        ++Failures;
      }
    // Identity flags are contracts: false is always a failure. The
    // csv_matches_* family must additionally be boolean; any other key
    // naming a match is only held to the contract when it is one.
    for (const auto &[Key, V] : R) {
      bool Contract =
          Key.rfind("csv_matches_", 0) == 0 ||
          (Key.find("match") != std::string::npos && V.K == Value::Bool);
      if (Contract && (V.K != Value::Bool || !V.B)) {
        std::fprintf(stderr, "identity contract broken (%s): %s\n",
                     Key.c_str(), describeRow(R).c_str());
        ++Failures;
      }
    }
  }

  // Floors: each floor row must match a bench row meeting every min_*
  // floor and max_* ceiling; the remaining keys are exact-match
  // selectors.
  if (Cli.has("floor")) {
    std::vector<Row> Floors;
    if (!readRows(Cli.getString("floor"), Floors, Failures))
      return 1;
    for (const Row &Floor : Floors) {
      bool Matched = false;
      for (const Row &R : Rows) {
        bool Selected = true;
        for (const auto &[Key, V] : Floor) {
          if (Key.rfind("min_", 0) == 0 || Key.rfind("max_", 0) == 0)
            continue;
          auto It = R.find(Key);
          if (It == R.end() || !valuesMatch(It->second, V)) {
            Selected = false;
            break;
          }
        }
        if (!Selected)
          continue;
        Matched = true;
        for (const auto &[Key, V] : Floor) {
          bool IsMin = Key.rfind("min_", 0) == 0;
          bool IsMax = Key.rfind("max_", 0) == 0;
          if (!IsMin && !IsMax)
            continue;
          std::string Metric = Key.substr(4);
          auto It = R.find(Metric);
          if (It == R.end() || It->second.K != Value::Num) {
            std::fprintf(stderr, "floor metric \"%s\" absent: %s\n",
                         Metric.c_str(), describeRow(R).c_str());
            ++Failures;
          } else if (IsMin && It->second.N < V.N) {
            std::fprintf(stderr,
                         "floor violated: %s = %.3f < %.3f in %s\n",
                         Metric.c_str(), It->second.N, V.N,
                         describeRow(R).c_str());
            ++Failures;
          } else if (IsMax && It->second.N > V.N) {
            std::fprintf(stderr,
                         "ceiling violated: %s = %.3f > %.3f in %s\n",
                         Metric.c_str(), It->second.N, V.N,
                         describeRow(R).c_str());
            ++Failures;
          }
        }
      }
      if (!Matched) {
        std::fprintf(stderr, "no bench row matches floor selector %s\n",
                     describeRow(Floor).c_str());
        ++Failures;
      }
    }
  }

  if (Failures) {
    std::fprintf(stderr, "metaopt-benchcheck: %u failure(s) over %zu rows\n",
                 Failures, Rows.size());
    return 1;
  }
  std::printf("metaopt-benchcheck: %zu rows clean\n", Rows.size());
  return 0;
}
