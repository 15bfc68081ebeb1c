//===- perfbench/src/Bench.h - Shared benchmark plumbing --------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the repository benchmark shares: the run
/// options, the metric sink every number is reported through, the span
/// recorder that times calls into the program's layers from outside, and
/// small statistics and digest helpers. See perfbench/README.md for the
/// workloads and the layer -> metric -> workload map.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_PERFBENCH_BENCH_H
#define METAOPT_PERFBENCH_BENCH_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options of one benchmark run.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Repository root (holds corpus/imported).
  std::string RepoRoot = ".";
  /// Working directory for bundles, logs and the span file.
  std::string WorkDir = ".bench_build/perfbench/work";
  std::string ServeBin;
  std::string GatewayBin;
  /// Prints the output digests instead of checking them against the
  /// pinned table (used once per commit that is meant to change outputs).
  bool PrintPins = false;
};

/// Collects every metric a run reports, plus the operation counters.
class Report {
public:
  void metric(const std::string &Name, double Value, const std::string &Unit);
  /// One operation attempted; \p Ok false counts it as failed. \p What
  /// names the failure on stderr.
  void op(bool Ok, const std::string &What = "");
  void provenance(const std::string &Key, const std::string &Value);

  /// Prints a provenance line, one "metric <name> <value> <unit>" line per
  /// metric, then everything as one JSON object on the last line.
  void print() const;

private:
  struct Entry {
    std::string Name;
    double Value;
    std::string Unit;
  };
  mutable std::mutex Mutex;
  std::vector<Entry> Metrics;
  std::vector<std::pair<std::string, std::string>> Provenance;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start);

/// One recorded span: a call into a layer, timed from outside.
struct SpanRecord {
  std::string Name;
  uint64_t Id = 0;
  uint64_t Parent = 0;  ///< 0 for a root span.
  uint64_t Request = 0; ///< Request id shared by one request's spans.
  double StartUs = 0;   ///< Relative to the tracer's epoch.
  double EndUs = 0;
};

/// Keeps spans in memory while tracing is on; written out at exit.
class Tracer {
public:
  static Tracer &get();
  void enable(bool On) { Enabled = On; }
  bool enabled() const { return Enabled; }
  size_t spanCount() const;

  uint64_t open();
  void close(const char *Name, uint64_t Id, uint64_t Parent, uint64_t Request,
             Clock::time_point Start, Clock::time_point End);
  /// Adds time spent opening and closing spans: what tracing added to
  /// the run, measured where it is spent.
  void addOverhead(Clock::duration D);

  /// Self time per layer (the span-name prefix before the first '.'):
  /// each span's duration minus the part its child spans cover.
  std::map<std::string, double> selfSecondsByLayer() const;

  /// Recording time as a share of the time root spans cover, in percent.
  double overheadPercent() const;

  /// Writes one JSON object per span, one per line.
  bool write(const std::string &Path) const;

private:
  bool Enabled = false;
  Clock::time_point Epoch = Clock::now();
  std::atomic<uint64_t> NextId{1};
  std::atomic<int64_t> OverheadNs{0};
  mutable std::mutex Mutex; ///< Guards Spans.
  std::vector<SpanRecord> Spans;
};

/// Times one call into a layer. The elapsed time is always measured (the
/// workloads use it as their stopwatch); the span is recorded only while
/// tracing is on. Spans opened on one thread nest: the innermost open
/// span is the parent of the next one.
class Span {
public:
  explicit Span(const char *Name, uint64_t Request = 0);
  ~Span() { stop(); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Ends the span (idempotent) and returns its duration in seconds.
  double stop();

private:
  const char *Name;
  uint64_t Id = 0;
  uint64_t Parent = 0;
  uint64_t Request = 0;
  Clock::time_point Start;
  double Elapsed = -1.0;
};

/// Median of \p Values (0 when empty).
double median(std::vector<double> Values);

/// The \p Q quantile (0..1) by linear interpolation (0 when empty).
double quantile(std::vector<double> Values, double Q);

/// 64-bit FNV-1a over bytes; the benchmark's own digest so pinned
/// values do not move when the program's fingerprint code changes.
class Digest {
public:
  void bytes(const void *Data, size_t Size);
  void str(const std::string &S);
  void u64(uint64_t V) { bytes(&V, sizeof(V)); }
  void f64(double V) { bytes(&V, sizeof(V)); }
  uint64_t value() const { return Hash; }

private:
  uint64_t Hash = 0xcbf29ce484222325ULL;
};

std::string hex64(uint64_t V);

/// Peak resident set of this process, in MB.
double peakRssMb();


/// Runs \p Setup at least three times, and up to fifteen while the
/// set-ups take under two seconds in all, each after \p Reset (untimed).
/// Returns the median set-up time; the last set-up's products are kept.
template <typename Fn, typename ResetFn>
double timeSetups(Fn Setup, ResetFn Reset) {
  std::vector<double> Seconds;
  double Total = 0;
  while (Seconds.size() < 3 || (Total < 2.0 && Seconds.size() < 15)) {
    Reset();
    Clock::time_point Start = Clock::now();
    Setup();
    Seconds.push_back(secondsSince(Start));
    Total += Seconds.back();
  }
  return median(Seconds);
}

int runLabelEval(const RunOptions &Options, Report &Out);
int runLoocv(const RunOptions &Options, Report &Out);
int runServe(const RunOptions &Options, Report &Out);

} // namespace perfbench

#endif // METAOPT_PERFBENCH_BENCH_H
