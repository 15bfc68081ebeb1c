//===- perfbench/src/Bench.cpp - Shared benchmark plumbing ----------------===//

#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sys/resource.h>
#include <unordered_map>

namespace perfbench {

void Report::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Metrics.push_back({Name, Value, Unit});
}

void Report::op(bool Ok, const std::string &What) {
  std::lock_guard<std::mutex> Lock(Mutex);
  ++Attempted;
  if (!Ok) {
    // Only the first few failures are named; the count is exact.
    if (++Failed <= 5)
      std::fprintf(stderr, "perfbench: check failed: %s\n", What.c_str());
  }
}

void Report::provenance(const std::string &Key, const std::string &Value) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Provenance.emplace_back(Key, Value);
}

static std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out + "\"";
}

void Report::print() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::string Prov;
  for (const auto &[Key, Value] : Provenance)
    Prov += " " + Key + "=" + Value;
  std::printf("provenance%s\n", Prov.c_str());
  for (const Entry &E : Metrics)
    std::printf("metric %-28s %14.6f %s\n", E.Name.c_str(), E.Value,
                E.Unit.c_str());
  std::printf("metric %-28s %14.6f ratio\n", "failed_ratio",
              Attempted ? static_cast<double>(Failed) /
                              static_cast<double>(Attempted)
                        : 0.0);

  std::string Json = "{\"attempted\": " + std::to_string(Attempted) +
                     ", \"failed\": " + std::to_string(Failed) +
                     ", \"metrics\": {";
  char Buffer[64];
  for (size_t I = 0; I < Metrics.size(); ++I) {
    std::snprintf(Buffer, sizeof(Buffer), "%.17g", Metrics[I].Value);
    Json += (I ? ", " : "") + jsonString(Metrics[I].Name) +
            ": {\"value\": " + Buffer +
            ", \"unit\": " + jsonString(Metrics[I].Unit) + "}";
  }
  Json += "}, \"provenance\": {";
  for (size_t I = 0; I < Provenance.size(); ++I)
    Json += (I ? ", " : "") + jsonString(Provenance[I].first) + ": " +
            jsonString(Provenance[I].second);
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
}

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

Tracer &Tracer::get() {
  static Tracer Instance;
  return Instance;
}

size_t Tracer::spanCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Spans.size();
}

void Tracer::addOverhead(Clock::duration D) {
  OverheadNs += std::chrono::duration_cast<std::chrono::nanoseconds>(D).count();
}

double Tracer::overheadPercent() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  double RootUs = 0;
  for (const SpanRecord &S : Spans)
    if (!S.Parent)
      RootUs += S.EndUs - S.StartUs;
  return RootUs > 0 ? 0.1 * static_cast<double>(OverheadNs.load()) / RootUs
                    : 0.0;
}

uint64_t Tracer::open() { return NextId++; }

void Tracer::close(const char *Name, uint64_t Id, uint64_t Parent,
                   uint64_t Request, Clock::time_point Start,
                   Clock::time_point End) {
  auto Us = [&](Clock::time_point T) {
    return std::chrono::duration<double, std::micro>(T - Epoch).count();
  };
  SpanRecord Record{Name, Id, Parent, Request, Us(Start), Us(End)};
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans.push_back(std::move(Record));
}

std::map<std::string, double> Tracer::selfSecondsByLayer() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::unordered_map<uint64_t, std::vector<const SpanRecord *>> Children;
  for (const SpanRecord &S : Spans)
    if (S.Parent)
      Children[S.Parent].push_back(&S);
  std::map<std::string, double> Self;
  for (const SpanRecord &S : Spans) {
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<double, double>> Covered;
    if (auto It = Children.find(S.Id); It != Children.end())
      for (const SpanRecord *C : It->second)
        Covered.emplace_back(std::max(C->StartUs, S.StartUs),
                             std::min(C->EndUs, S.EndUs));
    std::sort(Covered.begin(), Covered.end());
    double CoveredUs = 0, Reach = S.StartUs;
    for (const auto &[Begin, End] : Covered) {
      double From = std::max(Begin, Reach);
      if (End > From) {
        CoveredUs += End - From;
        Reach = End;
      }
    }
    std::string Layer = S.Name.substr(0, S.Name.find('.'));
    Self[Layer] += (S.EndUs - S.StartUs - CoveredUs) * 1e-6;
  }
  return Self;
}

bool Tracer::write(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::ofstream Out(Path);
  char Buffer[256];
  for (const SpanRecord &S : Spans) {
    std::snprintf(Buffer, sizeof(Buffer),
                  "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                  "\"request\": %llu, \"start_us\": %.3f, \"end_us\": %.3f}\n",
                  S.Name.c_str(), static_cast<unsigned long long>(S.Id),
                  static_cast<unsigned long long>(S.Parent),
                  static_cast<unsigned long long>(S.Request), S.StartUs,
                  S.EndUs);
    Out << Buffer;
  }
  return static_cast<bool>(Out);
}

/// The innermost open span of the calling thread (0 = none).
static thread_local uint64_t CurrentSpan = 0;

Span::Span(const char *NameIn, uint64_t RequestIn)
    : Name(NameIn), Request(RequestIn) {
  if (Tracer::get().enabled()) {
    Clock::time_point Begin = Clock::now();
    Id = Tracer::get().open();
    Parent = CurrentSpan;
    CurrentSpan = Id;
    Start = Clock::now();
    Tracer::get().addOverhead(Start - Begin);
    return;
  }
  Start = Clock::now();
}

double Span::stop() {
  if (Elapsed >= 0)
    return Elapsed;
  Clock::time_point End = Clock::now();
  Elapsed = std::chrono::duration<double>(End - Start).count();
  if (Id) {
    CurrentSpan = Parent;
    Tracer::get().close(Name, Id, Parent, Request, Start, End);
    Tracer::get().addOverhead(Clock::now() - End);
  }
  return Elapsed;
}

double median(std::vector<double> Values) { return quantile(Values, 0.5); }

double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  double Pos = Q * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * Frac;
}

void Digest::bytes(const void *Data, size_t Size) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < Size; ++I) {
    Hash ^= P[I];
    Hash *= 0x100000001b3ULL;
  }
}

void Digest::str(const std::string &S) {
  u64(S.size());
  bytes(S.data(), S.size());
}

std::string hex64(uint64_t V) {
  char Buffer[24];
  std::snprintf(Buffer, sizeof(Buffer), "%016llx",
                static_cast<unsigned long long>(V));
  return Buffer;
}

double peakRssMb() {
  struct rusage Usage {};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB on Linux.
}

} // namespace perfbench
