//===- perfbench/src/Serve.cpp - serve-loop and serve-program -------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two serving workloads, on one fleet (Fleet.h) serving an LS-SVM
/// bundle the set-up trains on the full SWP-off corpus.
///
///  * serve-loop: open-loop single-loop predict requests on a seeded
///    Poisson arrival schedule, first at LowRate then at HighRate, each
///    timed from when it was due.
///  * serve-program: closed-loop clients, each request one whole
///    benchmark's loops.
///
/// Every response must be byte-identical to the rendered
/// PredictionService::predictUnbatched answer on the same bundle.
///
//===----------------------------------------------------------------------===//

#include "Fleet.h"
#include "Layers.h"

#include "core/ml/OutputCode.h"
#include "import/ImportedCorpus.h"
#include "ir/Printer.h"
#include "serve/Client.h"
#include "serve/Json.h"
#include "serve/ModelBundle.h"
#include "serve/Protocol.h"

#include <algorithm>
#include <atomic>
#include <random>
#include <stdexcept>
#include <thread>

using namespace metaopt;

namespace perfbench {

namespace {

/// Offered loads of serve-loop: about a quarter and a half of the fleet's
/// closed-loop single-loop capacity on a 4-thread machine.
constexpr double LowRate = 1500, HighRate = 3000;
/// Open-loop sender connections; far above the requests in flight at
/// either rate, so a send waits only when the fleet stalls.
constexpr unsigned Senders = 8;
constexpr unsigned WorkerThreads = 2;

/// One request the fleet is sent, and the only response it may return.
struct Request {
  std::string Line;
  std::string Expected;
  size_t Loops = 1;
};

/// Trains the served LS-SVM on \p Data and publishes it to \p Path.
void trainBundle(const std::vector<Benchmark> &Corpus, uint64_t CorpusSeed,
                 const Dataset &Data, const std::string &Path) {
  FeatureSet Features = paperReducedFeatureSet();
  SvmClassifier Svm(Features);
  {
    Span S("ml.svm_train");
    Svm.train(Data);
  }
  ModelBundle Bundle;
  Bundle.Provenance.ClassifierName = Svm.name();
  Bundle.Provenance.CreatedBy = "perfbench";
  Bundle.Provenance.MachineName = itanium2Config().Name;
  Bundle.Provenance.CorpusSeed = CorpusSeed;
  Bundle.Provenance.CorpusFingerprint =
      fingerprintHex(corpusFingerprint(Corpus));
  Bundle.Provenance.TrainingExamples = Data.size();
  Bundle.Provenance.CvMethod = "none";
  Bundle.Features = Features;
  Bundle.ClassifierBlob = Svm.serialize();
  std::string Error;
  if (!saveBundleFile(Bundle, Path, &Error))
    throw std::runtime_error("cannot publish the bundle: " + Error);
}

/// A request pool and the mean predictUnbatched time per request.
struct Pool {
  std::vector<Request> Requests;
  double UnbatchedUs = 0;
};

/// Renders a predict request per text, with its expected response:
/// PredictionService::predictUnbatched on the served bundle.
Pool makePool(const PredictionService &Reference,
              std::vector<std::pair<std::string, size_t>> Texts, Report &Out) {
  Pool Result;
  double Seconds = 0;
  for (auto &[Text, Loops] : Texts) {
    WireRequest Wire;
    Wire.LoopText = std::move(Text);
    PredictRequest Predict;
    Predict.LoopText = Wire.LoopText;
    Span S("serve.unbatched");
    PredictResponse Response = Reference.predictUnbatched(Predict);
    Seconds += S.stop();
    Out.op(Response.Status == PredictStatus::Ok &&
               Response.Loops.size() == Loops,
           "reference prediction failed: " + Response.Error);
    Result.Requests.push_back({renderRequestLine(Wire),
                               renderPredictResponse("", Response), Loops});
  }
  Result.UnbatchedUs = Seconds * 1e6 / static_cast<double>(Texts.size());
  return Result;
}

/// The single-loop pool: every printed corpus loop plus the imported
/// real-code kernels.
Pool loopRequests(const PredictionService &Reference,
                  const std::vector<Benchmark> &Corpus,
                  const std::string &RepoRoot, Report &Out) {
  std::vector<std::pair<std::string, size_t>> Texts;
  for (const Benchmark &Bench : Corpus)
    for (const CorpusLoop &Entry : Bench.Loops)
      Texts.emplace_back(printLoop(Entry.TheLoop), 1);
  ImportedCorpus Imported = loadImportedCorpus(RepoRoot + "/corpus/imported");
  Out.op(Imported.succeeded() && !Imported.Loops.empty(),
         "cannot import " + RepoRoot + "/corpus/imported");
  for (const ImportedLoop &Kernel : Imported.Loops)
    Texts.emplace_back(printLoop(Kernel.TheLoop), 1);
  return makePool(Reference, std::move(Texts), Out);
}

/// The program pool: one request per benchmark, all of its loops.
Pool programRequests(const PredictionService &Reference,
                     const std::vector<Benchmark> &Corpus, Report &Out) {
  std::vector<std::pair<std::string, size_t>> Texts;
  for (const Benchmark &Bench : Corpus) {
    std::string Text;
    for (const CorpusLoop &Entry : Bench.Loops)
      Text += printLoop(Entry.TheLoop) + "\n";
    Texts.emplace_back(std::move(Text), Bench.Loops.size());
  }
  return makePool(Reference, std::move(Texts), Out);
}

/// Sends \p R on \p Client (a span named \p Layer), checks the response,
/// and returns milliseconds from \p Due to the response.
double sendChecked(const char *Layer, ServeClient &Client, const Request &R,
                   uint64_t Id, Clock::time_point Due, Report &Out) {
  Span S(Layer, Id);
  std::optional<std::string> Response = Client.roundTrip(R.Line);
  S.stop();
  double Ms =
      std::chrono::duration<double, std::milli>(Clock::now() - Due).count();
  bool Ok = Response && *Response == R.Expected;
  Out.op(Ok, Ok         ? std::string()
             : Response ? "response differs from predictUnbatched: " +
                              Response->substr(0, 200)
                        : std::string("no response"));
  return Ms;
}

std::unique_ptr<ServeClient> connectOrThrow(const std::string &Address) {
  auto Client = std::make_unique<ServeClient>();
  std::string Error;
  if (!Client->connect(Address, &Error))
    throw std::runtime_error("cannot connect to " + Address + ": " + Error);
  Client->setIoTimeout(std::chrono::milliseconds(10000));
  return Client;
}

/// Request latencies, each tagged with the one-second window of the run
/// it was sent (or due) in.
struct Latencies {
  std::vector<double> Ms;
  std::vector<size_t> Window;

  void add(double Seconds, double LatencyMs) {
    Window.push_back(static_cast<size_t>(Seconds));
    Ms.push_back(LatencyMs);
  }
  void append(const Latencies &Other, size_t WindowOffset) {
    Ms.insert(Ms.end(), Other.Ms.begin(), Other.Ms.end());
    for (size_t W : Other.Window)
      Window.push_back(W + WindowOffset);
  }

  /// The lower quartile of the per-window medians. Hypervisor steal on a
  /// shared host arrives in bursts that slow whole windows; the quieter
  /// windows show what the fleet itself costs.
  double quietP50() const {
    std::vector<std::vector<double>> ByWindow;
    for (size_t I = 0; I < Ms.size(); ++I) {
      if (Window[I] >= ByWindow.size())
        ByWindow.resize(Window[I] + 1);
      ByWindow[Window[I]].push_back(Ms[I]);
    }
    std::vector<double> Medians;
    for (const std::vector<double> &W : ByWindow)
      if (W.size() >= 50)
        Medians.push_back(median(W));
    return quantile(Medians, 0.25);
  }
};

/// Sends a seeded Poisson schedule at \p Rate for \p Seconds from
/// Senders connections; each request is timed from when it was due.
/// \p LateMs receives how late each send was.
Latencies openLoop(const std::string &Address, const std::vector<Request> &Pool,
                   double Rate, double Seconds, std::mt19937_64 &Gen,
                   uint64_t &NextId, std::vector<double> &LateMs,
                   Report &Out) {
  std::exponential_distribution<double> Gap(Rate);
  std::uniform_int_distribution<size_t> Pick(0, Pool.size() - 1);
  std::vector<double> DueS;
  std::vector<size_t> Which;
  for (double T = Gap(Gen); T < Seconds; T += Gap(Gen)) {
    DueS.push_back(T);
    Which.push_back(Pick(Gen));
  }
  std::vector<double> LatencyMs(DueS.size()), Late(DueS.size());
  std::atomic<size_t> Next{0};
  uint64_t FirstId = NextId;
  NextId += DueS.size();
  std::vector<std::unique_ptr<ServeClient>> Clients;
  for (unsigned I = 0; I < Senders; ++I)
    Clients.push_back(connectOrThrow(Address));
  Clock::time_point Start = Clock::now() + std::chrono::milliseconds(20);
  auto Sender = [&](ServeClient &Client) {
    for (size_t I; (I = Next.fetch_add(1)) < DueS.size();) {
      Clock::time_point Due =
          Start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(DueS[I]));
      std::this_thread::sleep_until(Due);
      Late[I] =
          std::chrono::duration<double, std::milli>(Clock::now() - Due).count();
      LatencyMs[I] = sendChecked("gateway.round_trip", Client, Pool[Which[I]],
                                 FirstId + I, Due, Out);
    }
  };
  std::vector<std::thread> Threads;
  for (std::unique_ptr<ServeClient> &Client : Clients)
    Threads.emplace_back(Sender, std::ref(*Client));
  for (std::thread &T : Threads)
    T.join();
  Latencies Result;
  for (size_t I = 0; I < DueS.size(); ++I)
    Result.add(DueS[I], LatencyMs[I]);
  LateMs.insert(LateMs.end(), Late.begin(), Late.end());
  return Result;
}

/// min(4, hardware threads) clients, each sending its next seeded program
/// as soon as the previous one is answered, for \p Seconds. \p Loops
/// receives the loops answered.
Latencies closedLoop(const std::string &Address,
                     const std::vector<Request> &Pool, double Seconds,
                     uint64_t Seed, uint64_t &NextId, size_t &Loops,
                     Report &Out) {
  unsigned Clients = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<Latencies> PerClient(Clients);
  std::vector<size_t> LoopsPerClient(Clients);
  std::vector<std::unique_ptr<ServeClient>> Connections;
  for (unsigned C = 0; C < Clients; ++C)
    Connections.push_back(connectOrThrow(Address));
  std::atomic<uint64_t> Ids{NextId};
  Clock::time_point Start = Clock::now();
  auto Client = [&](unsigned C) {
    std::mt19937_64 Gen(Seed * 1000003 + C);
    std::uniform_int_distribution<size_t> Pick(0, Pool.size() - 1);
    for (double Sent; (Sent = secondsSince(Start)) < Seconds;) {
      const Request &R = Pool[Pick(Gen)];
      PerClient[C].add(Sent, sendChecked("gateway.round_trip",
                                         *Connections[C], R, Ids.fetch_add(1),
                                         Clock::now(), Out));
      LoopsPerClient[C] += R.Loops;
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back(Client, C);
  for (std::thread &T : Threads)
    T.join();
  Latencies Result;
  for (unsigned C = 0; C < Clients; ++C) {
    Result.append(PerClient[C], 0);
    Loops += LoopsPerClient[C];
  }
  NextId = Ids.load();
  return Result;
}

/// Median round trip of single-loop requests sent one at a time.
double medianRttUs(const char *Layer, const std::string &Address,
                   const std::vector<Request> &Pool, uint64_t &NextId,
                   Report &Out) {
  std::unique_ptr<ServeClient> Client = connectOrThrow(Address);
  std::vector<double> Us;
  for (size_t I = 0; I < 2000; ++I) {
    const Request &R = Pool[(I * 7919) % Pool.size()];
    Us.push_back(1000.0 *
                 sendChecked(Layer, *Client, R, NextId++, Clock::now(), Out));
  }
  return median(Us);
}

std::optional<JsonValue> stats(const std::string &Address) {
  return parseJson(controlRequest(Address, "{\"op\": \"stats\"}"));
}

/// The workers' and the gateway's own counters.
void reportFleetCounters(const Fleet &TheFleet, double UnbatchedUs,
                         Report &Out) {
  double Completed = 0, Batches = 0, Overloaded = 0, LatencyUs = 0;
  for (size_t I = 0; I < 2; ++I) {
    std::optional<JsonValue> W = stats(TheFleet.worker(I));
    if (!W) {
      Out.op(false, "worker stats unavailable");
      continue;
    }
    double N = W->getNumber("completed", 0);
    Completed += N;
    Batches += W->getNumber("batches", 0);
    Overloaded += W->getNumber("overloaded", 0);
    LatencyUs += N * W->getNumber("latency_mean_us", 0);
  }
  std::optional<JsonValue> G = stats(TheFleet.gateway());
  Out.op(G.has_value(), "gateway stats unavailable");
  double ServiceUs = Completed ? LatencyUs / Completed : 0;
  Out.metric("serve.service_us", ServiceUs, "us");
  Out.metric("serve.queue_wait_us", ServiceUs - UnbatchedUs, "us");
  Out.metric("serve.mean_batch", Batches ? Completed / Batches : 0, "count");
  Out.metric("serve.overloaded",
             Overloaded + (G ? G->getNumber("overloaded", 0) : 0), "count");
  Out.metric("gateway.failovers", G ? G->getNumber("failovers", 0) : 0,
             "count");
  Out.metric("gateway.unavailable", G ? G->getNumber("unavailable", 0) : 0,
             "count");
}

} // namespace

int runServe(const RunOptions &Options, Report &Out) {
  const bool Program = Options.Workload == "serve-program";
  const Pin &P = pinFor(Options.Seed);
  Out.provenance("worker_threads", std::to_string(WorkerThreads));
  const std::string BundlePath = Options.WorkDir + "/serve.bundle";

  std::vector<Benchmark> Corpus;
  double CorpusS = 0;
  Labeled Off;
  SimCacheStats LabelStats;
  std::unique_ptr<Fleet> TheFleet;
  Out.metric("setup_s", timeSetups(
                            [&] {
                              Corpus = buildCorpus(P.CorpusSeed, CorpusS);
                              SimCache Cache;
                              Off = labelCorpus(Corpus, false, Cache);
                              LabelStats = Cache.stats();
                              trainBundle(Corpus, P.CorpusSeed, Off.Data,
                                          BundlePath);
                              TheFleet = std::make_unique<Fleet>();
                              std::string Error;
                              if (!TheFleet->start(Options, BundlePath,
                                                   WorkerThreads, &Error))
                                throw std::runtime_error(Error);
                            },
                            [&] {
                              if (TheFleet)
                                Out.op(TheFleet->stop(),
                                       "fleet did not drain cleanly");
                            }),
             "s");
  Out.op(Options.PrintPins || datasetDigest(Off.Data) == P.NoSwp,
         "served training set differs from the pinned labeling");

  std::string Error;
  std::optional<ModelBundle> Bundle = loadBundleFile(BundlePath, &Error);
  if (!Bundle)
    throw std::runtime_error("cannot reload the bundle: " + Error);
  PredictionService Reference(*Bundle);
  Pool Requests = Program ? programRequests(Reference, Corpus, Out)
                          : loopRequests(Reference, Corpus, Options.RepoRoot,
                                         Out);
  const std::vector<Request> &Pool = Requests.Requests;
  uint64_t NextId = 1;

  Latencies All;
  if (Program) {
    size_t Loops = 0;
    Clock::time_point Start = Clock::now();
    All = closedLoop(TheFleet->gateway(), Pool, Options.Seconds, Options.Seed,
                     NextId, Loops, Out);
    Out.metric("program_loops_per_s", Loops / secondsSince(Start), "1/s");
    Out.metric("program_p50_ms", median(All.Ms), "ms");
    Out.metric("program_p99_ms", quantile(All.Ms, 0.99), "ms");
  } else {
    std::mt19937_64 Gen(Options.Seed);
    std::vector<double> LateMs;
    Latencies Low = openLoop(TheFleet->gateway(), Pool, LowRate,
                             Options.Seconds / 2, Gen, NextId, LateMs, Out);
    Latencies High = openLoop(TheFleet->gateway(), Pool, HighRate,
                              Options.Seconds / 2, Gen, NextId, LateMs, Out);
    Out.metric("serve_low_p50_ms", median(Low.Ms), "ms");
    Out.metric("serve_low_p99_ms", quantile(Low.Ms, 0.99), "ms");
    Out.metric("serve_low_requests", static_cast<double>(Low.Ms.size()),
               "count");
    Out.metric("serve_high_p50_ms", median(High.Ms), "ms");
    Out.metric("serve_high_p99_ms", quantile(High.Ms, 0.99), "ms");
    Out.metric("serve_high_requests", static_cast<double>(High.Ms.size()),
               "count");
    Out.metric("loadgen.late_p99_ms", quantile(LateMs, 0.99), "ms");
    All.append(Low, 0);
    All.append(High, static_cast<size_t>(Options.Seconds / 2) + 1);
  }
  Out.metric("p50_ms", All.quietP50(), "ms");
  Out.metric("units", static_cast<double>(All.Ms.size()), "count");

  if (Options.Trace) {
    Out.metric("serve.unbatched_us", Requests.UnbatchedUs, "us");
    reportFleetCounters(*TheFleet, Requests.UnbatchedUs, Out);
    // Transport and the gateway hop, on single-loop requests.
    std::vector<Request> Singles =
        Program ? loopRequests(Reference, Corpus, Options.RepoRoot, Out)
                      .Requests
                : Pool;
    double WorkerUs = medianRttUs("serve.round_trip", TheFleet->worker(0),
                                  Singles, NextId, Out);
    double GatewayUs = medianRttUs("gateway.round_trip", TheFleet->gateway(),
                                   Singles, NextId, Out);
    Out.metric("serve.worker_rtt_us", WorkerUs, "us");
    Out.metric("gateway.hop_us", GatewayUs - WorkerUs, "us");
    reportLabeling({&Off}, LabelStats, CorpusS, Out);
    Out.metric("driver.label_noswp_s", Off.Seconds, "s");
    probeCappedLoocv(Off.Data, *probeCappedTraining(Off.Data, Out), Out);
    probeLayers(Corpus, Reference.classifier(), Options.Seed, Out);
  }
  Out.op(TheFleet->stop(), "fleet did not drain cleanly");
  Out.metric("peak_rss_mb", peakRssMb(), "MB");
  return 0;
}

} // namespace perfbench
