// serve-churn: an in-process serve::Server on loopback that writes a serve
// checkpoint at every lockstep boundary, fed by one closed-loop
// serve::Client. The client opens a short traced COVID session (2 hours of
// video, a plan every hour, a 64 MiB buffer so it bursts to the cloud),
// fetches its result, and opens the next; one round is 240 sessions through
// one server. Three known faults stay
// visible on purpose (see README.md): the fleet thread copies the whole
// session registry on every step, fleet slots are never reused, and every
// admission re-parses the model file and rebuilds the workload.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "api/skyscraper.h"
#include "api/workload_registry.h"
#include "core/multi_stream.h"
#include "io/model_io.h"
#include "serve/client.h"
#include "serve/server.h"
#include "stats.h"
#include "workloads.h"

namespace vetl {

namespace {

namespace api = sky::api;
namespace core = sky::core;
namespace serve = sky::serve;

constexpr char kWorkload[] = "covid";
constexpr double kSegmentS = 4.0;
constexpr double kTrainDays = 8.0;
constexpr double kSessionHours = 2.0;
constexpr double kPlanHours = 1.0;
constexpr size_t kCategories = 3;
constexpr int kCores = 2;
constexpr double kCloudUsdPerInterval = 0.05;
/// A buffer that a 2-hour session can fill, so sessions burst to the cloud.
constexpr uint64_t kBufferBytes = 64ull << 20;
/// One client: each session then runs alone in the fleet, so its result is
/// a function of the seed (with two, results depend on which sessions share
/// a boundary) and admission measures the admission path, not a wait for
/// the next boundary.
constexpr size_t kClients = 1;
constexpr size_t kSessionsPerClient = 240;
constexpr size_t kSetups = 5;
/// Wall seconds one round of sessions takes on the reference host.
constexpr double kNominalRoundS = 15.0;
/// Served sessions compared bitwise with an in-process run, per check.
constexpr size_t kInProcessChecks = 8;
/// Requests per traced probe (Metrics round trips, replayed admissions).
constexpr size_t kProbes = 64;

api::Resources SessionResources() {
  api::Resources r;
  r.cores = kCores;
  r.cloud_budget_usd_per_interval = kCloudUsdPerInterval;
  r.buffer_bytes = kBufferBytes;
  return r;
}

serve::SessionSpec Spec(const RunArgs& args, size_t session) {
  serve::SessionSpec spec;
  spec.workload = kWorkload;
  spec.content_seed = DeriveSeed(args.seed, 1000 + session);
  spec.start_days = kTrainDays;
  spec.duration_days = kSessionHours / 24.0;
  spec.plan_interval_days = kPlanHours / 24.0;
  spec.engine_seed = DeriveSeed(args.seed, 40);
  spec.record_trace = true;
  return spec;
}

/// Fits and saves the served model. Returns its path.
sky::Result<std::string> FitModel(const RunArgs& args, size_t rep) {
  auto workload = api::MakeWorkloadByName(kWorkload, DeriveSeed(args.seed, 41));
  api::Skyscraper trainer(workload.get());
  trainer.SetResources(SessionResources());
  core::OfflineOptions o;
  o.segment_seconds = kSegmentS;
  o.train_horizon = sky::Days(kTrainDays);
  o.num_categories = kCategories;
  o.forecaster.input_span = sky::Hours(4 * kPlanHours);
  o.forecaster.planned_interval = sky::Hours(kPlanHours);
  o.seed = DeriveSeed(args.seed, 42);
  SKY_RETURN_NOT_OK(trainer.Fit(o));
  std::string path =
      args.out_dir + "/serve-churn-model-" + std::to_string(rep) + ".bin";
  SKY_RETURN_NOT_OK(trainer.SaveModel(path, workload->name()));
  return path;
}

serve::ServerOptions Options(const RunArgs& args,
                             const std::string& model_path) {
  serve::ServerOptions o;
  o.model_path = model_path;
  o.workload = kWorkload;
  o.resources = SessionResources();
  o.checkpoint_path = args.out_dir + "/serve-churn-checkpoint.bin";
  o.checkpoint_every_boundaries = 1;
  return o;
}

struct Served {
  size_t session = 0;          ///< index into the round's specs
  double finished_s = 0.0;     ///< result fetched, since the round began
  double admission_ms = 0.0;   ///< OpenSession round trip
  core::EngineResult result;
};

struct Round {
  std::vector<Served> sessions;  ///< in completion order
  double wall_s = 0.0;      ///< net of stolen time (StealClock)
  double raw_wall_s = 0.0;  ///< plain wall time
  std::vector<double> metrics_rtt_us;
  size_t opened = 0;  ///< sessions admitted
  size_t failures = 0;
  std::string first_error;
};

/// One round: start a server, let the clients churn their sessions, drain.
/// With `tracer` enabled every client call is a span, and the idle server
/// answers kProbes Metrics requests before the drain.
Round RunRound(const RunArgs& args, const std::string& model_path,
               Tracer* tracer) {
  Round round;
  std::mutex mu;  // guards round
  auto fail = [&](const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    if (round.failures++ == 0) round.first_error = what;
  };
  auto server = serve::Server::Start(Options(args, model_path));
  if (!server.ok()) {
    fail("server start: " + server.status().ToString());
    return round;
  }
  const int port = (*server)->port();
  const size_t clients = kClients;
  auto begin = Clock::now();
  StealClock clock;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto client = serve::Client::Connect(port);
      if (!client.ok()) {
        fail("connect: " + client.status().ToString());
        return;
      }
      for (size_t s = 0; s < kSessionsPerClient; ++s) {
        Span session(tracer, "serve", "session");
        Served served;
        served.session = c * kSessionsPerClient + s;
        std::optional<sky::Result<std::pair<uint64_t, uint64_t>>> opened;
        {
          Span span(tracer, "serve", "Client::OpenSession");
          auto t0 = Clock::now();
          opened.emplace(client->OpenSession(Spec(args, served.session)));
          served.admission_ms = MsSince(t0);
        }
        if (!opened->ok()) {
          fail("open: " + opened->status().ToString());
          return;
        }
        {
          std::lock_guard<std::mutex> lock(mu);
          ++round.opened;
        }
        std::optional<sky::Result<core::EngineResult>> fetched;
        {
          Span span(tracer, "serve", "Client::FetchResult");
          fetched.emplace(client->FetchResult((*opened)->first));
        }
        if (!fetched->ok()) {
          fail("fetch: " + fetched->status().ToString());
          return;
        }
        served.finished_s = SecondsSince(begin);
        served.result = std::move(**fetched);
        std::lock_guard<std::mutex> lock(mu);
        round.sessions.push_back(std::move(served));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  round.wall_s = clock.NetSeconds();
  round.raw_wall_s = SecondsSince(begin);

  auto control = serve::Client::Connect(port);
  if (!control.ok()) {
    fail("connect: " + control.status().ToString());
  } else {
    for (size_t i = 0; tracer->enabled() && i < kProbes; ++i) {
      TimedSpan span(tracer, "serve", "Client::Metrics", &round.metrics_rtt_us);
      if (!control->Metrics().ok()) fail("metrics request");
    }
    if (!control->Drain().ok()) fail("drain request");
  }
  sky::Status terminal = (*server)->Wait();
  if (!terminal.ok()) fail("server: " + terminal.ToString());
  std::sort(round.sessions.begin(), round.sessions.end(),
            [](const Served& a, const Served& b) {
              return a.finished_s < b.finished_s;
            });
  return round;
}

uint64_t Segments(const Round& round) {
  uint64_t n = 0;
  for (const Served& s : round.sessions) n += s.result.segments;
  return n;
}

/// Segments/s over the last quarter of completed sessions divided by the
/// rate over the first quarter.
double ThroughputDecay(const Round& round) {
  const size_t n = round.sessions.size();
  const size_t q = n / 4;
  if (q == 0) return 0.0;
  double first_segs = 0.0, last_segs = 0.0;
  for (size_t i = 0; i < q; ++i) {
    first_segs += static_cast<double>(round.sessions[i].result.segments);
    last_segs += static_cast<double>(round.sessions[n - 1 - i].result.segments);
  }
  double first_rate = first_segs / round.sessions[q - 1].finished_s;
  double last_rate = last_segs / (round.sessions[n - 1].finished_s -
                                  round.sessions[n - 1 - q].finished_s);
  return last_rate / first_rate;
}

/// The session's result from an in-process joint StreamSet holding only it:
/// what the server computes for a session that runs alone in its fleet.
sky::Result<core::EngineResult> InProcess(const RunArgs& args,
                                          const std::string& model_path,
                                          size_t session) {
  serve::SessionSpec spec = Spec(args, session);
  auto workload = api::MakeWorkloadByName(spec.workload, spec.content_seed);
  api::Skyscraper sky(workload.get());
  sky.SetResources(SessionResources());
  SKY_RETURN_NOT_OK(sky.LoadModel(model_path, workload->name()));
  core::EngineOptions o;
  o.duration = sky::Days(spec.duration_days);
  o.plan_interval = sky::Days(spec.plan_interval_days);
  o.seed = spec.engine_seed;
  o.record_trace = spec.record_trace;
  o.trace_resolution_s = spec.trace_resolution_s;
  SKY_ASSIGN_OR_RETURN(core::StreamEngineJob job,
                       sky.MakeStreamJob(sky::Days(spec.start_days), o));
  core::StreamSetOptions set_opts;
  set_opts.planning = core::MultiStreamPlanning::kJoint;
  SKY_ASSIGN_OR_RETURN(core::StreamSet set,
                       core::StreamSet::Create({job}, set_opts));
  while (!set.Done()) SKY_RETURN_NOT_OK(set.Step());
  return set.Results()[0];
}

/// Bitwise equality of a served and an in-process result. After the first
/// session of a server, the planned cloud spend a trace records
/// (TracePoint::cloud_usd_planned) can differ from a fresh fleet's in the
/// last bit, so later sessions are compared on every other field.
bool SameServedResult(const core::EngineResult& in_process,
                      const core::EngineResult& served, bool first) {
  if (first) return core::EngineResultsIdentical(in_process, served);
  core::EngineResult a = in_process;
  core::EngineResult b = served;
  for (core::EngineResult* r : {&a, &b}) {
    for (core::TracePoint& p : r->trace) p.cloud_usd_planned = 0.0;
  }
  return core::EngineResultsIdentical(a, b);
}

/// Every session must have been admitted and returned a finished result
/// with the method's properties. With `full` each traced segment's quality
/// is recomputed, and the first sessions are compared bitwise with the same
/// session run in-process (one client means each session runs alone).
void CheckRound(const RunArgs& args, const Round& round,
                const std::string& model_path, bool full, Report* report) {
  std::optional<sky::Result<core::OfflineModel>> model;
  if (full) model.emplace(sky::io::LoadOfflineModel(model_path));
  report->Check(!full || model->ok(), "serve-churn: load the served model");
  full = full && model->ok();
  const size_t expected = kClients * kSessionsPerClient;
  report->Check(round.failures == 0,
                "serve-churn: " + std::to_string(round.failures) +
                    " failed client calls, first: " + round.first_error);
  report->Check(round.sessions.size() == expected,
                "serve-churn: " + std::to_string(round.sessions.size()) +
                    " of " + std::to_string(expected) +
                    " sessions returned a result");
  report->Count("opens", expected, expected - round.opened);
  report->Count("fetches", round.opened, round.opened - round.sessions.size());
  report->Count("segments", Segments(round));
  StreamBounds b;
  b.segments = static_cast<int64_t>(sky::Hours(kSessionHours) / kSegmentS);
  // A served result does not carry the backlog its run ended with, so the
  // on-premise bound is checked on ingest-covid and fleet-mixed only.
  b.onprem_cap_core_s = std::numeric_limits<double>::infinity();
  double cloud = 0.0;
  for (const Served& s : round.sessions) {
    const std::string label = "serve-churn session " + std::to_string(s.session);
    CheckStream(report, label, s.result, b, /*check_cloud=*/false);
    cloud += s.result.cloud_usd;
    if (full) {
      // Served traces sample every 300 s, so each traced segment is checked
      // but the mean cannot be rebuilt from them.
      auto workload = api::MakeWorkloadByName(
          kWorkload, Spec(args, s.session).content_seed);
      CheckQualityRecompute(report, label, *workload, **model, s.result,
                            /*full=*/false);
    }
    if (full && kClients == 1 && s.session < kInProcessChecks) {
      auto reference = InProcess(args, model_path, s.session);
      report->Check(reference.ok() && SameServedResult(*reference, s.result,
                                                       s.session == 0),
                    label + ": served result differs from the same session "
                            "run in-process");
    }
  }
  // Joint planning pools credits across the sessions that share a fleet,
  // so the cap is on the total.
  double cap = kCloudUsdPerInterval * static_cast<double>(expected) *
               static_cast<double>(IntervalsIn(sky::Hours(kSessionHours),
                                               sky::Hours(kPlanHours)));
  report->Check(cloud <= cap * (1.0 + 1e-9),
                "serve-churn: cloud spend " + std::to_string(cloud) +
                    " USD exceeds budget x intervals " + std::to_string(cap));
}

}  // namespace

void RunServeChurn(const RunArgs& args, Report* report) {
  // --- Set-up: fit, save, start the server up to accepting ----------------
  std::vector<double> setup_s;
  std::string model_path;
  for (size_t rep = 0; rep < kSetups; ++rep) {
    StealClock clock;
    auto path = FitModel(args, rep);
    report->Check(path.ok(), "serve-churn: fit: " + path.status().ToString());
    if (!path.ok()) return;
    auto server = serve::Server::Start(Options(args, *path));
    report->Check(server.ok(), "serve-churn: server start");
    if (!server.ok()) return;
    setup_s.push_back(clock.NetSeconds());
    model_path = *path;
  }  // each server is hard-stopped by its destructor

  // --- Rounds; the first is checked in full --------------------------------
  Tracer off(false);
  std::vector<double> rates, wall_rates, cloud, admission_ms;
  double total_quality = 0.0, segments = 0.0;
  // A fixed number of rounds per --seconds, not a time loop: the peak
  // resident set grows with the round count (each round is a new server),
  // so the count must not depend on how fast the host happens to be.
  const size_t rounds = static_cast<size_t>(
      std::max(1.0, std::round(args.seconds / kNominalRoundS)));
  while (rates.size() < rounds) {
    Round round = RunRound(args, model_path, &off);
    CheckRound(args, round, model_path, /*full=*/rates.empty(), report);
    if (round.sessions.empty()) return;
    rates.push_back(static_cast<double>(Segments(round)) / round.wall_s);
    wall_rates.push_back(static_cast<double>(Segments(round)) /
                         round.raw_wall_s);
    double round_cloud = 0.0;
    for (const Served& s : round.sessions) {
      admission_ms.push_back(s.admission_ms);
      total_quality += s.result.total_quality;
      segments += static_cast<double>(s.result.segments);
      round_cloud += s.result.cloud_usd;
    }
    cloud.push_back(round_cloud);
  }
  report->Check(SamplesBeyond(admission_ms.size(), 90.0) >= kMinTailSamples,
                "serve-churn: too few admissions for a p90");
  std::printf("serve-churn: %zu clients, %zu set-ups, %zu rounds of %zu "
              "sessions, %zu admissions\n",
              kClients, setup_s.size(), rates.size(),
              kClients * kSessionsPerClient, admission_ms.size());
  PrintRates("serve-churn", rates, wall_rates);
  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("segments_per_s", Median(rates), "segments/s");
  report->Metric("quality_mean", total_quality / segments, "fraction");
  report->Metric("cloud_usd", Median(cloud), "USD");
  report->Metric("peak_rss_mb", PeakRssMiB(), "MiB");
  report->Metric("admission_ms_p50", Percentile(admission_ms, 50.0), "ms");
  report->Metric("admission_ms_p90", Percentile(admission_ms, 90.0), "ms");
}

void TraceServeChurn(const RunArgs& args, Tracer* tracer, Report* report) {
  auto path = FitModel(args, 0);
  report->Check(path.ok(), "serve-churn: fit: " + path.status().ToString());
  if (!path.ok()) return;
  Tracer off(false);
  Round warm = RunRound(args, *path, &off);
  CheckRound(args, warm, *path, /*full=*/false, report);
  Round untraced = RunRound(args, *path, &off);
  CheckRound(args, untraced, *path, /*full=*/false, report);
  Round traced = RunRound(args, *path, tracer);
  CheckRound(args, traced, *path, /*full=*/true, report);

  // --- The admission path's parts, replayed in-process ---------------------
  std::vector<double> make_us, add_us;
  auto set = core::StreamSet::Create({}, core::StreamSetOptions{});
  report->Check(set.ok(), "serve-churn: in-process set");
  if (!set.ok()) return;
  std::vector<std::unique_ptr<core::Workload>> workloads;
  std::vector<std::unique_ptr<api::Skyscraper>> facades;
  for (size_t i = 0; i < kProbes; ++i) {
    serve::SessionSpec spec = Spec(args, i);
    {
      TimedSpan span(tracer, "workloads", "MakeWorkloadByName", &make_us);
      workloads.push_back(
          api::MakeWorkloadByName(spec.workload, spec.content_seed));
    }
    facades.push_back(std::make_unique<api::Skyscraper>(workloads.back().get()));
    facades.back()->SetResources(SessionResources());
    {
      Span span(tracer, "io", "Skyscraper::LoadModel");
      report->Check(
          facades.back()->LoadModel(*path, workloads.back()->name()).ok(),
                    "serve-churn: LoadModel");
    }
    core::EngineOptions o;
    o.duration = sky::Hours(kSessionHours);
    o.plan_interval = sky::Hours(kPlanHours);
    auto job = facades.back()->MakeStreamJob(sky::Days(kTrainDays), o);
    report->Check(job.ok(), "serve-churn: MakeStreamJob");
    if (!job.ok()) return;
    TimedSpan span(tracer, "fleet", "StreamSet::AddStream", &add_us);
    report->Check(set->AddStream(*job).ok(), "serve-churn: AddStream");
  }
  report->Count("streams", kProbes);

  report->Metric("workloads.make_ms", Median(make_us) * 1e-3, "ms");
  report->Metric("serve.rtt_ms_p50", Median(traced.metrics_rtt_us) * 1e-3,
                 "ms");
  report->Metric("serve.add_stream_ms", Median(add_us) * 1e-3, "ms");
  report->Metric("serve.throughput_decay", ThroughputDecay(traced), "ratio");
  report->Metric("trace.overhead.serve-churn", traced.wall_s / untraced.wall_s,
                 "ratio");
}

}  // namespace vetl
