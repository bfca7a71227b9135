// fleet-mixed: one joint core::StreamSet of ten mixed cameras (two each of
// covid, mot, ev, drift and flash-crowd, interleaved in that order) run with
// RunToCompletion at WorkerCount() workers. All cameras share 4 s segments
// and a 3-hour plan interval, so lockstep boundaries come 8 times a day and
// the joint planner runs at every one. Per-stream cost is uneven (COVID has
// 18 filtered configurations, EV 8) and the scenario cameras are
// adversarial to the forecaster.

#include <cstdio>
#include <limits>
#include <memory>
#include <optional>

#include "api/skyscraper.h"
#include "api/workload_registry.h"
#include "dag/thread_pool.h"
#include "stats.h"
#include "workloads.h"

namespace vetl {

namespace {

namespace api = sky::api;
namespace core = sky::core;

const char* const kFamilies[] = {"covid", "mot", "ev", "drift", "flash-crowd"};
constexpr size_t kNumFamilies = 5;
constexpr size_t kCamerasPerFamily = 2;
constexpr double kSegmentS = 4.0;
constexpr double kTrainDays = 4.0;
constexpr double kIngestDays = 1.0;
constexpr double kPlanHours = 3.0;
constexpr size_t kCategories = 3;
constexpr int kCoresPerStream = 2;
constexpr double kCloudUsdPerInterval = 0.05;
/// A buffer small enough that cameras burst to the cloud within a day.
constexpr uint64_t kBufferBytes = 64ull << 20;
constexpr size_t kSetups = 5;
/// Rounds at least: 10 rounds x 10 cameras give the 100 admissions a p90
/// needs.
constexpr size_t kMinRounds = 10;

api::Resources StreamResources() {
  api::Resources r;
  r.cores = kCoresPerStream;
  r.cloud_budget_usd_per_interval = kCloudUsdPerInterval;
  r.buffer_bytes = kBufferBytes;
  return r;
}

core::OfflineOptions FamilyOffline(uint64_t seed) {
  core::OfflineOptions o;
  o.segment_seconds = kSegmentS;
  o.train_horizon = sky::Days(kTrainDays);
  o.num_categories = kCategories;
  o.forecaster.input_span = sky::Hours(4 * kPlanHours);
  o.forecaster.planned_interval = sky::Hours(kPlanHours);
  o.seed = DeriveSeed(seed, 23);
  return o;
}

core::EngineOptions StreamIngest(uint64_t seed, size_t camera) {
  core::EngineOptions o;
  o.duration = sky::Days(kIngestDays);
  o.plan_interval = sky::Hours(kPlanHours);
  o.seed = DeriveSeed(seed, 300 + camera);
  return o;
}

struct Camera {
  std::unique_ptr<core::Workload> workload;
  std::unique_ptr<api::Skyscraper> facade;
};

struct Fleet {
  std::vector<Camera> cameras;  ///< camera i is of family i % kNumFamilies
};

/// One offline fit per family, saved; then every camera loads its family's
/// model, the way serving processes do. Returns the seconds (StealClock).
sky::Result<double> SetUpFleet(const RunArgs& args, size_t rep, Fleet* fleet) {
  StealClock clock;
  std::vector<std::string> paths;
  for (size_t f = 0; f < kNumFamilies; ++f) {
    auto workload =
        api::MakeWorkloadByName(kFamilies[f], DeriveSeed(args.seed, 100 + f));
    if (workload == nullptr) return sky::Status::NotFound(kFamilies[f]);
    api::Skyscraper trainer(workload.get());
    trainer.SetResources(StreamResources());
    SKY_RETURN_NOT_OK(trainer.Fit(FamilyOffline(args.seed)));
    paths.push_back(args.out_dir + "/fleet-mixed-" + kFamilies[f] + "-" +
                    std::to_string(rep) + ".bin");
    SKY_RETURN_NOT_OK(trainer.SaveModel(paths.back(), kFamilies[f]));
  }
  fleet->cameras.clear();
  for (size_t i = 0; i < kNumFamilies * kCamerasPerFamily; ++i) {
    size_t f = i % kNumFamilies;
    uint64_t content = i < kNumFamilies ? DeriveSeed(args.seed, 100 + f)
                                        : DeriveSeed(args.seed, 200 + i);
    Camera cam;
    cam.workload = api::MakeWorkloadByName(kFamilies[f], content);
    cam.facade = std::make_unique<api::Skyscraper>(cam.workload.get());
    cam.facade->SetResources(StreamResources());
    SKY_RETURN_NOT_OK(cam.facade->LoadModel(paths[f], kFamilies[f]));
    fleet->cameras.push_back(std::move(cam));
  }
  return clock.NetSeconds();
}

sky::Result<std::vector<core::StreamEngineJob>> Jobs(const Fleet& fleet,
                                                     const RunArgs& args,
                                                     bool record_trace) {
  std::vector<core::StreamEngineJob> jobs;
  for (size_t i = 0; i < fleet.cameras.size(); ++i) {
    core::EngineOptions o = StreamIngest(args.seed, i);
    if (record_trace) {
      o.record_trace = true;
      o.trace_resolution_s = kSegmentS;
    }
    SKY_ASSIGN_OR_RETURN(core::StreamEngineJob job,
                         fleet.cameras[i].facade->MakeStreamJob(
                             sky::Days(kTrainDays), o));
    jobs.push_back(job);
  }
  return jobs;
}

core::StreamSetOptions JointOptions() {
  core::StreamSetOptions o;
  o.planning = core::MultiStreamPlanning::kJoint;
  return o;
}

/// All streams' results, or the first error.
sky::Result<std::vector<core::EngineResult>> Collect(
    const core::StreamSet& set) {
  std::vector<core::EngineResult> out;
  for (auto& r : set.Results()) {
    if (!r.ok()) return r.status();
    out.push_back(std::move(*r));
  }
  return out;
}

bool SameResults(const std::vector<core::EngineResult>& a,
                 const std::vector<core::EngineResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t v = 0; v < a.size(); ++v) {
    if (!core::EngineResultsIdentical(a[v], b[v])) return false;
  }
  return true;
}

uint64_t Segments(const std::vector<core::EngineResult>& results) {
  uint64_t n = 0;
  for (const auto& r : results) n += r.segments;
  return n;
}

/// Builds the fleet by admitting one camera at a time at boundary 0 (each
/// admission timed into `admission_ms`, when given) and runs it on `pool`.
sky::Result<std::vector<core::EngineResult>> AdmitAndRun(
    const Fleet& fleet, const RunArgs& args, sky::dag::ThreadPool* pool,
    std::vector<double>* admission_ms, double* run_s, double* wall_s) {
  SKY_ASSIGN_OR_RETURN(core::StreamSet set,
                       core::StreamSet::Create({}, JointOptions()));
  for (size_t i = 0; i < fleet.cameras.size(); ++i) {
    auto t0 = Clock::now();
    SKY_ASSIGN_OR_RETURN(core::StreamEngineJob job,
                         fleet.cameras[i].facade->MakeStreamJob(
                             sky::Days(kTrainDays), StreamIngest(args.seed, i)));
    SKY_RETURN_NOT_OK(set.AddStream(job).status());
    if (admission_ms != nullptr) admission_ms->push_back(MsSince(t0));
  }
  auto t0 = Clock::now();
  StealClock clock;
  SKY_RETURN_NOT_OK(set.RunToCompletion(pool));
  *run_s = clock.NetSeconds();
  *wall_s = SecondsSince(t0);
  return Collect(set);
}

/// Runs jobs from a fresh Create on `pool`.
sky::Result<std::vector<core::EngineResult>> CreateAndRun(
    const std::vector<core::StreamEngineJob>& jobs,
    sky::dag::ThreadPool* pool, double* run_s) {
  SKY_ASSIGN_OR_RETURN(core::StreamSet set,
                       core::StreamSet::Create(jobs, JointOptions()));
  StealClock clock;
  SKY_RETURN_NOT_OK(set.RunToCompletion(pool));
  *run_s = clock.NetSeconds();
  return Collect(set);
}

/// Steps a joint set one segment at a time, checking the installed plans at
/// every lockstep boundary, then checks every stream's result.
void VerifyFleet(const Fleet& fleet, const RunArgs& args,
                 const std::vector<core::EngineResult>& reference,
                 Report* report) {
  auto jobs = Jobs(fleet, args, /*record_trace=*/true);
  report->Check(jobs.ok(), "fleet-mixed: verification jobs");
  if (!jobs.ok()) return;
  auto set = core::StreamSet::Create(*jobs, JointOptions());
  report->Check(set.ok(), "fleet-mixed: verification set");
  if (!set.ok()) return;
  size_t boundary = 0;
  while (!set->Done()) {
    bool at_boundary = set->AtLockstepBoundary();
    sky::Status st = set->Step();
    if (!st.ok()) {
      report->Check(false, "fleet-mixed: verification step: " + st.ToString());
      return;
    }
    if (!at_boundary) continue;
    const std::string label =
        "fleet-mixed boundary " + std::to_string(boundary++);
    std::vector<core::StreamPlanInput> inputs;
    double budget = 0.0, joint_work = 0.0, joint_quality = 0.0;
    double separate_quality = 0.0;
    bool all_fallback = true;
    for (size_t v = 0; v < set->num_streams(); ++v) {
      const core::IngestionEngine* e = set->engine(v);
      const core::KnobPlan& plan = *e->current_plan();
      const core::KnobPlan fallback = e->FallbackPlan(e->boundary_forecast());
      const double own_budget = e->PlanBudgetCoreSPerVideoS();
      // Each row a distribution; the per-stream budget does not bind a
      // joint plan, so the work check is on the sum below.
      CheckPlan(report, label + " stream " + std::to_string(v), plan,
                std::numeric_limits<double>::infinity(), fallback);
      all_fallback = all_fallback && SameAlpha(plan, fallback);
      budget += own_budget;
      joint_work += plan.expected_work;
      joint_quality += plan.expected_quality;
      auto separate = core::ComputeKnobPlan(e->model().categories,
                                            e->boundary_forecast(),
                                            e->config_costs(), own_budget);
      separate_quality +=
          separate.ok() ? separate->expected_quality : fallback.expected_quality;
    }
    if (!all_fallback) {
      report->Check(joint_work <= budget * (1.0 + 1e-9),
                    label + ": joint plan expects " +
                        std::to_string(joint_work) +
                        " core-s/s over the shared budget " +
                        std::to_string(budget));
    }
    report->Check(joint_quality >= separate_quality * (1.0 - 1e-9),
                  label + ": joint expected quality " +
                      std::to_string(joint_quality) +
                      " below the per-stream plans' " +
                      std::to_string(separate_quality));
  }
  auto results = Collect(*set);
  report->Check(results.ok(), "fleet-mixed: verification results");
  if (!results.ok()) return;
  report->Count("segments", Segments(*results));
  double cloud = 0.0;
  for (size_t v = 0; v < results->size(); ++v) {
    const std::string label = "fleet-mixed stream " + std::to_string(v);
    const core::EngineResult& r = (*results)[v];
    report->Check(SameExceptTrace(r, reference[v]),
                  label + ": tracing every segment changed the result");
    StreamBounds b;
    b.segments = static_cast<int64_t>(sky::Days(kIngestDays) / kSegmentS);
    b.onprem_cap_core_s = OnPremCap(kCoresPerStream, sky::Days(kIngestDays),
                                    set->engine(v)->lag_seconds());
    CheckStream(report, label, r, b, /*check_cloud=*/false);
    CheckQualityRecompute(report, label, *fleet.cameras[v].workload,
                          **fleet.cameras[v].facade->model(), r,
                          /*full=*/true);
    cloud += r.cloud_usd;
  }
  // Joint planning pools the credits, so the cap is on the fleet's total.
  double cap = kCloudUsdPerInterval * static_cast<double>(results->size()) *
               static_cast<double>(IntervalsIn(sky::Days(kIngestDays),
                                               sky::Hours(kPlanHours)));
  report->Check(cloud <= cap * (1.0 + 1e-9),
                "fleet-mixed: cloud spend " + std::to_string(cloud) +
                    " USD exceeds budget x intervals " + std::to_string(cap));
}

}  // namespace

void RunFleetMixed(const RunArgs& args, Report* report) {
  std::vector<double> setup_s;
  Fleet fleet;
  for (size_t rep = 0; rep < kSetups; ++rep) {
    fleet = Fleet{};
    auto took = SetUpFleet(args, rep, &fleet);
    report->Check(took.ok(), "fleet-mixed: set-up: " + took.status().ToString());
    if (!took.ok()) return;
    setup_s.push_back(*took);
  }
  auto jobs = Jobs(fleet, args, /*record_trace=*/false);
  report->Check(jobs.ok(), "fleet-mixed: jobs");
  if (!jobs.ok()) return;

  const size_t workers = WorkerCount();
  sky::dag::ThreadPool pool(workers);

  // --- Checks, which also warm up ------------------------------------------
  double unused_s = 0.0;
  auto serial = CreateAndRun(*jobs, nullptr, &unused_s);
  report->Check(serial.ok(), "fleet-mixed: 1-worker run");
  if (!serial.ok()) return;
  report->Count("segments", Segments(*serial));
  report->Count("streams", serial->size());
  auto parallel =
      AdmitAndRun(fleet, args, &pool, nullptr, &unused_s, &unused_s);
  report->Check(parallel.ok() && SameResults(*parallel, *serial),
                "fleet-mixed: results at " + std::to_string(workers) +
                    " workers (streams admitted one by one) differ from 1 "
                    "worker (one Create)");
  report->Count("segments", Segments(*serial));
  report->Count("streams", serial->size());
  {
    // Recovery from a mid-run checkpoint ends bitwise equal.
    const std::string path = args.out_dir + "/fleet-mixed-checkpoint.bin";
    auto set = core::StreamSet::Create(*jobs, JointOptions());
    sky::Status st = set.ok() ? set->RunUntilElapsed(
                                    sky::Days(kIngestDays) / 2)
                              : set.status();
    if (st.ok()) st = set->SaveCheckpoint(path);
    auto recovered =
        st.ok() ? core::StreamSet::RecoverFromCheckpoint(*jobs, path,
                                                         JointOptions())
                : sky::Result<core::StreamSet>(st);
    if (recovered.ok()) st = recovered->RunToCompletion(&pool);
    report->Check(recovered.ok() && st.ok(),
                  "fleet-mixed: checkpoint and recover: " + st.ToString());
    if (recovered.ok() && st.ok()) {
      auto results = Collect(*recovered);
      report->Check(results.ok() && SameResults(*results, *serial),
                    "fleet-mixed: the run recovered from a mid-run checkpoint "
                    "differs from the uninterrupted one");
      report->Count("segments", Segments(*serial));
  report->Count("streams", serial->size());
    }
  }
  VerifyFleet(fleet, args, *serial, report);

  // --- Timed rounds ---------------------------------------------------------
  std::vector<double> rates, wall_rates;
  std::vector<double> admission_ms;
  auto begin = Clock::now();
  while (rates.size() < kMinRounds || SecondsSince(begin) < args.seconds) {
    double run_s = 0.0, wall_s = 0.0;
    auto results =
        AdmitAndRun(fleet, args, &pool, &admission_ms, &run_s, &wall_s);
    report->Check(results.ok() && SameResults(*results, *serial),
                  "fleet-mixed: a timed round differs from the checked run");
    if (!results.ok()) return;
    report->Count("segments", Segments(*results));
    report->Count("streams", results->size());
    rates.push_back(static_cast<double>(Segments(*results)) / run_s);
    wall_rates.push_back(static_cast<double>(Segments(*results)) / wall_s);

  }

  double total_quality = 0.0, cloud = 0.0;
  for (const auto& r : *serial) {
    total_quality += r.total_quality;
    cloud += r.cloud_usd;
  }
  report->Check(SamplesBeyond(admission_ms.size(), 90.0) >= kMinTailSamples,
                "fleet-mixed: too few admissions for a p90");
  std::printf("fleet-mixed: %zu cameras, %zu workers, %zu set-ups, %zu rounds "
              "of %.0f day(s), %zu admissions\n",
              fleet.cameras.size(), workers, setup_s.size(), rates.size(),
              kIngestDays, admission_ms.size());
  PrintRates("fleet-mixed", rates, wall_rates);
  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("segments_per_s", Median(rates), "segments/s");
  report->Metric("quality_mean",
                 total_quality / static_cast<double>(Segments(*serial)),
                 "fraction");
  report->Metric("cloud_usd", cloud, "USD");
  report->Metric("peak_rss_mb", PeakRssMiB(), "MiB");
  report->Metric("admission_ms_p50", Percentile(admission_ms, 50.0), "ms");
  report->Metric("admission_ms_p90", Percentile(admission_ms, 90.0), "ms");
}

void TraceFleetMixed(const RunArgs& args, Tracer* tracer, Report* report) {
  Fleet fleet;
  auto took = SetUpFleet(args, 0, &fleet);
  report->Check(took.ok(), "fleet-mixed: set-up: " + took.status().ToString());
  if (!took.ok()) return;
  auto jobs = Jobs(fleet, args, /*record_trace=*/false);
  report->Check(jobs.ok(), "fleet-mixed: jobs");
  if (!jobs.ok()) return;
  const size_t workers = WorkerCount();
  sky::dag::ThreadPool pool(workers);

  // --- Scheduler: parallel efficiency T(1) / (W * T(W)) --------------------
  double t1 = 0.0, tw = 0.0;
  auto warm = CreateAndRun(*jobs, &pool, &tw);
  auto at_w = CreateAndRun(*jobs, &pool, &tw);
  auto at_1 = CreateAndRun(*jobs, nullptr, &t1);
  report->Check(warm.ok() && at_w.ok() && at_1.ok() &&
                    SameResults(*at_w, *at_1),
                "fleet-mixed: results at 1 and W workers differ");
  if (!at_1.ok()) return;
  report->Count("segments", 3 * Segments(*at_1));
  report->Count("streams", 3 * at_1->size());

  // --- Boundaries: the same fleet stepped serially, untraced then traced ---
  auto step_all = [&](bool traced, std::vector<double>* boundary_us,
                      std::vector<double>* step_us) -> sky::Result<double> {
    SKY_ASSIGN_OR_RETURN(core::StreamSet set,
                         core::StreamSet::Create(*jobs, JointOptions()));
    auto t0 = Clock::now();
    while (!set.Done()) {
      if (!traced) {
        SKY_RETURN_NOT_OK(set.Step());
      } else if (set.AtLockstepBoundary()) {
        TimedSpan span(tracer, "fleet", "StreamSet::Step.boundary",
                       boundary_us);
        SKY_RETURN_NOT_OK(set.Step());
      } else {
        TimedSpan span(tracer, "fleet", "StreamSet::Step", step_us);
        SKY_RETURN_NOT_OK(set.Step());
      }
    }
    double wall = SecondsSince(t0);
    SKY_ASSIGN_OR_RETURN(auto results, Collect(set));
    if (!SameResults(results, *at_1)) {
      return sky::Status::Internal("stepped fleet differs");
    }
    return wall;
  };
  std::vector<double> boundary_us, step_us;
  auto untraced_s = step_all(false, nullptr, nullptr);
  auto traced_s = step_all(true, &boundary_us, &step_us);
  report->Check(untraced_s.ok() && traced_s.ok(),
                "fleet-mixed: the stepped fleet (untraced and traced) differs "
                "from RunToCompletion");
  if (!untraced_s.ok() || !traced_s.ok()) return;
  report->Count("segments", 2 * Segments(*at_1));
  const double interior_p50 = Median(step_us);
  double boundary_extra = 0.0, all_steps = 0.0;
  for (double us : boundary_us) boundary_extra += us - interior_p50;
  for (double us : step_us) all_steps += us;
  all_steps += boundary_extra + interior_p50 * boundary_us.size();

  // --- Forecaster + planner: each camera on its own engine -----------------
  EngineTrace et;
  for (const core::StreamEngineJob& job : *jobs) {
    auto r = DriveTracedEngine(job, tracer, /*realized_l1=*/true, &et);
    report->Check(r.ok(), "fleet-mixed: traced camera engine");
    if (r.ok()) report->Count("segments", r->segments);
  }
  report->Check(et.replay_mismatches == 0,
                "fleet-mixed: ComputeKnobPlan on the boundary forecast does "
                "not reproduce a camera's installed plan");

  // --- io: fleet checkpoint save / recover ---------------------------------
  std::vector<double> save_us, recover_us;
  const std::string path = args.out_dir + "/fleet-mixed-trace-checkpoint.bin";
  {
    auto set = core::StreamSet::Create(*jobs, JointOptions());
    sky::Status st = set.ok() ? set->RunUntilElapsed(
                                    sky::Days(kIngestDays) / 2)
                              : set.status();
    for (int i = 0; st.ok() && i < 5; ++i) {
      TimedSpan span(tracer, "io", "StreamSet::SaveCheckpoint", &save_us);
      st = set->SaveCheckpoint(path);
    }
    std::optional<sky::Result<core::StreamSet>> recovered;
    for (int i = 0; st.ok() && i < 5; ++i) {
      TimedSpan span(tracer, "io", "StreamSet::RecoverFromCheckpoint",
                     &recover_us);
      recovered.emplace(
          core::StreamSet::RecoverFromCheckpoint(*jobs, path, JointOptions()));
      st = recovered->status();
    }
    if (st.ok()) st = (*recovered)->RunToCompletion(&pool);
    auto results = st.ok() ? Collect(**recovered)
                           : sky::Result<std::vector<core::EngineResult>>(st);
    report->Check(results.ok() && SameResults(*results, *at_1),
                  "fleet-mixed: recovered run differs from the uninterrupted "
                  "one");
  }

  report->Metric("forecaster.prepare_ms_p50", Median(et.prepare_us) * 1e-3,
                 "ms");
  report->Metric("forecaster.l1_error", Mean(et.l1_error), "l1");
  report->Metric("planner.solve_ms_p50", Median(et.solve_us) * 1e-3, "ms");
  report->Metric("fleet.boundary_ms_p50",
                 (Median(boundary_us) - interior_p50) * 1e-3, "ms");
  report->Metric("fleet.boundary_share", boundary_extra / all_steps,
                 "fraction");
  report->Metric("fleet.parallel_efficiency",
                 ParallelEfficiency(t1, tw, workers), "fraction");
  report->Metric("io.checkpoint_save_ms", Median(save_us) * 1e-3, "ms");
  report->Metric("io.checkpoint_recover_ms", Median(recover_us) * 1e-3, "ms");
  report->Metric("io.checkpoint_bytes", static_cast<double>(FileBytes(path)),
                 "bytes");
  report->Metric("trace.overhead.fleet-mixed", *traced_s / *untraced_s,
                 "ratio");
}

}  // namespace vetl
