// ingest-covid: the COVID stream in the paper's geometry (4 s segments, a
// 16-day offline horizon, 3 content categories, a plan every 2 days) through
// the `sky ingest` path: fit, save the model, reload it, then ingest 8 days
// with api::Skyscraper::Ingest and a cloud budget provisioned. Substrate and
// switcher do nearly all the work; the planner runs at 4 boundaries a round.

#include <cstdio>
#include <memory>
#include <optional>

#include "api/skyscraper.h"
#include "api/workload_registry.h"
#include "core/categorizer.h"
#include "core/config_filter.h"
#include "core/forecaster.h"
#include "core/profiler.h"
#include "core/switcher.h"
#include "dag/thread_pool.h"
#include "io/model_io.h"
#include "stats.h"
#include "video/content_process.h"
#include "video/stream_source.h"
#include "workloads.h"

namespace vetl {

namespace {

namespace api = sky::api;
namespace core = sky::core;

constexpr double kSegmentS = 4.0;
constexpr double kTrainDays = 16.0;
constexpr double kIngestDays = 8.0;
constexpr double kPlanDays = 2.0;
constexpr size_t kCategories = 3;
constexpr double kCloudUsdPerInterval = 1.0;
constexpr int kCores = 8;
/// Set-up repetitions per run; setup_s is their median.
constexpr size_t kSetups = 5;
/// Sessions opened per round for the admission metric; with kMinRounds
/// rounds at least, p90 has at least 10 samples beyond it.
constexpr size_t kAdmissionsPerRound = 10;
constexpr size_t kMinRounds = 10;

api::Resources CovidResources() {
  api::Resources r;
  r.cores = kCores;
  r.cloud_budget_usd_per_interval = kCloudUsdPerInterval;
  return r;
}

core::OfflineOptions CovidOffline() {
  core::OfflineOptions o;
  o.segment_seconds = kSegmentS;
  o.train_horizon = sky::Days(kTrainDays);
  o.num_categories = kCategories;
  o.forecaster.input_span = sky::Days(kPlanDays);
  o.forecaster.planned_interval = sky::Days(kPlanDays);
  return o;
}

core::EngineOptions CovidIngest(uint64_t seed) {
  core::EngineOptions o;
  o.duration = sky::Days(kIngestDays);
  o.plan_interval = sky::Days(kPlanDays);
  o.seed = DeriveSeed(seed, 2);
  return o;
}

/// One deployment: the camera, the facade that fitted the model, and the
/// serving facade that reloaded it from disk.
struct Deployment {
  std::unique_ptr<core::Workload> workload;
  std::unique_ptr<api::Skyscraper> fitted;
  std::unique_ptr<api::Skyscraper> loaded;
};

/// Fit, save, reload: everything up to ready-to-ingest. Returns the seconds
/// it took (StealClock).
sky::Result<double> SetUp(const RunArgs& args, size_t rep, Deployment* d) {
  StealClock clock;
  // The paper's one COVID camera (the registry default) and the default
  // offline seed for every --seed, which drives the measurement noise of
  // the run. Throughput depends on the fitted model (how many
  // configurations survive the filter sets the per-segment truth cost):
  // with a camera and fit per seed it ranged 1.6x across seeds 1-10, so the
  // spread measured the draw, not the program. fleet-mixed and serve-churn
  // draw their cameras and fits from the seed.
  d->workload = api::MakeWorkloadByName("covid");
  d->fitted = std::make_unique<api::Skyscraper>(d->workload.get());
  d->fitted->SetResources(CovidResources());
  SKY_RETURN_NOT_OK(d->fitted->Fit(CovidOffline()));
  const std::string path =
      args.out_dir + "/ingest-covid-model-" + std::to_string(rep) + ".bin";
  SKY_RETURN_NOT_OK(d->fitted->SaveModel(path, "covid"));
  d->loaded = std::make_unique<api::Skyscraper>(d->workload.get());
  d->loaded->SetResources(CovidResources());
  SKY_RETURN_NOT_OK(d->loaded->LoadModel(path, "covid"));
  return clock.NetSeconds();
}

StreamBounds CovidBounds(double final_lag_s) {
  StreamBounds b;
  b.segments = static_cast<int64_t>(sky::Days(kIngestDays) / kSegmentS);
  b.cloud_cap_usd = kCloudUsdPerInterval *
                    static_cast<double>(IntervalsIn(sky::Days(kIngestDays),
                                                    sky::Days(kPlanDays)));
  b.onprem_cap_core_s = OnPremCap(kCores, sky::Days(kIngestDays), final_lag_s);
  return b;
}

const core::OfflineModel& ModelOf(const api::Skyscraper& sky) {
  return **sky.model();
}

/// The verification run: the same ingest with one trace point per segment,
/// stepped one segment at a time so every installed plan can be checked.
void VerifyIngest(const Deployment& d, const RunArgs& args,
                  const core::EngineResult& reference, Report* report) {
  core::EngineOptions opts = CovidIngest(args.seed);
  opts.record_trace = true;
  opts.trace_resolution_s = kSegmentS;
  auto session = d.loaded->StartIngest(sky::Days(kTrainDays), opts);
  report->Check(session.ok(), "ingest-covid: StartIngest for verification");
  if (!session.ok()) return;
  size_t boundary = 0;
  while (!session->Done()) {
    bool at_boundary = session->engine().AtPlanBoundary();
    sky::Status st = session->Step();
    if (!st.ok()) {
      report->Check(false, "ingest-covid: verification step: " + st.ToString());
      return;
    }
    if (at_boundary) {
      const core::IngestionEngine& e = session->engine();
      CheckPlan(report, "ingest-covid boundary " + std::to_string(boundary++),
                *e.current_plan(), e.PlanBudgetCoreSPerVideoS(),
                e.FallbackPlan(e.boundary_forecast()));
    }
  }
  auto result = session->Finish();
  report->Check(result.ok(), "ingest-covid: verification run finishes");
  if (!result.ok()) return;
  report->Count("segments", result->segments);
  report->Check(SameExceptTrace(*result, reference),
                "ingest-covid: tracing every segment changed the result");
  CheckStream(report, "ingest-covid", *result,
              CovidBounds(session->LagSeconds()));
  CheckQualityRecompute(report, "ingest-covid", *d.workload, ModelOf(*d.loaded),
                        *result, /*full=*/true);
}

}  // namespace

void RunIngestCovid(const RunArgs& args, Report* report) {
  // --- Set-up, repeated; the median is setup_s -----------------------------
  std::vector<double> setup_s;
  Deployment d;
  std::optional<core::OfflineModel> first_model;
  for (size_t rep = 0; rep < kSetups; ++rep) {
    d = Deployment{};
    auto took = SetUp(args, rep, &d);
    report->Check(took.ok(), "ingest-covid: set-up (fit, save, load): " +
                                 took.status().ToString());
    if (!took.ok()) return;
    setup_s.push_back(*took);
    if (!first_model) {
      first_model = ModelOf(*d.fitted);
    } else {
      report->Check(core::OfflineModelsIdentical(*first_model,
                                                 ModelOf(*d.fitted)),
                    "ingest-covid: repeated fits differ");
    }
  }
  report->Check(core::OfflineModelsIdentical(ModelOf(*d.fitted),
                                             ModelOf(*d.loaded)),
                "ingest-covid: reloaded model differs from the fitted one");

  // --- Checks, which also warm up ------------------------------------------
  const sky::SimTime start = sky::Days(kTrainDays);
  const core::EngineOptions opts = CovidIngest(args.seed);
  auto after_fit = d.fitted->Ingest(start, opts);
  auto reloaded = d.loaded->Ingest(start, opts);
  report->Check(after_fit.ok() && reloaded.ok(), "ingest-covid: ingest runs");
  if (!after_fit.ok() || !reloaded.ok()) return;
  report->Count("segments", after_fit->segments + reloaded->segments);
  report->Check(core::EngineResultsIdentical(*after_fit, *reloaded),
                "ingest-covid: ingest from the reloaded model differs from "
                "ingest right after the fit");
  VerifyIngest(d, args, *reloaded, report);

  // --- Timed rounds: open sessions (admission), then one ingest ------------
  std::vector<double> rates, wall_rates;
  std::vector<double> admission_ms;
  auto begin = Clock::now();
  while (rates.size() < kMinRounds || SecondsSince(begin) < args.seconds) {
    for (size_t i = 0; i < kAdmissionsPerRound; ++i) {
      auto t0 = Clock::now();
      auto session = d.loaded->StartIngest(
          start + sky::Minutes(static_cast<double>(i)), opts);
      admission_ms.push_back(MsSince(t0));
      report->Check(session.ok(), "ingest-covid: StartIngest");
    }
    report->Count("streams", kAdmissionsPerRound);
    auto t0 = Clock::now();
    StealClock clock;
    auto r = d.loaded->Ingest(start, opts);
    double wall = SecondsSince(t0);
    double net = clock.NetSeconds();
    report->Check(r.ok() && core::EngineResultsIdentical(*r, *reloaded),
                  "ingest-covid: a timed round differs from the checked run");
    if (!r.ok()) return;
    report->Count("segments", r->segments);
    rates.push_back(static_cast<double>(r->segments) / net);
    wall_rates.push_back(static_cast<double>(r->segments) / wall);
  }

  report->Check(SamplesBeyond(admission_ms.size(), 90.0) >= kMinTailSamples,
                "ingest-covid: too few admissions for a p90");
  std::printf("ingest-covid: %zu set-ups, %zu rounds of %.0f days, %zu "
              "admissions\n",
              setup_s.size(), rates.size(), kIngestDays, admission_ms.size());
  PrintRates("ingest-covid", rates, wall_rates);
  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("segments_per_s", Median(rates), "segments/s");
  report->Metric("quality_mean", reloaded->mean_quality, "fraction");
  report->Metric("cloud_usd", reloaded->cloud_usd, "USD");
  report->Metric("peak_rss_mb", PeakRssMiB(), "MiB");
  report->Metric("admission_ms_p50", Percentile(admission_ms, 50.0), "ms");
  report->Metric("admission_ms_p90", Percentile(admission_ms, 90.0), "ms");
}

void TraceIngestCovid(const RunArgs& args, Tracer* tracer, Report* report) {
  Deployment d;
  auto took = SetUp(args, 0, &d);
  report->Check(took.ok(), "ingest-covid: set-up: " + took.status().ToString());
  if (!took.ok()) return;
  const core::OfflineModel& fitted = ModelOf(*d.fitted);

  // --- Offline: the public step functions, one span each -------------------
  {
    const core::OfflineOptions o = CovidOffline();
    const api::Skyscraper& sky = *d.fitted;
    std::optional<sky::dag::ThreadPool> pool;
    if (sky::dag::DefaultThreadCount() > 1) {
      pool.emplace(sky::dag::DefaultThreadCount());
    }
    sky::dag::ThreadPool* p = pool ? &*pool : nullptr;
    core::OfflineModel m;
    m.segment_seconds = o.segment_seconds;
    m.train_horizon = std::min<double>(
        o.train_horizon, d.workload->content_process().horizon());
    std::vector<double> filter_us, place_us, cat_us, data_us, train_us;
    bool ok = true;
    {
      TimedSpan s(tracer, "offline", "FilterKnobConfigs", &filter_us);
      core::ConfigFilterOptions f = o.filter;
      f.train_horizon = m.train_horizon;
      f.seed = o.seed ^ 0x1;
      f.pool = p;
      auto configs = core::FilterKnobConfigs(*d.workload, f);
      ok = ok && configs.ok();
      if (configs.ok()) m.configs = std::move(*configs);
    }
    {
      TimedSpan s(tracer, "offline", "ProfileConfigs", &place_us);
      auto profiles = core::ProfileConfigs(*d.workload, m.configs,
                                           sky.cluster(), sky.cost_model(),
                                           o.segment_seconds,
                                           o.placement_search, p);
      ok = ok && profiles.ok();
      if (profiles.ok()) m.profiles = std::move(*profiles);
    }
    {
      TimedSpan s(tracer, "offline", "BuildContentCategories", &cat_us);
      core::CategorizerOptions c;
      c.num_categories = o.num_categories;
      c.segment_seconds = o.segment_seconds;
      c.train_horizon = m.train_horizon;
      c.backend = o.categorizer_backend;
      c.seed = o.seed ^ 0x2;
      c.pool = p;
      auto cats = core::BuildContentCategories(*d.workload, m.configs, c);
      ok = ok && cats.ok();
      if (cats.ok()) m.categories = std::move(*cats);
    }
    {
      TimedSpan s(tracer, "offline", "BuildTrainCategorySequence", &data_us);
      m.train_category_sequence = core::BuildTrainCategorySequence(
          *d.workload, m.configs, m.categories, o.segment_seconds,
          m.train_horizon, o.seed ^ 0x3, p);
    }
    {
      TimedSpan s(tracer, "offline", "Forecaster::Train", &train_us);
      core::ForecasterOptions f = o.forecaster;
      f.seed = o.seed ^ 0x4;
      f.pool = p;
      auto forecaster = core::Forecaster::Train(
          m.train_category_sequence, o.segment_seconds, o.num_categories, f);
      ok = ok && forecaster.ok();
      if (forecaster.ok()) m.forecaster.emplace(std::move(*forecaster));
    }
    report->Check(ok && core::OfflineModelsIdentical(m, fitted),
                  "ingest-covid: the model rebuilt from the offline step "
                  "functions differs from RunOfflinePhase's");
    report->Metric("offline.filter_configs_s", filter_us[0] * 1e-6, "s");
    report->Metric("offline.placements_s", place_us[0] * 1e-6, "s");
    report->Metric("offline.categories_s", cat_us[0] * 1e-6, "s");
    report->Metric("offline.train_data_s", data_us[0] * 1e-6, "s");
    report->Metric("offline.train_forecaster_s", train_us[0] * 1e-6, "s");
  }

  // --- io: model save / load -----------------------------------------------
  {
    std::vector<double> save_us, load_us;
    const std::string path = args.out_dir + "/ingest-covid-trace-model.bin";
    for (int i = 0; i < 5; ++i) {
      TimedSpan s(tracer, "io", "SaveOfflineModel", &save_us);
      report->Check(sky::io::SaveOfflineModel(fitted, path, "covid").ok(),
                    "ingest-covid: SaveOfflineModel");
    }
    for (int i = 0; i < 5; ++i) {
      std::optional<sky::Result<core::OfflineModel>> loaded;
      {
        TimedSpan s(tracer, "io", "LoadOfflineModel", &load_us);
        loaded.emplace(sky::io::LoadOfflineModel(path));
      }
      report->Check(loaded->ok() &&
                        core::OfflineModelsIdentical(**loaded, fitted),
                    "ingest-covid: LoadOfflineModel round trip");
    }
    report->Metric("io.model_save_ms", Median(save_us) * 1e-3, "ms");
    report->Metric("io.model_load_ms", Median(load_us) * 1e-3, "ms");
    report->Metric("io.model_bytes", static_cast<double>(FileBytes(path)),
                   "bytes");
  }

  // --- Untraced round, then the same round driven step by step -------------
  const sky::SimTime start = sky::Days(kTrainDays);
  const core::EngineOptions opts = CovidIngest(args.seed);
  auto warm = d.loaded->Ingest(start, opts);  // warm-up
  auto t0 = Clock::now();
  auto untraced = d.loaded->Ingest(start, opts);
  double untraced_s = SecondsSince(t0);
  report->Check(warm.ok() && untraced.ok(), "ingest-covid: untraced ingest");
  if (!untraced.ok()) return;
  auto job = d.loaded->MakeStreamJob(start, opts);
  report->Check(job.ok(), "ingest-covid: MakeStreamJob");
  if (!job.ok()) return;
  EngineTrace et;
  t0 = Clock::now();
  std::optional<sky::Result<core::EngineResult>> traced;
  {
    Span span(tracer, "api", "Ingest");
    traced.emplace(DriveTracedEngine(*job, tracer, /*realized_l1=*/false, &et));
  }
  double traced_s = SecondsSince(t0);
  report->Check(traced->ok() &&
                    core::EngineResultsIdentical(**traced, *untraced),
                "ingest-covid: the traced run differs from the untraced run");
  report->Check(et.replay_mismatches == 0,
                "ingest-covid: ComputeKnobPlan on the boundary forecast does "
                "not reproduce the installed plan");
  report->Count("segments", 2 * untraced->segments);

  // --- Substrate replay: content, truth, classification, measurement -------
  const core::OfflineModel& model = ModelOf(*d.loaded);
  const int64_t n = static_cast<int64_t>(untraced->segments);
  const int64_t first = std::llround(start / kSegmentS);
  double truth_us;
  {
    sky::video::StreamSource source(&d.workload->content_process(), kSegmentS);
    sky::Rng rng(DeriveSeed(args.seed, 9));
    std::vector<double> quals;
    double sink = 0.0;
    auto r0 = Clock::now();
    {
      Span span(tracer, "workloads", "TruthReplay");
      for (int64_t i = 0; i < n; ++i) {
        sky::video::SegmentInfo info = source.Segment(first + i);
        double mid = (static_cast<double>(first + i) + 0.5) * kSegmentS;
        core::TrueQualityVectorInto(*d.workload, model.configs,
                                    d.workload->content_process().At(mid),
                                    &quals);
        sink += static_cast<double>(model.categories.ClassifyFull(quals));
        size_t k = static_cast<size_t>(i) % model.configs.size();
        sink += d.workload->MeasuredQuality(model.configs[k], info.content,
                                            &rng);
      }
    }
    truth_us = SecondsSince(r0) * 1e6 / static_cast<double>(n);
    report->Check(sink > 0.0, "ingest-covid: substrate replay ran");
  }

  // --- Switcher replay on the run's own plans ------------------------------
  std::vector<double> decide_us;
  {
    sky::video::StreamSource source(&d.workload->content_process(), kSegmentS);
    sky::Rng rng(DeriveSeed(args.seed, 10));
    const int64_t per_interval =
        static_cast<int64_t>(sky::Days(kPlanDays) / kSegmentS);
    decide_us.reserve(static_cast<size_t>(n));
    core::SwitchContext ctx;
    ctx.segment_seconds = kSegmentS;
    ctx.buffer_capacity_bytes = *job->options.buffer_bytes;
    for (size_t b = 0; b < et.plans.size(); ++b) {
      Span span(tracer, "switcher", "Decide.replay");
      core::KnobSwitcher switcher(&model.categories, &model.profiles);
      switcher.SetPlan(&et.plans[b]);
      ctx.cloud_credits_remaining_usd = kCloudUsdPerInterval;
      for (int64_t i = 0; i < per_interval; ++i) {
        int64_t idx = first + static_cast<int64_t>(b) * per_interval + i;
        sky::video::SegmentInfo info = source.Segment(idx);
        ctx.bytes_per_video_second =
            static_cast<double>(info.bytes) / info.duration_s;
        auto c0 = Clock::now();
        auto decision = switcher.Decide(ctx);
        decide_us.push_back(SecondsSince(c0) * 1e6);
        if (!decision.ok()) break;
        switcher.RecordUsage(decision->category, decision->config_idx);
        ctx.current_config_idx = decision->config_idx;
        ctx.measured_quality = d.workload->MeasuredQuality(
            model.configs[decision->config_idx], info.content, &rng);
      }
    }
  }

  std::vector<double> all_steps = et.step_us;
  all_steps.insert(all_steps.end(), et.boundary_step_us.begin(),
                   et.boundary_step_us.end());
  const double segs = static_cast<double>(untraced->segments);
  report->Metric("workloads.truth_us_per_segment", truth_us, "us");
  report->Metric("engine.step_us_p50", Median(et.step_us), "us");
  report->Metric("engine.system_us_per_segment", Mean(all_steps) - truth_us,
                 "us");
  report->Metric("switcher.decide_us_p50", Median(decide_us), "us");
  report->Metric("switcher.misclassified_frac",
                 static_cast<double>(untraced->misclassified) / segs,
                 "fraction");
  report->Metric("switcher.degraded_frac",
                 static_cast<double>(untraced->degraded_count) / segs,
                 "fraction");
  report->Metric("trace.overhead.ingest-covid", traced_s / untraced_s, "ratio");
}

}  // namespace vetl
