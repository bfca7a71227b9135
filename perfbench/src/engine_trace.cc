#include <cmath>

#include "core/categorizer.h"
#include "video/content_process.h"
#include "workloads.h"

namespace vetl {

sky::Result<sky::core::EngineResult> DriveTracedEngine(
    const sky::core::StreamEngineJob& job, Tracer* tracer, bool realized_l1,
    EngineTrace* out) {
  namespace core = sky::core;
  core::IngestionEngine engine(job.workload, job.model, job.cluster,
                               job.cost_model, job.options);
  SKY_RETURN_NOT_OK(engine.Start(job.start_time));
  const core::OfflineModel& model = *job.model;
  const double seg = model.segment_seconds;
  const int64_t first_segment = std::llround(job.start_time / seg);
  const int64_t total_segments =
      static_cast<int64_t>(job.options.duration / seg);
  const size_t num_categories = model.categories.NumCategories();
  std::vector<double> quals;
  std::vector<double> realized;

  while (!engine.Done()) {
    if (!engine.AtPlanBoundary()) {
      TimedSpan span(tracer, "engine", "Step", &out->step_us);
      SKY_RETURN_NOT_OK(engine.Step());
      continue;
    }
    {
      TimedSpan span(tracer, "forecaster", "PrepareBoundary",
                     &out->prepare_us);
      SKY_RETURN_NOT_OK(engine.PrepareBoundary());
    }
    const std::vector<double>& forecast = engine.boundary_forecast();
    core::KnobPlan replay;
    {
      TimedSpan span(tracer, "planner", "ComputeKnobPlan", &out->solve_us);
      auto plan = core::ComputeKnobPlan(
          model.categories, forecast, engine.config_costs(),
          engine.PlanBudgetCoreSPerVideoS(), job.options.planner_backend);
      if (plan.ok()) {
        replay = std::move(*plan);
      } else if (plan.status().code() == sky::StatusCode::kResourceExhausted) {
        replay = engine.FallbackPlan(forecast);
      } else {
        return plan.status();
      }
    }
    if (realized_l1) {
      Span span(tracer, "workloads", "RealizedHistogram");
      int64_t begin = engine.next_segment_index();
      int64_t count = std::min(engine.segments_per_interval(),
                               total_segments - begin);
      realized.assign(num_categories, 0.0);
      const sky::video::ContentProcess& content =
          job.workload->content_process();
      for (int64_t i = 0; i < count; ++i) {
        double mid =
            (static_cast<double>(first_segment + begin + i) + 0.5) * seg;
        core::TrueQualityVectorInto(*job.workload, model.configs,
                                    content.At(mid), &quals);
        realized[model.categories.ClassifyFull(quals)] += 1.0;
      }
      double l1 = 0.0;
      for (size_t c = 0; c < num_categories; ++c) {
        l1 += std::fabs(forecast[c] - realized[c] / static_cast<double>(count));
      }
      out->l1_error.push_back(l1);
    }
    {
      TimedSpan span(tracer, "engine", "Step.boundary",
                     &out->boundary_step_us);
      SKY_RETURN_NOT_OK(engine.Step());
    }
    const core::KnobPlan* installed = engine.current_plan();
    if (installed == nullptr || !SameAlpha(*installed, replay)) {
      ++out->replay_mismatches;
    }
    if (installed != nullptr) out->plans.push_back(*installed);
  }
  return engine.partial_result();
}

}  // namespace vetl
