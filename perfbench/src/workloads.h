// The three benchmark workloads. Each has an untraced run that measures the
// end-to-end metrics and checks the outputs, and a traced part that fills in
// the per-layer metrics of the layers it exercises.
#ifndef VETL_PERFBENCH_WORKLOADS_H_
#define VETL_PERFBENCH_WORKLOADS_H_

#include <vector>

#include "common.h"
#include "core/multi_stream.h"
#include "tracer.h"

namespace vetl {

/// One COVID stream in the paper's geometry through the `sky ingest` path:
/// fit, save, reload, then api::Skyscraper::Ingest.
void RunIngestCovid(const RunArgs& args, Report* report);
void TraceIngestCovid(const RunArgs& args, Tracer* tracer, Report* report);

/// One joint core::StreamSet of mixed cameras at WorkerCount() workers.
void RunFleetMixed(const RunArgs& args, Report* report);
void TraceFleetMixed(const RunArgs& args, Tracer* tracer, Report* report);

/// Closed-loop serve::Clients churning short sessions through an
/// in-process serve::Server.
void RunServeChurn(const RunArgs& args, Report* report);
void TraceServeChurn(const RunArgs& args, Tracer* tracer, Report* report);

/// What a traced drive of one engine records at its plan boundaries.
struct EngineTrace {
  std::vector<double> step_us;           ///< interior Step() calls
  std::vector<double> boundary_step_us;  ///< Step() calls that install a plan
  std::vector<double> prepare_us;        ///< PrepareBoundary()
  std::vector<double> solve_us;          ///< replayed ComputeKnobPlan()
  std::vector<double> l1_error;          ///< forecast vs realized histogram
  std::vector<sky::core::KnobPlan> plans;  ///< installed plan per boundary
  size_t replay_mismatches = 0;  ///< replayed plans unequal to installed ones
};

/// Drives `job` to completion on its own engine, one Step() at a time, with
/// spans around Step and PrepareBoundary and a replayed ComputeKnobPlan on
/// the boundary forecast. With `realized_l1` set it also classifies every
/// segment of each coming interval by ground truth and records the L1
/// distance between the forecast and that realized histogram. The drive is
/// the engine's own code path, so its result equals an untraced run's.
sky::Result<sky::core::EngineResult> DriveTracedEngine(
    const sky::core::StreamEngineJob& job, Tracer* tracer, bool realized_l1,
    EngineTrace* out);

}  // namespace vetl

#endif  // VETL_PERFBENCH_WORKLOADS_H_
